(* Tests for the meta-operator flow: validation of Fig. 13 programs,
   printer/parser round trip, the identity of the sink printer with the
   Format printer (on random and compiled programs), the digest, the
   per-domain sinks of the printer and the CMSI encoder, and switch
   accounting. *)

module Flow = Cim_metaop.Flow
module Parse = Cim_metaop.Parse
module Check = Cim_metaop.Check
module Isa = Cim_metaop.Isa
module Chip = Cim_arch.Chip
module Mode = Cim_arch.Mode
module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo
module Cmswitch = Cim_compiler.Cmswitch
module Pool = Cim_util.Pool

let chip = Cim_arch.Config.dynaplasia
let c x y = { Chip.x; y }
let sl lo hi = { Flow.lo; hi }

let prog instrs = { Flow.source = "test"; instrs }

let compute ?(arrays = [ c 0 0 ]) ?(mem = []) ?(slice = sl 0 4) () =
  Flow.Compute
    { label = "op"; node_id = 0; arrays; mem_arrays = mem; inputs = [ "x" ];
      output = "y"; slice; macs = 100.; ai = 2. }

let test_validate_ok () =
  let p =
    prog
      [
        Flow.Switch { target = Mode.To_compute; arrays = [ c 0 0 ] };
        Flow.Parallel
          [
            Flow.Write_weights
              { label = "op"; node_id = 0; arrays = [ c 0 0 ]; slice = sl 0 4;
                bytes = 16; in_place = false };
            Flow.Load { tensor = "x"; src = Flow.Main_memory; dst = Flow.Buffer; bytes = 4 };
            compute ();
            Flow.Store { tensor = "y"; src = Flow.Buffer; dst = Flow.Main_memory; bytes = 4 };
            Flow.Vector_op { label = "relu"; node_id = 1; inputs = [ "y" ]; output = "z" };
          ];
      ]
  in
  Alcotest.(check (list string)) "valid" []
    (List.map Check.diagnostic_to_string (Check.run chip p))

let toc ?(arrays = [ c 0 0 ]) () = Flow.Switch { target = Mode.To_compute; arrays }

let write ?(arrays = [ c 0 0 ]) ?(slice = sl 0 4) () =
  Flow.Write_weights
    { label = "op"; node_id = 0; arrays; slice; bytes = 16; in_place = false }

let messages p = List.map (fun d -> d.Check.message) (Check.run chip p)

(* Every program below is clean bar the one defect named (unless an array
   is the defect, the arrays it computes on are switched to compute mode
   and hold the node's weights), so its one diagnostic comes from the rule
   under test. *)
let expect_invalid name want p = Alcotest.(check (list string)) name want (messages p)

let test_validate_failures () =
  expect_invalid "coord out of range"
    [ Printf.sprintf "compute op: array (50,50) outside the %s grid" chip.Chip.name ]
    (prog [ compute ~arrays:[ c 50 50 ] () ]);
  expect_invalid "both modes in one op"
    [ "compute op: array (0,0) is in compute mode, needs memory" ]
    (prog [ toc (); write (); compute ~mem:[ c 0 0 ] () ]);
  (* Eq. 5: with no switch inside a block, an array a block computes on
     is still in compute mode when another op of the block reads it as
     memory; a switch inside the block is itself the error *)
  expect_invalid "both modes in one segment"
    [ "compute op: array (0,0) is in compute mode, needs memory" ]
    (prog
       [ toc ~arrays:[ c 0 0; c 1 0 ] ();
         write ~arrays:[ c 0 0; c 1 0 ] ();
         Flow.Parallel [ compute (); compute ~arrays:[ c 1 0 ] ~mem:[ c 0 0 ] () ] ]);
  expect_invalid "both modes in one segment, across a switch"
    [ "switch inside a parallel block" ]
    (prog
       [ toc ~arrays:[ c 1 0 ] ();
         write ~arrays:[ c 1 0 ] ();
         Flow.Parallel
           [ compute ~arrays:[ c 1 0 ] ~mem:[ c 0 0 ] (); toc (); write (); compute () ] ]);
  expect_invalid "nested parallel" [ "nested parallel block" ]
    (prog [ Flow.Parallel [ Flow.Parallel [] ] ]);
  expect_invalid "malformed slice" [ "compute op: malformed slice [4,4)" ]
    (prog [ toc (); write (); compute ~slice:(sl 4 4) () ]);
  expect_invalid "negative slice start" [ "compute op: malformed slice [-1,4)" ]
    (prog [ toc (); write (); compute ~slice:(sl (-1) 4) () ]);
  expect_invalid "malformed weight slice" [ "write op: malformed slice [4,4)" ]
    (prog [ toc (); write ~slice:(sl 4 4) (); compute () ]);
  expect_invalid "negative bytes" [ "load x: negative byte count" ]
    (prog [ Flow.Load { tensor = "x"; src = Flow.Main_memory; dst = Flow.Buffer; bytes = -1 } ])

(* what only the structural rules catch: each program below is clean under
   the per-array rules walked in order, bar the one defect named *)
let test_structural_rules () =
  Alcotest.(check (list string)) "switch, write, compute at top level" []
    (messages (prog [ toc (); write (); compute () ]));
  Alcotest.(check (list string)) "a switch inside a parallel block"
    [ "switch inside a parallel block" ]
    (messages (prog [ Flow.Parallel [ toc (); write (); compute () ] ]));
  let signed macs ai =
    Flow.Compute
      { label = "op"; node_id = 0; arrays = [ c 0 0 ]; mem_arrays = []; inputs = [ "x" ];
        output = "y"; slice = sl 0 4; macs; ai }
  in
  Alcotest.(check (list string)) "negative macs" [ "compute op: negative macs/ai" ]
    (messages (prog [ toc (); write (); signed (-1.) 2. ]));
  Alcotest.(check (list string)) "negative ai" [ "compute op: negative macs/ai" ]
    (messages (prog [ toc (); write (); signed 100. (-0.5) ]))

(* (5,-1) lands on index -7 of dynaplasia's 12-wide grid if y is not
   checked, and a y past max_int / 12 wraps y * 12 negative: Check must
   report both, not index its per-array state out of bounds *)
(* every edge of the grid's bounds test: negative x or y, x = grid_cols,
   the first row past the grid, and a y whose index would overflow *)
let test_negative_coord () =
  List.iter
    (fun (x, y) ->
      let p = prog [ compute ~arrays:[ c x y ] () ] in
      expect_invalid (Printf.sprintf "(%d,%d)" x y)
        [ Printf.sprintf "compute op: array (%d,%d) outside the %s grid" x y chip.Chip.name ]
        p)
    [ (5, -1); (5, (max_int / 12) + 1); (-1, 0); (12, 0); (0, 8) ]

let test_switch_accounting () =
  let p =
    prog
      [
        Flow.Switch { target = Mode.To_compute; arrays = [ c 0 0; c 1 0 ] };
        Flow.Parallel [ Flow.Switch { target = Mode.To_memory; arrays = [ c 2 0 ] } ];
      ]
  in
  Alcotest.(check int) "count" 3 (Flow.count_switches p);
  let kinds = List.map fst (Flow.switched_arrays p) in
  Alcotest.(check int) "toc count" 2
    (List.length (List.filter (fun k -> k = Mode.To_compute) kinds))

let test_roundtrip_manual () =
  let p =
    prog
      [
        Flow.Switch { target = Mode.To_memory; arrays = [ c 3 4 ] };
        Flow.Parallel
          [
            Flow.Write_weights
              { label = "a\tb\"c"; node_id = 7; arrays = [ c 0 0; c 1 1 ];
                slice = sl 0 40; bytes = 12800; in_place = true };
            Flow.Load
              { tensor = "act"; src = Flow.Main_memory;
                dst = Flow.Mem_arrays [ c 3 4 ]; bytes = 1024 };
            Flow.Compute
              { label = "fc[0:40)"; node_id = 7; arrays = [ c 0 0; c 1 1 ];
                mem_arrays = [ c 3 4 ]; inputs = [ "act" ]; output = "out";
                slice = sl 0 40; macs = 1234.5; ai = 0.75 };
            Flow.Store
              { tensor = "out"; src = Flow.Mem_arrays [ c 3 4 ];
                dst = Flow.Main_memory; bytes = 40 };
            Flow.Vector_op { label = "softmax"; node_id = 8; inputs = [ "out" ]; output = "p" };
          ];
      ]
  in
  Alcotest.(check bool) "roundtrip equal" true
    (Parse.program_of_string (Flow.to_string p) = Ok p)

let test_parse_errors () =
  let bad s =
    match Parse.program_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error: %s" s
  in
  bad "";
  bad "flow \"x\" CM.switch(SIDEWAYS, [(0,0)])";
  bad "flow \"x\" BOGUS.op(1)";
  bad "flow \"x\" CM.switch(TOM, [(0,0)";
  bad "flow \"\\999\"";
  (* an integer field takes an exact int literal, nothing a float reads *)
  List.iter
    (fun x -> bad (Printf.sprintf "flow \"x\" CM.switch(TOC, [(%s,0)])" x))
    [ "1.5"; "1e3"; "1e400"; "4611686018427387904"; "1e" ];
  Alcotest.(check bool) "int past 2^53 read exactly" true
    (Parse.program_of_string "flow \"x\" CM.switch(TOC, [(9007199254740993,0)])"
    = Ok { Flow.source = "x"; instrs = [ toc ~arrays:[ c 9007199254740993 0 ] () ] })

(* random programs built from a small combinator grammar: labels and
   sources that need every [%S] escape, negative ints and ints past 2^32,
   signed zeros and subnormals, memory-array locations, empty coordinate
   and input lists, several parallel blocks. Coordinates mostly fall in
   the printer's preprinted 32x32 table or on its edges (0, 31, 32, -1),
   the rest are drawn like any other int. *)
let labels =
  [ "k"; ""; "fc[0:40)"; "a\tb\"c"; "back\\slash"; "nl\ncr\r\b"; "\000\127\255";
    "caf\195\169"; "it's" ]

let gen_int =
  QCheck.Gen.(
    frequency
      [ (6, int_range 0 10_000); (2, int_range (-10_000) (-1));
        (2, int_range (1 lsl 32) (1 lsl 52)) ])

let gen_float =
  QCheck.Gen.(
    frequency
      [ (6, float_range 0. 1e6);
        (2, oneofl [ -0.; 5e-324; 2.2250738585072009e-308; 1e300; -1.5; 0.1 ]) ])

(* every int, including those no float holds exactly *)
let gen_int_wide =
  QCheck.Gen.(frequency [ (8, gen_int); (1, oneofl [ max_int; min_int; (1 lsl 53) + 1 ]) ])

(* past what the parser reads back as an equal program: floats [=] cannot
   compare or the lexer cannot read *)
let gen_float_wide =
  QCheck.Gen.(frequency [ (8, gen_float); (1, oneofl [ nan; infinity; neg_infinity ]) ])

let gen_program ~ints ~floats =
  let open QCheck.Gen in
  let label = oneofl labels and name = oneofl [ "a"; "b.c"; "x/y_1"; "t0" ] in
  let coord_int =
    frequency [ (4, int_range 0 31); (2, oneofl [ 0; 31; 32; -1 ]); (2, ints) ]
  in
  let coords = list_size (int_range 0 3) (map2 c coord_int coord_int) in
  let names = list_size (int_range 0 3) name in
  let loc =
    frequency
      [ (1, return Flow.Main_memory); (1, return Flow.Buffer);
        (2, map (fun cs -> Flow.Mem_arrays cs) coords) ]
  in
  let leaf =
    oneof
      [ (let+ target = oneofl [ Mode.To_compute; Mode.To_memory ] and+ arrays = coords in
         Flow.Switch { target; arrays });
        (let+ label = label and+ node_id = ints and+ arrays = coords
         and+ slice = map2 sl ints ints and+ bytes = ints and+ in_place = bool in
         Flow.Write_weights { label; node_id; arrays; slice; bytes; in_place });
        (let+ load = bool and+ tensor = name and+ src = loc and+ dst = loc and+ bytes = ints in
         if load then Flow.Load { tensor; src; dst; bytes }
         else Flow.Store { tensor; src; dst; bytes });
        (let+ label = label and+ node_id = ints and+ arrays = coords and+ mem_arrays = coords
         and+ inputs = names and+ output = name and+ slice = map2 sl ints ints
         and+ macs = floats and+ ai = floats in
         Flow.Compute { label; node_id; arrays; mem_arrays; inputs; output; slice; macs; ai });
        (let+ label = label and+ node_id = ints and+ inputs = names and+ output = name in
         Flow.Vector_op { label; node_id; inputs; output }) ]
  in
  (* blocks and programs are never empty: on an empty one [pp] prints an
     indented blank line that [to_string] leaves out *)
  let instr =
    frequency
      [ (3, leaf); (1, map (fun is -> Flow.Parallel is) (list_size (int_range 1 6) leaf)) ]
  in
  let+ source = label and+ instrs = list_size (int_range 1 8) instr in
  { Flow.source; instrs }

let prop_roundtrip_random =
  QCheck.Test.make ~name:"parse . print = id on random programs" ~count:200
    (QCheck.make ~print:Flow.to_string (gen_program ~ints:gen_int_wide ~floats:gen_float))
    (fun p -> Parse.program_of_string (Flow.to_string p) = Ok p)

let prop_printer_identity =
  QCheck.Test.make ~name:"to_string = pp on random programs" ~count:300
    (QCheck.make ~print:Flow.to_string
       (gen_program ~ints:gen_int_wide ~floats:gen_float_wide))
    (fun p -> Format.asprintf "%a" Flow.pp p = Flow.to_string p)

let prop_digest =
  QCheck.Test.make ~name:"digest = MD5 of to_string on random programs" ~count:200
    (QCheck.make ~print:Flow.to_string
       (gen_program ~ints:gen_int_wide ~floats:gen_float_wide))
    (fun p -> Flow.digest p = Digest.to_hex (Digest.string (Flow.to_string p)))

(* the sinks are reset on every call: A, then a longer B, then A again
   gives A's text, digests and CMSI image both times. The images come from
   the ISA tests' generator, whose programs CMSI can represent; text and
   image calls interleave, so neither sink disturbs the other. *)
let prop_sink_resets =
  let gen = gen_program ~ints:gen_int_wide ~floats:gen_float_wide in
  let image = T_pipeline.gen_program in
  QCheck.Test.make ~name:"printing A, B, A gives A's text and image twice" ~count:100
    (QCheck.make
       ~print:(fun ((a, b), (ia, ib)) ->
         String.concat "\n---\n" (List.map Flow.to_string [ a; b; ia; ib ]))
       QCheck.Gen.(pair (pair gen gen) (pair image image)))
    (fun ((a, b), (ia, ib)) ->
      let b = { b with Flow.instrs = b.Flow.instrs @ a.Flow.instrs } in
      let ib = { ib with Flow.instrs = ib.Flow.instrs @ ia.Flow.instrs } in
      let text = Flow.to_string a and md5 = Flow.digest a in
      let img = Isa.encode ia and cmsi = Isa.digest ia in
      let b_text = Flow.to_string b and b_img = Isa.encode ib in
      let b_md5 = Flow.digest b and b_cmsi = Isa.digest ib in
      Flow.to_string a = text && Isa.encode ia = img
      && Flow.digest a = md5 && Isa.digest ia = cmsi
      && b_text = Format.asprintf "%a" Flow.pp b
      && b_md5 = Digest.to_hex (Digest.string b_text)
      && Isa.decode b_img = Ok ib
      && b_cmsi = T_pipeline.cmsi_digest b_img ~words:(Isa.word_count ib))

(* one sink per domain: digests and images taken on two pool workers at
   once equal the serial ones. Each task also prints and encodes a
   program of a few hundred KB, so the workers' sinks grow while the other
   worker writes. *)
let test_digest_on_pool () =
  let rand = Random.State.make [| 25 |] in
  let chunk gen =
    let ps = QCheck.Gen.generate ~rand ~n:8 gen in
    let big = List.hd ps in
    { big with Flow.instrs = List.concat (List.init 400 (fun _ -> big.Flow.instrs)) }
    :: ps
  in
  let texts = List.init 8 (fun _ -> chunk (gen_program ~ints:gen_int_wide ~floats:gen_float_wide)) in
  let images = List.init 8 (fun _ -> chunk T_pipeline.gen_program) in
  let ids (ps, is) =
    ( List.map Flow.digest ps,
      List.map (fun p -> (Isa.digest p, Digest.to_hex (Digest.string (Isa.encode p)))) is )
  in
  let chunks = List.combine texts images in
  let serial = List.map ids chunks in
  let parallel =
    Pool.with_pool ~jobs:2 (fun pool ->
        List.map (fun c -> Pool.submit pool (fun () -> ids c)) chunks |> List.map Pool.await)
  in
  Alcotest.(check (list (pair (list string) (list (pair string string)))))
    "pool digests = serial digests" serial parallel

(* the same identity on what the compiler emits: a CNN whole graph and a
   decoder layer whose text runs to hundreds of KB *)
let test_printer_identity_compiled key w () =
  let e = Option.get (Zoo.find key) in
  let g =
    match e.Zoo.family with
    | Zoo.Cnn -> e.Zoo.build w
    | _ -> (Option.get e.Zoo.layer) w
  in
  let p = (Cmswitch.compile chip g).Cmswitch.program in
  let text = Flow.to_string p in
  Alcotest.(check bool) "to_string = pp" true (Format.asprintf "%a" Flow.pp p = text);
  Alcotest.(check bool) "parse . print = id" true (Parse.program_of_string text = Ok p)

(* Check.run is total: every mutant of a compiled program's text that the
   parser accepts is checked without an exception. A mutant takes one to
   three steps, each a truncation, a byte flip or a splice (a run of lines
   copied to another place). *)
let resnet18_text =
  lazy
    (let e = Option.get (Zoo.find "resnet18") in
     let g = e.Zoo.build (Workload.prefill ~batch:1 1) in
     Flow.to_string (Cmswitch.compile chip g).Cmswitch.program)

let gen_mutant text =
  let open QCheck.Gen in
  let step s =
    let n = String.length s in
    let lines = Array.of_list (String.split_on_char '\n' s) in
    let nl = Array.length lines in
    let sub i k = Array.to_list (Array.sub lines i k) in
    frequency
      [ (1, map (fun k -> String.sub s 0 k) (int_bound n));
        ( 2,
          map2
            (fun i b -> String.mapi (fun j c -> if j = i then Char.chr b else c) s)
            (int_bound (n - 1)) (int_bound 255) );
        ( 3,
          let+ i = int_bound (nl - 1) and+ len = int_range 1 4 and+ j = int_bound nl in
          String.concat "\n" (sub 0 j @ sub i (min len (nl - i)) @ sub j (nl - j)) ) ]
  in
  let rec go k s = if k = 0 then return s else step s >>= go (k - 1) in
  int_range 1 3 >>= fun k -> go k text

let prop_check_total =
  QCheck.Test.make ~name:"check is total on mutated resnet18 text" ~count:300
    (QCheck.make (QCheck.Gen.delay (fun () -> gen_mutant (Lazy.force resnet18_text))))
    (fun text ->
      match Parse.program_of_string text with
      | Error _ -> true
      | Ok p -> (
        match Check.run chip p with
        | (_ : Check.diagnostic list) -> true
        | exception e -> QCheck.Test.fail_reportf "Check.run raised %s" (Printexc.to_string e)))

let qtest = QCheck_alcotest.to_alcotest

let suite =
  ( "metaop",
    [
      Alcotest.test_case "validate accepts good program" `Quick test_validate_ok;
      Alcotest.test_case "validate rejects bad programs" `Quick test_validate_failures;
      Alcotest.test_case "check: structural rules" `Quick test_structural_rules;
      Alcotest.test_case "negative coordinate is a diagnostic" `Quick test_negative_coord;
      Alcotest.test_case "switch accounting" `Quick test_switch_accounting;
      Alcotest.test_case "round-trip manual program" `Quick test_roundtrip_manual;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      qtest prop_roundtrip_random;
      qtest prop_printer_identity;
      qtest prop_digest;
      qtest prop_sink_resets;
      Alcotest.test_case "digests on a 2-worker pool" `Quick test_digest_on_pool;
      qtest prop_check_total;
      Alcotest.test_case "to_string = pp: resnet18" `Quick
        (test_printer_identity_compiled "resnet18" (Workload.prefill ~batch:1 1));
      Alcotest.test_case "to_string = pp: llama2-7b decode layer" `Quick
        (test_printer_identity_compiled "llama2-7b" (Workload.decode ~batch:1 512));
    ] )
