(* Tests for the meta-operator flow: validation of Fig. 13 programs,
   printer/parser round trip, the identity of the Buffer printer with the
   Format printer (on random and compiled programs), and switch
   accounting. *)

module Flow = Cim_metaop.Flow
module Parse = Cim_metaop.Parse
module Check = Cim_metaop.Check
module Chip = Cim_arch.Chip
module Mode = Cim_arch.Mode
module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo
module Cmswitch = Cim_compiler.Cmswitch

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
  Alcotest.(check bool) "valid" true (Flow.validate chip p = Ok ())

let expect_invalid name p =
  match Flow.validate chip p with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: expected validation failure" name

let test_validate_failures () =
  expect_invalid "coord out of range" (prog [ compute ~arrays:[ c 50 50 ] () ]);
  expect_invalid "both modes in one op"
    (prog [ compute ~arrays:[ c 0 0 ] ~mem:[ c 0 0 ] () ]);
  expect_invalid "both modes in one segment"
    (prog
       [ Flow.Parallel
           [ compute ~arrays:[ c 0 0 ] ();
             compute ~arrays:[ c 1 0 ] ~mem:[ c 0 0 ] () ] ]);
  expect_invalid "nested parallel" (prog [ Flow.Parallel [ Flow.Parallel [] ] ]);
  expect_invalid "malformed slice" (prog [ compute ~slice:(sl 4 4) () ]);
  expect_invalid "negative bytes"
    (prog [ Flow.Load { tensor = "x"; src = Flow.Main_memory; dst = Flow.Buffer; bytes = -1 } ])

(* (5,-1) lands on index -7 of dynaplasia's 12-wide grid if y is not
   checked: validation must reject it and Check must report it, not index
   its per-array state out of bounds *)
let test_negative_coord () =
  let p = prog [ compute ~arrays:[ c 5 (-1) ] () ] in
  expect_invalid "negative y" p;
  let want =
    Printf.sprintf "compute op: array (5,-1) outside the %s grid" chip.Chip.name
  in
  Alcotest.(check bool) "check reports the coordinate" true
    (List.exists (fun d -> d.Check.message = want) (Check.errors (Check.run chip p)))

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
    (Parse.program_of_string (Flow.to_string p) = p)

let test_parse_errors () =
  let bad s =
    match Parse.program_of_string s with
    | exception Parse.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error: %s" s
  in
  bad "";
  bad "flow \"x\" CM.switch(SIDEWAYS, [(0,0)])";
  bad "flow \"x\" BOGUS.op(1)";
  bad "flow \"x\" CM.switch(TOM, [(0,0)";
  bad "flow \"\\999\""

(* random programs built from a small combinator grammar: labels and
   sources that need every [%S] escape, negative ints and ints past 2^32,
   signed zeros and subnormals, memory-array locations, empty coordinate
   and input lists, several parallel blocks *)
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

(* past what the parser reads back as an equal program: ints no float
   holds exactly, and floats [=] cannot compare or the lexer cannot read *)
let gen_int_wide = QCheck.Gen.(frequency [ (8, gen_int); (1, oneofl [ max_int; min_int ]) ])

let gen_float_wide =
  QCheck.Gen.(frequency [ (8, gen_float); (1, oneofl [ nan; infinity; neg_infinity ]) ])

let gen_program ~ints ~floats =
  let open QCheck.Gen in
  let label = oneofl labels and name = oneofl [ "a"; "b.c"; "x/y_1"; "t0" ] in
  let coords = list_size (int_range 0 3) (map2 c ints ints) in
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
    (QCheck.make ~print:Flow.to_string (gen_program ~ints:gen_int ~floats:gen_float))
    (fun p -> Parse.program_of_string (Flow.to_string p) = p)

let prop_printer_identity =
  QCheck.Test.make ~name:"to_string = pp on random programs" ~count:300
    (QCheck.make ~print:Flow.to_string
       (gen_program ~ints:gen_int_wide ~floats:gen_float_wide))
    (fun p -> Format.asprintf "%a" Flow.pp p = Flow.to_string p)

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
  Alcotest.(check bool) "parse . print = id" true (Parse.program_of_string text = p)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  ( "metaop",
    [
      Alcotest.test_case "validate accepts good program" `Quick test_validate_ok;
      Alcotest.test_case "validate rejects bad programs" `Quick test_validate_failures;
      Alcotest.test_case "negative coordinate is a diagnostic" `Quick test_negative_coord;
      Alcotest.test_case "switch accounting" `Quick test_switch_accounting;
      Alcotest.test_case "round-trip manual program" `Quick test_roundtrip_manual;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      qtest prop_roundtrip_random;
      qtest prop_printer_identity;
      Alcotest.test_case "to_string = pp: resnet18" `Quick
        (test_printer_identity_compiled "resnet18" (Workload.prefill ~batch:1 1));
      Alcotest.test_case "to_string = pp: llama2-7b decode layer" `Quick
        (test_printer_identity_compiled "llama2-7b" (Workload.decode ~batch:1 512));
    ] )
