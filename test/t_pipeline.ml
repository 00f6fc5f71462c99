(* The nanopass pass manager and CMSI, the flow's MMIO command-stream
   encoding: pipeline-as-data equivalence with the driver, per-pass
   validators naming the failing pass (including a functional-sim validator
   closure), pass-list parsing and cache-key fingerprints, encode/decode
   round trips (QCheck and compiled programs), pinned bytes and listings,
   decoder robustness and bracket validation, and the simulator run on the
   program decoded from its bytes, differentially tested against the
   compiled program on resnet18 and a bert-large block at jobs 1 and 4. *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Mode = Cim_arch.Mode
module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo
module Graph = Cim_nnir.Graph
module Tensor = Cim_tensor.Tensor
module Shape = Cim_tensor.Shape
module Rng = Cim_util.Rng
module Store = Cim_cache.Store
module Cmswitch = Cim_compiler.Cmswitch
module Cfg = Cim_compiler.Cmswitch.Config
module Passes = Cim_compiler.Passes
module Ccache = Cim_compiler.Ccache
module Plan = Cim_compiler.Plan
module Flow = Cim_metaop.Flow
module Isa = Cim_metaop.Isa
module Functional = Cim_sim.Functional
module Isa_sim = Cim_sim.Isa_sim

let chip = Config.dynaplasia

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let graph_of key =
  let e = Option.get (Zoo.find key) in
  match e.Zoo.family with
  | Zoo.Cnn -> e.Zoo.build (Workload.prefill ~batch:1 1)
  | _ -> (Option.get e.Zoo.layer) (Workload.prefill ~batch:1 16)

(* a bare environment for driving pipelines by hand, no Cmswitch in sight *)
let env_of ?on_stage () =
  Passes.make_env ?on_stage ~partition_fraction:0.5
    ~seg_options:(Cfg.to_segment_options Cfg.default)
    chip

(* ---- pipeline-as-data equivalence ----------------------------------------- *)

(* driving the default pass list by hand produces the same program bytes as
   the Cmswitch.compile driver — the pipeline really is just data *)
let test_manual_pipeline_equiv () =
  let g = graph_of "resnet18" in
  let r = Cmswitch.compile chip g in
  let st =
    Passes.run_pipeline Passes.default_pipeline
      (Passes.init (env_of ()) g)
  in
  Alcotest.(check string) "same program bytes"
    (Flow.to_string r.Cmswitch.program)
    (Flow.to_string (Passes.program_exn st));
  Alcotest.(check (list string)) "clean diagnostics" []
    (Passes.diagnostics_exn st)

(* a mis-ordered pipeline fails naming the missing artifact's producer *)
let test_misordered_pipeline () =
  let g = graph_of "bert-large" in
  match
    Passes.run_pipeline [ Passes.p_place ] (Passes.init (env_of ()) g)
  with
  | _ -> Alcotest.fail "place without segment should fail"
  | exception Failure m ->
    Alcotest.(check bool) ("names the producing pass: " ^ m) true
      (contains m "segment")

(* ---- per-pass validators (the nanopass discipline) ------------------------ *)

(* a deliberately-broken pass: clobbers the schedule total; its own
   validator (reused from p_schedule) must catch it and name it *)
let test_broken_pass_named () =
  let g = graph_of "bert-large" in
  let clobber =
    {
      Passes.name = "clobber_schedule";
      describe = "deliberately break the schedule total";
      run =
        (fun st ->
          let sched = Passes.schedule_exn st in
          { st with
            Passes.schedule =
              Some { sched with Plan.total_cycles = Float.nan } });
      validate = Passes.p_schedule.Passes.validate;
    }
  in
  let pipeline =
    [ Passes.p_extract; Passes.p_segment; Passes.p_place; Passes.p_schedule;
      clobber; Passes.p_codegen; Passes.p_check ]
  in
  let st0 = Passes.init (env_of ()) g in
  (* validators off: the broken state sails through to codegen *)
  (match Passes.run_pipeline pipeline st0 with
  | _ -> ()
  | exception Passes.Pass_error _ ->
    Alcotest.fail "validators must not run without validate_each");
  match Passes.run_pipeline ~validate_each:true pipeline st0 with
  | _ -> Alcotest.fail "broken pass not caught"
  | exception Passes.Pass_error { pass; reason = _ } ->
    Alcotest.(check string) "failing pass named" "clobber_schedule" pass

(* corrupt codegen output (drop the leading mode switch): the check pass's
   validator rejects the program, naming "check" *)
let test_check_validator_catches_corruption () =
  let g = graph_of "bert-large" in
  let corrupt =
    {
      Passes.name = "drop_first_switch";
      describe = "deliberately drop the program's first mode switch";
      run =
        (fun st ->
          let p = Passes.program_exn st in
          let dropped = ref false in
          let instrs =
            List.filter
              (function
                | Flow.Switch _ when not !dropped ->
                  dropped := true;
                  false
                | _ -> true)
              p.Flow.instrs
          in
          if not !dropped then Alcotest.fail "program has no Switch to drop";
          { st with Passes.program = Some { p with Flow.instrs } });
      validate = None;
    }
  in
  let pipeline =
    [ Passes.p_extract; Passes.p_segment; Passes.p_place; Passes.p_schedule;
      Passes.p_codegen; corrupt; Passes.p_check ]
  in
  match
    Passes.run_pipeline ~validate_each:true pipeline
      (Passes.init (env_of ()) g)
  with
  | _ -> Alcotest.fail "corrupted program not caught"
  | exception Passes.Pass_error { pass; reason } ->
    Alcotest.(check string) "check pass named" "check" pass;
    Alcotest.(check bool) ("reason mentions the validator: " ^ reason) true
      (String.length reason > 0)

(* heavyweight oracle substitution: a codegen validator that actually runs
   the functional simulator on the emitted program *)
let test_functional_sim_validator () =
  let g = graph_of "bert-large" in
  let rng = Rng.create 7 in
  let g' = Graph.with_random_values rng g in
  let inputs =
    List.map
      (fun (n, shape) -> (n, Tensor.rand rng shape ~lo:(-1.) ~hi:1.))
      g'.Graph.graph_inputs
  in
  let sim_validate (st : Passes.state) =
    match
      Functional.run chip ~jobs:1 g' (Passes.program_exn st) ~inputs
    with
    | (_ : Functional.report) -> Ok ()
    | exception Functional.Error m -> Error ("functional sim rejected: " ^ m)
  in
  let codegen_sim =
    { Passes.p_codegen with Passes.validate = Some sim_validate }
  in
  let good =
    [ Passes.p_extract; Passes.p_segment; Passes.p_place; Passes.p_schedule;
      codegen_sim; Passes.p_check ]
  in
  ignore
    (Passes.run_pipeline ~validate_each:true good
       (Passes.init (env_of ()) g'));
  (* now stack the corruption on top: the simulator-backed validator fires *)
  let corrupt =
    {
      codegen_sim with
      Passes.name = "codegen_then_corrupt";
      run =
        (fun st ->
          let st = Passes.p_codegen.Passes.run st in
          let p = Passes.program_exn st in
          { st with
            Passes.program =
              Some { p with Flow.instrs = List.tl p.Flow.instrs } });
    }
  in
  let bad =
    [ Passes.p_extract; Passes.p_segment; Passes.p_place; Passes.p_schedule;
      corrupt; Passes.p_check ]
  in
  match
    Passes.run_pipeline ~validate_each:true bad (Passes.init (env_of ()) g')
  with
  | _ -> Alcotest.fail "sim validator did not catch the corrupted program"
  | exception Passes.Pass_error { pass; _ } ->
    Alcotest.(check string) "corrupting pass named" "codegen_then_corrupt" pass

(* ---- pass-list parsing and fingerprints ----------------------------------- *)

let names ps = List.map (fun p -> p.Passes.name) ps

let test_parse_list () =
  (match Passes.parse_list "default" with
  | Ok ps ->
    Alcotest.(check (list string)) "default token"
      (names Passes.default_pipeline) (names ps)
  | Error m -> Alcotest.fail m);
  (match Passes.parse_list "default, lower_isa" with
  | Ok ps ->
    Alcotest.(check (list string)) "default + lower_isa"
      (names Passes.default_pipeline @ [ "lower_isa" ])
      (names ps)
  | Error m -> Alcotest.fail m);
  (match Passes.parse_list "serial" with
  | Ok ps ->
    Alcotest.(check (list string)) "serial token"
      (names Passes.serial_pipeline) (names ps)
  | Error m -> Alcotest.fail m);
  (match Passes.parse_list "extract,segment,codegen" with
  | Ok ps ->
    Alcotest.(check (list string)) "explicit names"
      [ "extract"; "segment"; "codegen" ] (names ps)
  | Error m -> Alcotest.fail m);
  (match Passes.parse_list "extract,bogus" with
  | Ok _ -> Alcotest.fail "unknown pass accepted"
  | Error m ->
    Alcotest.(check bool) ("error names the pass: " ^ m) true
      (contains m "bogus"));
  match Passes.parse_list " " with
  | Ok _ -> Alcotest.fail "empty list accepted"
  | Error _ -> ()

let test_fingerprint () =
  Alcotest.(check string) "default fingerprint"
    "passes.v1[extract;segment;place;schedule;codegen;check]"
    Passes.default_fingerprint;
  Alcotest.(check string) "fingerprint follows the list"
    "passes.v1[extract;codegen]"
    (Passes.fingerprint [ Passes.p_extract; Passes.p_codegen ]);
  (* the fingerprint is a prog-key line: distinct pipelines, distinct keys *)
  let key passes =
    Ccache.prog_key ~graph_text:"g" ~chip ~faults:None ~config:"c"
      ~passes:(Passes.fingerprint passes) ()
  in
  Alcotest.(check bool) "key embeds the fingerprint" true
    (contains
       (key Passes.default_pipeline)
       Passes.default_fingerprint);
  Alcotest.(check bool) "pipelines key separately" true
    (key Passes.default_pipeline <> key Passes.serial_pipeline)

(* the program tier never replays across pipelines: a custom pass list is a
   cache miss even when the same store already holds the default's program *)
let test_cache_pass_isolation () =
  let store = Store.open_dir (Filename.temp_dir "cmswitch-pipeline" "") in
  let cfg = Cfg.with_cache (Some store) Cfg.default in
  let g = graph_of "bert-large" in
  let r1 = Cmswitch.compile ~config:cfg chip g in
  let r2 = Cmswitch.compile ~config:cfg chip g in
  let c = Store.tier_counters store Ccache.prog_tier in
  Alcotest.(check int) "warm default compile hits" 1 c.Store.hits;
  Alcotest.(check string) "hit replays byte-identically"
    (Flow.to_string r1.Cmswitch.program)
    (Flow.to_string r2.Cmswitch.program);
  let custom =
    match Passes.parse_list "default,lower_isa" with
    | Ok ps -> ps
    | Error m -> Alcotest.fail m
  in
  let r3 = Cmswitch.compile ~config:cfg ~passes:custom chip g in
  let c' = Store.tier_counters store Ccache.prog_tier in
  Alcotest.(check int) "custom pipeline cannot replay the default's entry" 1
    c'.Store.hits;
  Alcotest.(check bool) "custom pipeline missed" true
    (c'.Store.misses > c.Store.misses);
  Alcotest.(check string) "same program out of either pipeline"
    (Flow.to_string r1.Cmswitch.program)
    (Flow.to_string r3.Cmswitch.program)

(* ---- ISA encode / decode -------------------------------------------------- *)

let gen_coord =
  QCheck.Gen.(map2 (fun x y -> { Chip.x; y }) (int_range 0 300) (int_range 0 300))

let gen_name = QCheck.Gen.(oneofl [ ""; "x"; "attn_qkv"; "t"; "a b"; "出力" ])

let gen_location =
  QCheck.Gen.(
    frequency
      [ (2, return Flow.Main_memory);
        (2, return Flow.Buffer);
        (1, map (fun cs -> Flow.Mem_arrays cs) (list_size (int_range 0 4) gen_coord)) ])

let gen_bytes =
  (* spans the 32-bit boundary so the i64 split is exercised *)
  QCheck.Gen.(
    oneof
      [ int_range 0 100_000;
        map (fun k -> (1 lsl 33) + k) (int_range 0 1_000_000) ])

let gen_float =
  QCheck.Gen.(
    map2 (fun m e -> float_of_int m *. (2. ** float_of_int e))
      (int_range (-1000000) 1000000) (int_range (-20) 40))

let gen_instr =
  QCheck.Gen.(
    frequency
      [ ( 2,
          map2
            (fun t arrays -> Flow.Switch { target = t; arrays })
            (oneofl [ Mode.To_compute; Mode.To_memory ])
            (list_size (int_range 1 5) gen_coord) );
        ( 2,
          map
            (fun (((label, node_id), (arrays, (lo, w))), (bytes, in_place)) ->
              Flow.Write_weights
                { label; node_id; arrays; slice = { Flow.lo; hi = lo + w };
                  bytes; in_place })
            (pair
               (pair (pair gen_name (int_range (-3) 100000))
                  (pair (list_size (int_range 1 4) gen_coord)
                     (pair (int_range 0 5000) (int_range 1 5000))))
               (pair gen_bytes bool)) );
        ( 2,
          map
            (fun (tensor, (src, (dst, bytes))) ->
              Flow.Load { tensor; src; dst; bytes })
            (pair gen_name (pair gen_location (pair gen_location gen_bytes))) );
        ( 2,
          map
            (fun (tensor, (src, (dst, bytes))) ->
              Flow.Store { tensor; src; dst; bytes })
            (pair gen_name (pair gen_location (pair gen_location gen_bytes))) );
        ( 3,
          map
            (fun (((label, node_id), (arrays, mem_arrays)),
                  ((inputs, output), ((lo, w), (macs, ai)))) ->
              Flow.Compute
                { label; node_id; arrays; mem_arrays; inputs; output;
                  slice = { Flow.lo; hi = lo + w }; macs; ai })
            (pair
               (pair (pair gen_name (int_range (-3) 100000))
                  (pair (list_size (int_range 1 4) gen_coord)
                     (list_size (int_range 0 3) gen_coord)))
               (pair
                  (pair (list_size (int_range 0 3) gen_name) gen_name)
                  (pair (pair (int_range 0 5000) (int_range 1 5000))
                     (pair gen_float gen_float)))) );
        ( 2,
          map
            (fun ((label, node_id), (inputs, output)) ->
              Flow.Vector_op { label; node_id; inputs; output })
            (pair (pair gen_name (int_range (-3) 100000))
               (pair (list_size (int_range 0 4) gen_name) gen_name)) ) ])

(* well-formed programs: top-level instructions and Parallel blocks (empty
   ones too) of instructions; about half the programs hold no block *)
let gen_program =
  QCheck.Gen.(
    let block = map (fun is -> Flow.Parallel is) (list_size (int_range 0 6) gen_instr) in
    let* blocks = bool in
    let item = if blocks then frequency [ (4, gen_instr); (1, block) ] else gen_instr in
    map2
      (fun source instrs -> { Flow.source; instrs })
      gen_name
      (list_size (int_range 0 24) item))

let prop_encode_decode =
  QCheck.Test.make ~name:"decode . encode = id on random images" ~count:300
    (QCheck.make ~print:Flow.to_string gen_program)
    (fun p -> Isa.decode (Isa.encode p) = Ok p)

(* [Isa.digest]'s definition on an image of [words] command words: the
   MD5 of the MD5s of its head (up to and including the word count) and
   of its command words *)
let cmsi_digest img ~words =
  let n = String.length img and w = 4 * words in
  Digest.to_hex
    (Digest.string
       (Digest.string (String.sub img 0 (n - w)) ^ Digest.string (String.sub img (n - w) w)))

let prop_digest_definition =
  QCheck.Test.make ~name:"digest = MD5 of the image's two part MD5s" ~count:300
    (QCheck.make ~print:Flow.to_string gen_program)
    (fun p -> Isa.digest p = cmsi_digest (Isa.encode p) ~words:(Isa.word_count p))

(* one instruction of each kind that carries a byte count *)
let byte_count_instrs bytes =
  let sl = { Flow.lo = 0; hi = 4 } and at = [ { Chip.x = 0; y = 0 } ] in
  [ ( "WRITE",
      Flow.Write_weights
        { label = "w"; node_id = 0; arrays = at; slice = sl; bytes; in_place = false } );
    ("DMA_LOAD", Flow.Load { tensor = "t"; src = Flow.Main_memory; dst = Flow.Buffer; bytes });
    ("DMA_STORE", Flow.Store { tensor = "t"; src = Flow.Buffer; dst = Flow.Main_memory; bytes }) ]

let one i = { Flow.source = "neg"; instrs = [ i ] }

let test_compiled_round_trips () =
  List.iter
    (fun key ->
      let g = graph_of key in
      let p = (Cmswitch.compile chip g).Cmswitch.program in
      (match Isa.decode (Isa.encode p) with
      | Ok p' -> Alcotest.(check bool) (key ^ ": decode . encode = id") true (p' = p)
      | Error m -> Alcotest.failf "%s: decode failed: %s" key m);
      Alcotest.(check bool) (key ^ ": non-trivial stream") true
        (Isa.cmd_count p > 0 && Isa.word_count p > Isa.cmd_count p))
    [ "resnet18"; "bert-large" ];
  (* a negative byte count cannot be encoded *)
  List.iter
    (fun (what, i) ->
      match Isa.encode (one i) with
      | _ -> Alcotest.failf "encode accepted a %s of -5 bytes" what
      | exception Invalid_argument _ -> ())
    (byte_count_instrs (-5))

(* The CMSI bytes and listing of three compiled programs, pinned: MD5 of
   the encoded stream and of the disassembly, the command, word and byte
   counts, and the program's [Isa.digest]. Any change to the codec, the
   listing format or the digest moves one. *)
let cmsi_pins =
  [ ( "resnet18", Workload.prefill ~batch:1 1,
      ("4fe9862e78a1b79d3e3ee502c57ae649", "3e417ee5b5183c8505c70457f086a622", 226, 4820, 21094),
      "911e7b5f293e6ebe01c7de69cbd1e9bf" );
    ( "llama2-7b", Workload.decode ~batch:1 64,
      ("a4d8931e27df6233b1a2f631202d7dba", "af908ded403e0e811728777fb388d1f3", 2202, 58230, 242629),
      "5508ca556a43020ce247245fa38c91d6" );
    ( "bert-large", Workload.prefill ~batch:1 16,
      ("2bdb3e9a6943d4d3b6306f546f515d2f", "556098b898565b56b4f627baa5649787", 202, 5581, 23774),
      "71cf66f81bd12b5138e9a4c44511afbc" ) ]

let test_cmsi_pins () =
  List.iter
    (fun (key, w, (enc, listing, cmds, words, nbytes), cmsi) ->
      let mc =
        Cmswitch.compile_model ~config:Cfg.(default |> with_jobs 1) chip
          (Option.get (Zoo.find key)) w
      in
      let r = Option.get (match mc.Cmswitch.whole with Some r -> Some r | None -> mc.Cmswitch.layer) in
      let p = r.Cmswitch.program in
      let bytes = Isa.encode p in
      let md5 s = Digest.to_hex (Digest.string s) in
      Alcotest.(check (pair (pair string string) (pair (pair int int) int)))
        key
        ((enc, listing), ((cmds, words), nbytes))
        ( (md5 bytes, md5 (Isa.disassemble p)),
          ((Isa.cmd_count p, Isa.word_count p), String.length bytes) );
      Alcotest.(check string) (key ^ ": Isa.digest") cmsi (Isa.digest p))
    cmsi_pins

let test_decoder_robustness () =
  let reject what s =
    match Isa.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "decoder accepted %s" what
  in
  reject "empty input" "";
  reject "bad magic" "XXXX\x01\x00\x00\x00";
  reject "truncated header" "CMSI\x01";
  let g = graph_of "bert-large" in
  let r = Cmswitch.compile chip g in
  let bytes = Isa.encode r.Cmswitch.program in
  (* every proper prefix must be an Error, never an exception *)
  List.iter
    (fun frac ->
      let n = String.length bytes * frac / 100 in
      reject
        (Printf.sprintf "truncation at %d%%" frac)
        (String.sub bytes 0 n))
    [ 10; 50; 99 ];
  (* an unsupported version: corrupt the version word *)
  let b = Bytes.of_string bytes in
  Bytes.set b 4 '\xff';
  reject "bad version" (Bytes.to_string b);
  (* a byte count whose high word has its sign bit set decodes negative,
     one whose high word is 0x4000_0000 is past max_int: both an Error.
     WRITE ends in the count's two words and the in-place flag, a DMA
     command in the count's two words. *)
  List.iter
    (fun (what, i) ->
      List.iter
        (fun (hi, kind) ->
          let b = Bytes.of_string (Isa.encode (one i)) in
          let tail = match i with Flow.Write_weights _ -> 12 | _ -> 8 in
          Bytes.set_int32_le b (Bytes.length b - tail) hi;
          reject (Printf.sprintf "%s with a %s byte count" what kind) (Bytes.to_string b))
        [ (0xffff_ffffl, "negative"); (0x4000_0000l, "past-max_int") ])
    (byte_count_instrs 5)

(* a CMSI stream of the given command words: version 1, an empty source
   name and an empty string table *)
let stream words =
  let b = Buffer.create 64 in
  List.iter
    (fun w -> Buffer.add_int32_le b (Int32.of_int w))
    ([ 1; 0; 0; List.length words ] @ words);
  "CMSI" ^ Buffer.contents b

let test_bracket_validation () =
  (* SWITCH to compute mode on array (0,0): four words *)
  let sw = [ 1; 1; 1; 0 ] and par_begin n = [ 7; n ] and par_end = [ 8 ] in
  let switch = Flow.Switch { target = Mode.To_compute; arrays = [ { Chip.x = 0; y = 0 } ] } in
  Alcotest.(check bool) "a well-formed block decodes" true
    (Isa.decode (stream (par_begin 1 @ sw @ par_end))
     = Ok { Flow.source = ""; instrs = [ Flow.Parallel [ switch ] ] });
  List.iter
    (fun (what, words, says) ->
      match Isa.decode (stream words) with
      | Error m -> Alcotest.(check bool) (what ^ ": " ^ m) true (contains m says)
      | Ok _ -> Alcotest.failf "decoder accepted %s" what)
    [ ("a stray PAR_END", sw @ par_end, "without PAR_BEGIN");
      ("an unclosed PAR_BEGIN", par_begin 1 @ sw, "never closed");
      ("a PAR_BEGIN count above its block's length", par_begin 2 @ sw @ par_end, "announces 2");
      ("a PAR_BEGIN count below its block's length", par_begin 0 @ sw @ par_end, "announces 0");
      ("a PAR_BEGIN inside a block", par_begin 1 @ par_begin 0 @ par_end @ par_end,
       "inside the block") ];
  let nested =
    { Flow.source = "n";
      instrs = [ Flow.Parallel [ Flow.Parallel [] ] ] }
  in
  match Isa.encode nested with
  | _ -> Alcotest.fail "nested Parallel encoded"
  | exception Invalid_argument _ -> ()

(* ---- the simulator on decoded programs ------------------------------------ *)

(* the differential contract of the encoding: the program decoded from its
   bytes is the compiled program, and running it at jobs 4 gives the same
   digest (outputs + instruction and switch counters) as the compiled
   program at jobs 1. A jobs-1 run of the decoded program would repeat the
   reference run: [Isa_sim.run] is [Functional.run]. *)
let test_machine_differential key () =
  let g = graph_of key in
  let r = Cmswitch.compile chip g in
  let rng = Rng.create 42 in
  let g' = Graph.with_random_values rng g in
  let inputs =
    List.map
      (fun (n, shape) -> (n, Tensor.rand rng shape ~lo:(-1.) ~hi:1.))
      g'.Graph.graph_inputs
  in
  let decoded =
    match Isa.decode (Isa.encode r.Cmswitch.program) with
    | Ok p -> p
    | Error e -> Alcotest.failf "%s: encoded stream does not decode: %s" key e
  in
  let reference =
    Functional.digest (Functional.run chip ~jobs:1 g' r.Cmswitch.program ~inputs)
  in
  Alcotest.(check bool) (key ^ ": decoded program = compiled program") true
    (decoded = r.Cmswitch.program);
  Alcotest.(check string) (key ^ ": machine sim = functional sim (jobs=4)")
    reference
    (Functional.digest (Isa_sim.run chip ~jobs:4 g' decoded ~inputs))

(* the machine sim inherits the fault model: a stream that computes on an
   array the program never switched must be rejected *)
let test_machine_rejects_corrupt_stream () =
  let g = graph_of "bert-large" in
  let r = Cmswitch.compile chip g in
  let rng = Rng.create 42 in
  let g' = Graph.with_random_values rng g in
  let inputs =
    List.map
      (fun (n, shape) -> (n, Tensor.rand rng shape ~lo:(-1.) ~hi:1.))
      g'.Graph.graph_inputs
  in
  let p = r.Cmswitch.program in
  (* drop the leading SWITCH: every compute now runs on arrays in the
     wrong mode, which the entry check or the machine model must reject *)
  let corrupt = { p with Flow.instrs = List.tl p.Flow.instrs } in
  match Isa_sim.run chip ~jobs:1 g' corrupt ~inputs with
  | _ -> Alcotest.fail "corrupt command stream accepted"
  | exception Functional.Error _ -> ()
  | exception Cim_sim.Machine.Fault _ -> ()

let qtest = QCheck_alcotest.to_alcotest

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "manual default pipeline = compile driver" `Quick
        test_manual_pipeline_equiv;
      Alcotest.test_case "mis-ordered pipeline names the producer" `Quick
        test_misordered_pipeline;
      Alcotest.test_case "broken pass caught and named" `Quick
        test_broken_pass_named;
      Alcotest.test_case "check validator catches corrupt codegen" `Quick
        test_check_validator_catches_corruption;
      Alcotest.test_case "functional sim as a pass validator" `Quick
        test_functional_sim_validator;
      Alcotest.test_case "parse_list" `Quick test_parse_list;
      Alcotest.test_case "pass fingerprints and prog keys" `Quick
        test_fingerprint;
      Alcotest.test_case "cache isolation across pipelines" `Quick
        test_cache_pass_isolation;
      qtest prop_encode_decode;
      qtest prop_digest_definition;
      Alcotest.test_case "compiled programs round trip" `Quick
        test_compiled_round_trips;
      Alcotest.test_case "CMSI bytes and listings pinned" `Quick test_cmsi_pins;
      Alcotest.test_case "decoder robustness" `Quick test_decoder_robustness;
      Alcotest.test_case "bracket validation" `Quick test_bracket_validation;
      Alcotest.test_case "machine sim = functional sim: resnet18" `Quick
        (test_machine_differential "resnet18");
      Alcotest.test_case "machine sim = functional sim: bert-large block"
        `Quick
        (test_machine_differential "bert-large");
      Alcotest.test_case "machine sim rejects corrupt streams" `Quick
        test_machine_rejects_corrupt_stream;
    ] )
