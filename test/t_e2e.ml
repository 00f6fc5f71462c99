(* End-to-end compiler tests: the full CMSwitch pipeline and the baseline
   compilers over real benchmarks, checking the relationships the paper's
   evaluation depends on (dominance ordering, convergence to CIM-MLC,
   block-reuse consistency, and flow well-formedness). *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo
module Cmswitch = Cim_compiler.Cmswitch
module Segment = Cim_compiler.Segment
module Alloc = Cim_compiler.Alloc
module Plan = Cim_compiler.Plan
module Baseline = Cim_baselines.Baseline
module Flow = Cim_metaop.Flow
module Check = Cim_metaop.Check

let chip = Config.dynaplasia

let restricted_config = Cmswitch.Config.(with_force_all_compute true default)

let bench_cases =
  [
    ("mobilenetv2", Workload.prefill ~batch:1 1);
    ("resnet18", Workload.prefill ~batch:1 1);
    ("bert-large", Workload.prefill ~batch:1 64);
    ("llama2-7b", Workload.decode ~batch:1 64);
    ("opt-13b", Workload.decode ~batch:1 64);
  ]

let test_flows_validate () =
  List.iter
    (fun (key, w) ->
      let e = Option.get (Zoo.find key) in
      let g = match e.Zoo.layer with Some f -> f w | None -> e.Zoo.build w in
      let r = Cmswitch.compile chip g in
      Alcotest.(check bool) (key ^ " flow validates") true
        (Check.is_valid (Check.run chip r.Cmswitch.program));
      Alcotest.(check bool) (key ^ " has switches") true
        (Flow.count_switches r.Cmswitch.program > 0);
      Alcotest.(check bool) (key ^ " positive latency") true
        (r.Cmswitch.schedule.Plan.total_cycles > 0.))
    bench_cases

let test_cmswitch_dominates_baselines () =
  List.iter
    (fun (key, w) ->
      let e = Option.get (Zoo.find key) in
      let cms = (Cmswitch.compile_model chip e w).Cmswitch.total_cycles in
      List.iter
        (fun which ->
          let b = Baseline.compile_model which chip e w in
          Alcotest.(check bool)
            (Printf.sprintf "%s: CMSwitch (%.3e) <= %s (%.3e)" key cms
               (Baseline.name which) b)
            true
            (cms <= b *. (1. +. 1e-9)))
        [ Baseline.Cim_mlc; Baseline.Puma; Baseline.Occ ])
    bench_cases

let test_baseline_ordering () =
  (* CIM-MLC (cost-aware DP) never loses to OCC (serial greedy) *)
  List.iter
    (fun (key, w) ->
      let e = Option.get (Zoo.find key) in
      let mlc = Baseline.compile_model Baseline.Cim_mlc chip e w in
      let occ = Baseline.compile_model Baseline.Occ chip e w in
      Alcotest.(check bool)
        (Printf.sprintf "%s: CIM-MLC (%.3e) <= OCC (%.3e)" key mlc occ)
        true (mlc <= occ *. (1. +. 1e-9)))
    bench_cases

let test_restricted_equals_cim_mlc () =
  (* CMSwitch with the all-compute restriction IS the CIM-MLC baseline *)
  let e = Option.get (Zoo.find "bert-large") in
  let w = Workload.prefill ~batch:1 32 in
  let g = (Option.get e.Zoo.layer) w in
  let restricted = Cmswitch.compile ~config:restricted_config chip g in
  let mlc = Baseline.compile Baseline.Cim_mlc chip g in
  Alcotest.(check bool) "identical totals" true
    (Float.abs
       (restricted.Cmswitch.schedule.Plan.total_cycles -. mlc.Plan.total_cycles)
     <= 1e-6 *. mlc.Plan.total_cycles);
  (* and it uses no memory arrays *)
  Alcotest.(check (float 0.)) "no memory mode" 0.
    (Cmswitch.memory_mode_ratio restricted)

let test_memory_ratio_range () =
  List.iter
    (fun (key, w) ->
      let e = Option.get (Zoo.find key) in
      let mc = Cmswitch.compile_model chip e w in
      Alcotest.(check bool) (key ^ " ratio in [0,1)") true
        (mc.Cmswitch.mem_ratio >= 0. && mc.Cmswitch.mem_ratio < 1.))
    bench_cases

let test_block_reuse_consistency () =
  (* compile_model's block-reuse total = n_layers * layer + head *)
  let e = Option.get (Zoo.find "bert-large") in
  let w = Workload.prefill ~batch:1 32 in
  let mc = Cmswitch.compile_model chip e w in
  match (mc.Cmswitch.layer, mc.Cmswitch.head) with
  | Some layer, Some head ->
    let expect =
      (float_of_int e.Zoo.n_layers *. layer.Cmswitch.schedule.Plan.total_cycles)
      +. head.Cmswitch.schedule.Plan.total_cycles
    in
    Alcotest.(check (float 1e-6)) "replicated total" expect mc.Cmswitch.total_cycles
  | _ -> Alcotest.fail "expected layer and head results"

let test_cnn_compiles_whole () =
  let e = Option.get (Zoo.find "mobilenetv2") in
  let mc = Cmswitch.compile_model chip e (Workload.prefill ~batch:1 1) in
  Alcotest.(check bool) "whole-graph result" true (mc.Cmswitch.whole <> None);
  Alcotest.(check bool) "no layer result" true (mc.Cmswitch.layer = None)

let test_prime_preset_compiles () =
  let chip = Config.prime in
  let e = Option.get (Zoo.find "bert-large") in
  let w = Workload.prefill ~batch:1 64 in
  let cms = (Cmswitch.compile_model chip e w).Cmswitch.total_cycles in
  let mlc = Baseline.compile_model Baseline.Cim_mlc chip e w in
  Alcotest.(check bool) "PRIME: CMSwitch <= CIM-MLC" true (cms <= mlc *. (1. +. 1e-9))

let test_speedup_band_fig14 () =
  (* the headline result: geomean speedup over CIM-MLC across the Fig. 14
     benchmarks must sit in the paper's band (paper: 1.31x; we accept
     1.1-1.6) and every model must be >= 1.0 *)
  let speedups =
    List.map
      (fun (key, w) ->
        let e = Option.get (Zoo.find key) in
        let cms = (Cmswitch.compile_model chip e w).Cmswitch.total_cycles in
        let mlc = Baseline.compile_model Baseline.Cim_mlc chip e w in
        mlc /. cms)
      bench_cases
  in
  List.iter
    (fun s -> Alcotest.(check bool) "each >= 1.0" true (s >= 1. -. 1e-9))
    speedups;
  let geo = Cim_util.Stats.geomean speedups in
  Alcotest.(check bool)
    (Printf.sprintf "geomean %.2f in [1.1, 1.6]" geo)
    true
    (geo >= 1.1 && geo <= 1.6)

let test_bert_memory_ratio_decays () =
  (* Fig. 16's last row: the memory-mode ratio goes to ~zero as sequence
     length (arithmetic intensity) grows *)
  let e = Option.get (Zoo.find "bert-large") in
  let ratio seq =
    (Cmswitch.compile_model chip e (Workload.prefill ~batch:4 seq)).Cmswitch.mem_ratio
  in
  let short = ratio 32 and long_ = ratio 2048 in
  Alcotest.(check bool)
    (Printf.sprintf "ratio decays (%.3f -> %.3f)" short long_)
    true
    (long_ < short /. 2.)

let test_in_place_kv_switch () =
  (* §5.3: on decode workloads the K projection's output buffers are
     claimed in place by the attention matmul — no weight reprogramming *)
  let e = Option.get (Zoo.find "llama2-7b") in
  let g = (Option.get e.Zoo.layer) (Workload.decode ~batch:1 512) in
  let r = Cmswitch.compile chip g in
  let claims =
    List.concat_map
      (fun (sp : Cim_compiler.Placement.seg_place) ->
        List.concat_map
          (fun (op : Cim_compiler.Placement.op_place) ->
            op.Cim_compiler.Placement.in_place)
          sp.Cim_compiler.Placement.ops)
      r.Cmswitch.places
  in
  Alcotest.(check bool) "at least one in-place claim" true (claims <> []);
  (* in-place arrays appear in their op's compute list too *)
  List.iter
    (fun (sp : Cim_compiler.Placement.seg_place) ->
      List.iter
        (fun (op : Cim_compiler.Placement.op_place) ->
          List.iter
            (fun c ->
              Alcotest.(check bool) "in_place subset of compute" true
                (List.mem c op.Cim_compiler.Placement.compute))
            op.Cim_compiler.Placement.in_place)
        sp.Cim_compiler.Placement.ops)
      r.Cmswitch.places;
  (* the flow still validates and the timing simulator agrees *)
  Alcotest.(check bool) "flow valid" true
    (Check.is_valid (Check.run chip r.Cmswitch.program));
  let t = Cim_sim.Timing.run chip r.Cmswitch.program in
  let sim = t.Cim_sim.Timing.cycles.Cim_sim.Timing.total in
  let total = r.Cmswitch.schedule.Plan.total_cycles in
  Alcotest.(check bool) "timing ~ schedule (within the wb estimate)" true
    (sim <= total +. 1e-6 *. total
     && total <= sim +. r.Cmswitch.schedule.Plan.writeback +. 1e-6 *. total)

let test_compile_deterministic () =
  let g = Cim_models.Mlp.build ~batch:1 ~dims:[ 512; 512; 128 ] () in
  let a = Cmswitch.compile chip g and b = Cmswitch.compile chip g in
  Alcotest.(check (float 0.)) "same cycles"
    a.Cmswitch.schedule.Plan.total_cycles b.Cmswitch.schedule.Plan.total_cycles;
  Alcotest.(check bool) "same program" true
    (a.Cmswitch.program = b.Cmswitch.program)

let suite =
  ( "end-to-end",
    [
      Alcotest.test_case "flows validate" `Slow test_flows_validate;
      Alcotest.test_case "CMSwitch dominates baselines" `Slow
        test_cmswitch_dominates_baselines;
      Alcotest.test_case "baseline ordering" `Slow test_baseline_ordering;
      Alcotest.test_case "restricted CMSwitch = CIM-MLC" `Quick
        test_restricted_equals_cim_mlc;
      Alcotest.test_case "memory ratio in range" `Slow test_memory_ratio_range;
      Alcotest.test_case "block-reuse consistency" `Quick test_block_reuse_consistency;
      Alcotest.test_case "CNNs compile whole" `Quick test_cnn_compiles_whole;
      Alcotest.test_case "PRIME preset compiles" `Quick test_prime_preset_compiles;
      Alcotest.test_case "Fig. 14 speedup band" `Slow test_speedup_band_fig14;
      Alcotest.test_case "Fig. 16 ratio decay" `Slow test_bert_memory_ratio_decays;
      Alcotest.test_case "in-place KV switch (§5.3)" `Quick test_in_place_kv_switch;
      Alcotest.test_case "compilation deterministic" `Quick test_compile_deterministic;
    ] )
