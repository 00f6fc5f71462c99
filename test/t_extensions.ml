(* Tests for the extension modules: the energy model, the discrete-event
   pipeline refinement, the greedy allocator baseline, the textual chip
   spec, and the extra zoo models (ViT, GPT-2 XL). *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Energy = Cim_arch.Energy
module Spec = Cim_arch.Spec
module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo
module Opinfo = Cim_compiler.Opinfo
module Alloc = Cim_compiler.Alloc
module Plan = Cim_compiler.Plan
module Segment = Cim_compiler.Segment
module Greedy = Cim_compiler.Greedy
module Pipeline = Cim_compiler.Pipeline
module Cmswitch = Cim_compiler.Cmswitch
module Energy_sim = Cim_sim.Energy_sim

let chip = Config.dynaplasia

(* --- energy profiles --- *)

let test_energy_profiles () =
  Alcotest.(check string) "edram name" "eDRAM" Energy.edram.Energy.profile_name;
  Alcotest.(check bool) "reram writes dear" true
    (Energy.reram.Energy.weight_write_pj_per_byte
    > 10. *. Energy.edram.Energy.weight_write_pj_per_byte);
  Alcotest.(check string) "prime picks reram" "ReRAM"
    (Energy.for_chip Config.prime).Energy.profile_name;
  Alcotest.(check string) "dynaplasia picks edram" "eDRAM"
    (Energy.for_chip chip).Energy.profile_name;
  Alcotest.check_raises "negative component"
    (Invalid_argument "Energy.validate: negative mac_pj") (fun () ->
      ignore (Energy.validate { Energy.edram with Energy.mac_pj = -1. }))

let compiled_mlp =
  lazy (Cmswitch.compile chip (Cim_models.Mlp.build ~batch:1 ~dims:[ 512; 1024; 256 ] ()))

let test_energy_sim_accounting () =
  let r = Lazy.force compiled_mlp in
  let e = Energy_sim.run chip r.Cmswitch.program in
  let b = e.Energy_sim.energy in
  Alcotest.(check bool) "all components non-negative" true
    (b.Energy_sim.mac_uj >= 0. && b.Energy_sim.operand_uj >= 0.
    && b.Energy_sim.weight_uj >= 0. && b.Energy_sim.switch_uj >= 0.
    && b.Energy_sim.static_uj > 0.);
  Alcotest.(check (float 1e-9)) "total is the sum"
    (b.Energy_sim.mac_uj +. b.Energy_sim.operand_uj +. b.Energy_sim.weight_uj
    +. b.Energy_sim.switch_uj +. b.Energy_sim.static_uj)
    b.Energy_sim.total_uj;
  (* MAC energy is exactly mac_pj * total MACs of the program *)
  let total_macs =
    let rec walk acc (i : Cim_metaop.Flow.instr) =
      match i with
      | Cim_metaop.Flow.Parallel is -> List.fold_left walk acc is
      | Cim_metaop.Flow.Compute { macs; _ } -> acc +. macs
      | _ -> acc
    in
    List.fold_left walk 0. r.Cmswitch.program.Cim_metaop.Flow.instrs
  in
  Alcotest.(check (float 1e-9)) "mac energy"
    (Energy.edram.Energy.mac_pj *. total_macs /. 1e6)
    b.Energy_sim.mac_uj;
  Alcotest.(check bool) "EDP consistent" true
    (Float.abs
       (e.Energy_sim.edp_uj_ms
       -. (b.Energy_sim.total_uj *. e.Energy_sim.cycles
           /. (chip.Chip.freq_mhz *. 1e3)))
    < 1e-6 *. e.Energy_sim.edp_uj_ms)

let test_energy_empty_program () =
  let e = Energy_sim.run chip { Cim_metaop.Flow.source = "empty"; instrs = [] } in
  Alcotest.(check (float 0.)) "no dynamic energy" 0.
    (e.Energy_sim.energy.Energy_sim.mac_uj
    +. e.Energy_sim.energy.Energy_sim.operand_uj)

(* --- pipeline DES --- *)

let segment_of g =
  let ops = Opinfo.extract chip g in
  let segments, _ = Segment.run chip ops in
  let seg =
    match List.find_opt (fun (s : Plan.seg_plan) -> s.Plan.hi > s.Plan.lo) segments with
    | Some s -> s
    | None -> List.hd segments
  in
  (ops, seg)

let test_pipeline_lower_bound () =
  let ops, seg = segment_of (Cim_models.Mlp.build ~batch:1 ~dims:[ 512; 512; 512 ] ()) in
  let makespan, events = Pipeline.simulate chip ops seg ~tiles:8 () in
  Alcotest.(check bool) "DES >= Eq. 9 approximation" true
    (makespan >= seg.Plan.intra_cycles -. 1e-9);
  (* with a single tile, a pure chain's makespan is the critical path: the
     sum of per-op latencies *)
  let makespan1, _ = Pipeline.simulate chip ops seg ~tiles:1 () in
  let sum =
    List.fold_left
      (fun acc (a : Plan.op_alloc) -> acc +. Alloc.op_latency chip ops.(a.Plan.uid) a)
      0. seg.Plan.allocs
  in
  Alcotest.(check bool)
    (Printf.sprintf "single tile ~ critical path (%g vs %g)" makespan1 sum)
    true
    (makespan1 <= sum +. 1e-6);
  (* events well-formed *)
  List.iter
    (fun (e : Pipeline.event) ->
      Alcotest.(check bool) "event ordered" true (e.Pipeline.t_finish >= e.Pipeline.t_start))
    events;
  Alcotest.(check int) "one event per (op, tile)"
    (8 * List.length seg.Plan.allocs)
    (List.length events)

let test_pipeline_more_tiles_less_makespan () =
  let ops, seg = segment_of (Cim_models.Mlp.build ~batch:1 ~dims:[ 512; 512; 512 ] ()) in
  let m1, _ = Pipeline.simulate chip ops seg ~tiles:1 () in
  let m8, _ = Pipeline.simulate chip ops seg ~tiles:8 () in
  let m64, _ = Pipeline.simulate chip ops seg ~tiles:64 () in
  Alcotest.(check bool) "finer tiling pipelines better" true (m8 <= m1 +. 1e-9);
  Alcotest.(check bool) "and converges" true (m64 <= m8 +. 1e-9)

let test_pipeline_gantt () =
  let ops, seg = segment_of (Cim_models.Mlp.build ~batch:1 ~dims:[ 512; 512; 512 ] ()) in
  let _, events = Pipeline.simulate chip ops seg ~tiles:4 () in
  let s = Pipeline.gantt events in
  Alcotest.(check bool) "gantt renders rows" true
    (String.length s > 0 && String.contains s '#');
  Alcotest.(check string) "empty gantt" "(empty)\n" (Pipeline.gantt [])

let test_pipeline_validation () =
  let ops, seg = segment_of (Cim_models.Mlp.build ~batch:1 ~dims:[ 64; 64 ] ()) in
  Alcotest.check_raises "bad tiles"
    (Invalid_argument "Pipeline.simulate: tiles must be positive") (fun () ->
      ignore (Pipeline.simulate chip ops seg ~tiles:0 ()))

(* --- greedy allocator --- *)

let test_greedy_feasible_and_dominated () =
  List.iter
    (fun g ->
      let ops = Opinfo.extract chip g in
      let hi = min 3 (Array.length ops - 1) in
      if Opinfo.total_min_arrays ops ~lo:0 ~hi <= chip.Chip.n_arrays then begin
        let gr = Option.get (Greedy.solve chip ops ~lo:0 ~hi) in
        (* feasibility *)
        Alcotest.(check bool) "greedy within capacity" true
          (Plan.arrays_used gr <= chip.Chip.n_arrays);
        List.iter
          (fun (a : Plan.op_alloc) ->
            Alcotest.(check bool) "greedy respects minima" true
              (a.Plan.com >= ops.(a.Plan.uid).Opinfo.min_compute_arrays))
          gr.Plan.allocs;
        (* the exact MIP never loses to the heuristic *)
        let mip = Option.get (Alloc.solve chip ops ~lo:0 ~hi) in
        Alcotest.(check bool)
          (Printf.sprintf "MIP (%g) <= greedy (%g)" mip.Plan.intra_cycles
             gr.Plan.intra_cycles)
          true
          (mip.Plan.intra_cycles <= gr.Plan.intra_cycles *. (1. +. 1e-6))
      end)
    [
      Cim_models.Mlp.build ~batch:1 ~dims:[ 512; 1024; 256 ] ();
      Cim_models.Cnn.tiny_cnn ~batch:1 ();
    ]

let test_greedy_infeasible () =
  let g = (Option.get (Zoo.find "vgg16")).Zoo.build (Workload.prefill ~batch:1 1) in
  let ops = Opinfo.extract chip g in
  let n = Array.length ops in
  let rec find lo hi =
    if hi >= n then None
    else if Opinfo.total_min_arrays ops ~lo ~hi > chip.Chip.n_arrays then Some (lo, hi)
    else find lo (hi + 1)
  in
  match find 0 1 with
  | None -> Alcotest.fail "no oversized window"
  | Some (lo, hi) ->
    Alcotest.(check bool) "greedy rejects oversized" true
      (Greedy.solve chip ops ~lo ~hi = None)

(* --- chip spec --- *)

let test_spec_roundtrip () =
  List.iter
    (fun (_, c) ->
      let c2 = Spec.of_string (Spec.to_string c) in
      Alcotest.(check string) "name" c.Chip.name c2.Chip.name;
      Alcotest.(check int) "arrays" c.Chip.n_arrays c2.Chip.n_arrays;
      Alcotest.(check (float 0.)) "op_cim" c.Chip.op_cim c2.Chip.op_cim;
      Alcotest.(check string) "method" c.Chip.switch_method c2.Chip.switch_method)
    Config.presets

let test_spec_comments_and_errors () =
  let src =
    "# a comment\nchip \"X\" {\n  n_arrays = 4\n  grid_cols = 2\n  rows = 32\n\
     \  cols = 32\n  cell_bits = 1\n  weight_bits = 8\n  buffer_bytes = 1024\n\
     \  internal_bw = 8\n  extern_bw = 8\n  op_cim = 16\n  d_cim = 4\n\
     \  l_m2c = 1\n  l_c2m = 1\n  write_latency = 1\n\
     \  switch_method = \"driver\"  # trailing comment\n  freq_mhz = 100\n}\n"
  in
  let c = Spec.of_string src in
  Alcotest.(check int) "parsed arrays" 4 c.Chip.n_arrays;
  let bad s =
    match Spec.of_string s with
    | exception Spec.Parse_error _ -> ()
    | exception Chip.Invalid_config _ -> ()
    | _ -> Alcotest.failf "expected failure: %s" s
  in
  bad "chip \"X\" {\n}";
  bad "nonsense";
  bad (src ^ "\nn_arrays = 5")

(* --- new zoo models --- *)

let test_vit_compiles () =
  let e = Option.get (Zoo.find "vit-base") in
  let mc = Cmswitch.compile_model chip e (Workload.prefill ~batch:1 196) in
  Alcotest.(check bool) "positive latency" true (mc.Cmswitch.total_cycles > 0.);
  (* the whole ViT graph also shape-infers (patch embedding path) *)
  ignore (Cim_nnir.Shape_infer.infer (e.Zoo.build (Workload.prefill ~batch:2 196)))

let test_gpt2_decodes () =
  let e = Option.get (Zoo.find "gpt2-xl") in
  let cms = (Cmswitch.compile_model chip e (Workload.decode ~batch:1 64)).Cmswitch.total_cycles in
  let mlc =
    Cim_baselines.Baseline.compile_model Cim_baselines.Baseline.Cim_mlc chip e
      (Workload.decode ~batch:1 64)
  in
  Alcotest.(check bool) "CMSwitch wins on GPT-2 decode" true (cms <= mlc *. (1. +. 1e-9))

(* --- serving simulator --- *)

module Serving = Cim_sim.Serving
module Fleet = Cim_sim.Fleet

let test_interpolate () =
  let f = Serving.interpolate [ (0, 0.); (10, 100.) ] in
  Alcotest.(check (float 1e-9)) "midpoint" 50. (f 5);
  Alcotest.(check (float 1e-9)) "left extrapolation" 0. (f (-5));
  Alcotest.(check (float 1e-9)) "right extrapolation" 100. (f 20);
  Alcotest.(check (float 1e-9)) "exact sample" 100. (f 10);
  (* an empty sample list is the constant-zero profile, not an error *)
  Alcotest.(check (float 1e-9)) "empty" 0. (Serving.interpolate [] 0)

let test_serving_fcfs () =
  (* constant costs make the schedule analytic: prefill 10, decode 1 *)
  let profile =
    { Serving.prefill_cycles = (fun _ -> 10.); decode_cycles = (fun _ -> 1.) }
  in
  let trace =
    [ { Serving.arrival = 0.; prompt = 4; output = 5 };
      { Serving.arrival = 0.; prompt = 4; output = 5 } ]
  in
  let s = One_chip.serve profile trace in
  Alcotest.(check int) "completed" 2 s.Fleet.completed;
  (* each request takes 15 cycles; FCFS back to back *)
  Alcotest.(check (float 1e-9)) "makespan" 30. s.Fleet.makespan;
  Alcotest.(check (float 1e-9)) "mean latency" ((15. +. 30.) /. 2.) s.Fleet.mean_latency;
  Alcotest.(check (float 1e-9)) "mean ttft" ((10. +. 25.) /. 2.) s.Fleet.mean_ttft;
  Alcotest.(check int) "tokens" 12 s.Fleet.tokens

let test_serving_idle_gap () =
  let profile =
    { Serving.prefill_cycles = (fun _ -> 10.); decode_cycles = (fun _ -> 0.) }
  in
  let trace =
    [ { Serving.arrival = 0.; prompt = 1; output = 0 };
      { Serving.arrival = 100.; prompt = 1; output = 0 } ]
  in
  let s = One_chip.serve profile trace in
  (* second request starts at its arrival, not at the first one's finish *)
  Alcotest.(check (float 1e-9)) "idle respected" 110. s.Fleet.makespan;
  Alcotest.(check (float 1e-9)) "latencies unqueued" 10. s.Fleet.mean_latency

(* The nearest-rank percentile must use exact rank arithmetic: with the
   naive (p /. 100.) *. n form, 0.95 * 20 evaluates to 19.000000000000004,
   ceil inflates the rank, and p95 on a 20-request trace silently returns
   the maximum instead of the 19th order statistic. Pin the 19/20/21
   boundary, where ceil(0.95 n) crosses a whole number. *)
let test_p95_nearest_rank_boundary () =
  let latencies n = List.init n (fun i -> float_of_int (i + 1)) in
  let p95 n = Cim_util.Stats.percentile_nearest_rank 95. (latencies n) in
  (* n = 19: ceil(18.05) = 19 -> the maximum *)
  Alcotest.(check (float 0.)) "n=19 -> rank 19 (max)" 19. (p95 19);
  (* n = 20: 0.95 * 20 = 19 exactly -> rank 19, NOT the maximum *)
  Alcotest.(check (float 0.)) "n=20 -> rank 19" 19. (p95 20);
  (* n = 21: ceil(19.95) = 20 *)
  Alcotest.(check (float 0.)) "n=21 -> rank 20" 20. (p95 21)

let prop_p95_nearest_rank =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"p95 nearest-rank = ceil(0.95 n)-th order stat"
       ~count:200
       QCheck.(int_range 1 200)
       (fun n ->
         (* sorted 1..n makes the expected order statistic explicit; the
            exact rank is ceil(95 n / 100) computed in integers *)
         let rank = ((95 * n) + 99) / 100 in
         Cim_util.Stats.percentile_nearest_rank 95.
           (List.init n (fun i -> float_of_int (i + 1)))
         = float_of_int rank))

let test_poisson_trace () =
  let rng = Cim_util.Rng.create 5 in
  let trace = Serving.poisson_trace rng ~n:50 ~mean_gap:100. ~prompt:8 ~output:4 in
  Alcotest.(check int) "count" 50 (List.length trace);
  let arrivals = List.map (fun (r : Serving.request) -> r.Serving.arrival) trace in
  let sorted = List.sort compare arrivals in
  Alcotest.(check bool) "monotone arrivals" true (arrivals = sorted);
  let last = List.nth arrivals 49 in
  Alcotest.(check bool) "mean gap plausible" true (last > 1000. && last < 20000.)

let suite =
  ( "extensions",
    [
      Alcotest.test_case "serving interpolation" `Quick test_interpolate;
      Alcotest.test_case "serving FCFS accounting" `Quick test_serving_fcfs;
      Alcotest.test_case "serving idle gaps" `Quick test_serving_idle_gap;
      Alcotest.test_case "poisson trace" `Quick test_poisson_trace;
      Alcotest.test_case "p95 nearest-rank boundary" `Quick
        test_p95_nearest_rank_boundary;
      prop_p95_nearest_rank;
      Alcotest.test_case "energy profiles" `Quick test_energy_profiles;
      Alcotest.test_case "energy accounting" `Quick test_energy_sim_accounting;
      Alcotest.test_case "energy empty program" `Quick test_energy_empty_program;
      Alcotest.test_case "pipeline DES bounds" `Quick test_pipeline_lower_bound;
      Alcotest.test_case "pipeline tiling monotone" `Quick test_pipeline_more_tiles_less_makespan;
      Alcotest.test_case "pipeline gantt" `Quick test_pipeline_gantt;
      Alcotest.test_case "pipeline validation" `Quick test_pipeline_validation;
      Alcotest.test_case "greedy feasible, MIP dominates" `Quick test_greedy_feasible_and_dominated;
      Alcotest.test_case "greedy rejects oversized" `Quick test_greedy_infeasible;
      Alcotest.test_case "chip spec round-trip" `Quick test_spec_roundtrip;
      Alcotest.test_case "chip spec comments/errors" `Quick test_spec_comments_and_errors;
      Alcotest.test_case "ViT compiles" `Slow test_vit_compiles;
      Alcotest.test_case "GPT-2 decode wins" `Slow test_gpt2_decodes;
    ] )
