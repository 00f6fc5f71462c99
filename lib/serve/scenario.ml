module Chip = Cim_arch.Chip
module Faultmap = Cim_arch.Faultmap
module Zoo = Cim_models.Zoo
module Workload = Cim_models.Workload
module Cmswitch = Cim_compiler.Cmswitch
module Bucket = Cim_compiler.Bucket
module Plan = Cim_compiler.Plan
module Fleet = Cim_sim.Fleet
module Serving = Cim_sim.Serving
module Telemetry = Cim_obs.Telemetry
module Json = Cim_obs.Json

type block = { graph : Cim_nnir.Graph.t; layers : float }

let block (e : Zoo.entry) w =
  match e.Zoo.layer with
  | Some build_layer ->
    { graph = build_layer w; layers = float_of_int e.Zoo.n_layers }
  | None -> { graph = e.Zoo.build w; layers = 1. }

let pass_cycles b (r : Cmswitch.result) =
  r.Cmswitch.schedule.Plan.total_cycles *. b.layers

let flat_profile pass =
  { Serving.prefill_cycles = (fun _ -> pass); decode_cycles = (fun _ -> pass) }

let bucketed_profile ?telemetry ~config chip e ~batch b =
  let config = Cmswitch.Config.with_buckets (Some b) config in
  let compile_clock = ref 0. in
  let price w =
    let mc = Cmswitch.compile_model ~config chip e w in
    let dur = mc.Cmswitch.compile_seconds *. chip.Chip.freq_mhz *. 1e6 in
    (match telemetry with
    | Some t ->
      Telemetry.span t ~lane:"compile" ~ts:!compile_clock ~dur
        ~attrs:
          [ ("ceiling",
             Json.Int (Workload.context_len mc.Cmswitch.padded_workload));
            ("workload", Json.String (Workload.to_string w)) ]
        "bucket_compile"
    | None -> ());
    compile_clock := !compile_clock +. dur;
    mc.Cmswitch.total_cycles
  in
  Serving.bucketed_profile ~ceiling:(Bucket.ceiling b)
    ~prefill_cycles:(fun s -> price (Workload.prefill ~batch s))
    ~decode_cycles:(fun kv -> price (Workload.decode ~batch kv))

let planner ?healthy ?budget_seconds ~config chip b : Fleet.planner =
 fun ~chip:_ ~faults ->
  let no_faults = Faultmap.fault_count faults = 0 in
  let config =
    if no_faults then config
    else Cmswitch.Config.with_faults (Some faults) config
  in
  match Cmswitch.recompile ~config ?budget_seconds chip b.graph with
  | Ok o ->
    let profile =
      match healthy with
      | Some p when no_faults -> p
      | _ -> flat_profile (pass_cycles b o.Cmswitch.rc_result)
    in
    Some { Fleet.level = o.Cmswitch.rc_level; profile }
  | Error _ -> None

let fleet_config ~pass =
  { Fleet.default_config with
    Fleet.backoff_base = 0.25 *. pass;
    backoff_cap = 4. *. pass;
    recompile_cycles = pass }

let drift chip (r : Cmswitch.result) =
  let sched = r.Cmswitch.schedule in
  Cim_sim.Drift.attribute
    { Cim_sim.Drift.source = sched.Plan.compiler;
      seg_intra = List.map (fun s -> s.Plan.intra_cycles) sched.Plan.segments;
      intra = sched.Plan.intra;
      switch = sched.Plan.switch;
      rewrite = sched.Plan.rewrite;
      writeback = sched.Plan.writeback;
      total = sched.Plan.total_cycles }
    (Cim_sim.Timing.run chip r.Cmswitch.program)
