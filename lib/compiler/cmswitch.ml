module Chip = Cim_arch.Chip
module Faultmap = Cim_arch.Faultmap
module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo
module B = Cim_nnir.Builder
module Shape = Cim_tensor.Shape
module Trace = Cim_obs.Trace
module Metrics = Cim_obs.Metrics
module J = Cim_obs.Json
module Store = Cim_cache.Store

let log_src = Logs.Src.create "cmswitch" ~doc:"CMSwitch compilation pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Config = struct
  type t = {
    partition_fraction : float;
    max_segment_ops : int;
    jobs : int;
    milp_max_nodes : int;
    refine : bool;
    force_all_compute : bool;
    buckets : Bucket.t option;
    faults : Faultmap.t option;
    cache : Store.t option;
  }

  let default =
    let { Segment.alloc; max_segment_ops; jobs; cache } =
      Segment.default_options
    in
    let { Alloc.milp_max_nodes; refine; force_all_compute } = alloc in
    { partition_fraction = 0.5; max_segment_ops; jobs; milp_max_nodes;
      refine; force_all_compute; buckets = None; faults = None; cache }

  let with_partition_fraction v t = { t with partition_fraction = v }
  let with_max_segment_ops v t = { t with max_segment_ops = v }
  let with_jobs v t = { t with jobs = v }
  let with_milp_max_nodes v t = { t with milp_max_nodes = v }
  let with_refine v t = { t with refine = v }
  let with_force_all_compute v t = { t with force_all_compute = v }
  let with_buckets v t = { t with buckets = v }
  let with_faults v t = { t with faults = v }
  let with_cache v t = { t with cache = v }

  let to_alloc_options t =
    {
      Alloc.milp_max_nodes = t.milp_max_nodes;
      refine = t.refine;
      force_all_compute = t.force_all_compute;
    }

  let to_segment_options t =
    {
      Segment.alloc = to_alloc_options t;
      max_segment_ops = t.max_segment_ops;
      jobs = t.jobs;
      cache = t.cache;
    }

  (* The cache-key serialisation: every semantic field in fixed order,
     floats as exact binary64 hex. Excluded by design: [jobs] (pure
     execution strategy under the byte-identical determinism contract),
     [faults] (a separate key component, see Ccache.prog_key) and [cache]
     (plumbing, not semantics). *)
  let canonical t =
    Printf.sprintf
      "cmswitch.config.v4{partition_fraction=%h;max_segment_ops=%d;milp_max_nodes=%d;refine=%b;force_all_compute=%b;buckets=%s}"
      t.partition_fraction t.max_segment_ops t.milp_max_nodes
      t.refine t.force_all_compute
      (match t.buckets with
      | None -> "none"
      | Some b -> Bucket.canonical b)

  let of_canonical s =
    let ( let* ) = Result.bind in
    let prefix = "cmswitch.config.v4{" in
    let plen = String.length prefix in
    if
      not
        (String.length s > plen
        && String.sub s 0 plen = prefix
        && s.[String.length s - 1] = '}')
    then Error "not a cmswitch.config.v4 string"
    else begin
      let body = String.sub s plen (String.length s - plen - 1) in
      let fields = String.split_on_char ';' body in
      let field k =
        let p = k ^ "=" in
        match List.find_opt (String.starts_with ~prefix:p) fields with
        | Some f ->
          Ok (String.sub f (String.length p) (String.length f - String.length p))
        | None -> Error (Printf.sprintf "config: missing field %s" k)
      in
      let float_field k =
        let* v = field k in
        match float_of_string_opt v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "config: bad float in %s" k)
      in
      let int_field k =
        let* v = field k in
        match int_of_string_opt v with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "config: bad int in %s" k)
      in
      let bool_field k =
        let* v = field k in
        match bool_of_string_opt v with
        | Some b -> Ok b
        | None -> Error (Printf.sprintf "config: bad bool in %s" k)
      in
      if List.length fields <> 6 then
        Error
          (Printf.sprintf "config: expected 6 fields, got %d"
             (List.length fields))
      else
        let* partition_fraction = float_field "partition_fraction" in
        let* max_segment_ops = int_field "max_segment_ops" in
        let* milp_max_nodes = int_field "milp_max_nodes" in
        let* refine = bool_field "refine" in
        let* force_all_compute = bool_field "force_all_compute" in
        let* buckets_s = field "buckets" in
        let* buckets =
          if buckets_s = "none" then Ok None
          else
            match Bucket.of_canonical buckets_s with
            | Ok b -> Ok (Some b)
            | Error e -> Error ("config: " ^ e)
        in
        Ok
          {
            default with
            partition_fraction;
            max_segment_ops;
            milp_max_nodes;
            refine;
            force_all_compute;
            buckets;
          }
    end
end

type result = {
  chip : Chip.t;
  graph : Cim_nnir.Graph.t;
  ops : Opinfo.t array;
  schedule : Plan.schedule;
  places : Placement.seg_place list;
  program : Cim_metaop.Flow.program;
  dp_stats : Segment.stats;
  degradation : Degrade.report;
  compile_seconds : float;
}

(* dp_stats and realised switch counts, mirrored into the metrics registry
   so one compile's telemetry lands next to the solver's own counters *)
let record_compile_metrics (dp : Segment.stats) places (schedule : Plan.schedule)
    ~seconds =
  Metrics.incr ~by:(float_of_int dp.Segment.mip_solves)
    (Metrics.counter "compile.dp.mip_solves");
  Metrics.incr ~by:(float_of_int dp.Segment.mip_cache_hits)
    (Metrics.counter "compile.dp.mip_cache_hits");
  Metrics.incr ~by:(float_of_int dp.Segment.candidates)
    (Metrics.counter "compile.dp.candidates");
  Metrics.incr ~by:(float_of_int dp.Segment.pruned_infeasible)
    (Metrics.counter "compile.dp.pruned_infeasible");
  let m2c, c2m = Placement.realized_switches places in
  Metrics.incr ~by:(float_of_int m2c) (Metrics.counter "compile.switches.m2c");
  Metrics.incr ~by:(float_of_int c2m) (Metrics.counter "compile.switches.c2m");
  Metrics.incr ~by:(float_of_int (List.length schedule.Plan.segments))
    (Metrics.counter "compile.segments");
  Metrics.set_gauge (Metrics.gauge "compile.schedule.total_cycles")
    schedule.Plan.total_cycles;
  Cim_obs.Metrics.observe (Metrics.histogram "compile.seconds") seconds

(* the report of a compile under [cfg]: the solver's pool is the fault
   map's flexible arrays, or the whole chip *)
let report cfg (chip : Chip.t) ~events ~diagnostics =
  let healthy =
    match cfg.Config.faults with
    | None -> chip.Chip.n_arrays
    | Some fm -> Faultmap.flexible_count fm
  in
  { (Degrade.empty_report ~total:chip.Chip.n_arrays ~healthy) with
    Degrade.events; diagnostics }

(* The one pass-list runner: cold compiles, cache replays and the serial
   fallback all run their pass list through here, which builds the result,
   its degradation report and the compile.* metrics. [events] holds the
   degradation events so far, newest first; the passes push theirs on top,
   so a caller that catches a failure still sees what fired before it.
   [compile_seconds] counts from [t0]. A pipeline that never ran codegen
   fails here with the producing pass named (via the _exn accessors). *)
let run_passes ?validate_each ?on_pass ~cfg ~events ~t0 passes chip graph =
  Log.debug (fun m ->
      m "compiling %s on %s" graph.Cim_nnir.Graph.graph_name chip.Chip.name);
  (* the solver plans against the flexible pool only; placement runs on the
     real chip with the fault map masking unusable coordinates *)
  (match cfg.Config.faults with
  | Some fm when Faultmap.fault_count fm > 0 ->
    Log.warn (fun m ->
        m "compiling around %d faulty arrays (%d/%d freely assignable)"
          (Faultmap.fault_count fm)
          (Faultmap.flexible_count fm)
          chip.Chip.n_arrays)
  | _ -> ());
  let on_stage (e : Degrade.event) =
    Log.warn (fun m ->
        m "ops [%d..%d] degraded to %s: %s" e.Degrade.lo e.Degrade.hi
          (Degrade.stage_to_string e.Degrade.stage) e.Degrade.detail);
    events := e :: !events
  in
  let env =
    Passes.make_env ?faults:cfg.Config.faults ~on_stage
      ~partition_fraction:cfg.Config.partition_fraction
      ~seg_options:(Config.to_segment_options cfg) chip
  in
  let st =
    Passes.run_pipeline ?validate_each ?on_pass passes (Passes.init env graph)
  in
  let r =
    {
      chip;
      graph;
      ops = Passes.ops_exn st;
      schedule = Passes.schedule_exn st;
      places = Passes.places_exn st;
      program = Passes.program_exn st;
      dp_stats = Passes.dp_stats_exn st;
      degradation =
        report cfg chip ~events:(List.rev !events)
          ~diagnostics:(Option.value st.Passes.diagnostics ~default:[]);
      compile_seconds = Unix.gettimeofday () -. t0;
    }
  in
  record_compile_metrics r.dp_stats r.places r.schedule
    ~seconds:r.compile_seconds;
  r

(* The failures a compile reports rather than raises: the same set for the
   cache replay, every ladder level and the serial step. *)
let attempt f =
  match f () with
  | r -> Ok r
  | exception
      ( Failure e | Invalid_argument e | Opinfo.Unsupported e
      | Cim_nnir.Shape_infer.Error e ) ->
    Error e

(* The cache replay as a pass list: the live deterministic passes
   (extraction, placement, schedule roll-up, codegen) rebuild the result
   from a cached segmentation — the cached entry only decides WHICH
   feasible segmentation is used, so a warm compile is byte-identical to
   the cold one that stored it. The cached segmentation slots into the
   [segment] position as a revalidation pass, and a digest-compare pass
   guards codegen's output. Raises [Failure] (-> cache miss, caught by
   [prog_cache_find]) whenever anything about the entry fails to reproduce
   a clean compile. *)
let replay_pipeline (p : Ccache.prog_payload) =
  let p_revalidate =
    {
      Passes.name = "cache_revalidate";
      describe = "slot the cached segmentation in, revalidated per window";
      run =
        (fun st ->
          let ops = Passes.ops_exn st in
          if not (Passes.segs_tile ~m:(Array.length ops) p.Ccache.segments)
          then failwith "cached segments do not tile the operator list";
          let segments =
            Trace.with_span "cache.revalidate" ~cat:"cache" (fun () ->
                List.map
                  (fun s ->
                    match
                      Ccache.revalidate_plan
                        ~chip:st.Passes.env.Passes.solve_chip ~ops s
                    with
                    | Ok s -> s
                    | Error e -> failwith e)
                  p.Ccache.segments)
          in
          let dp_stats =
            { Segment.mip_solves = p.Ccache.mip_solves;
              mip_cache_hits = p.Ccache.mip_cache_hits;
              candidates = p.Ccache.candidates;
              pruned_infeasible = p.Ccache.pruned_infeasible }
          in
          { st with Passes.segments = Some segments; dp_stats = Some dp_stats });
      validate = None;
    }
  in
  let p_compare =
    {
      Passes.name = "cache_compare";
      describe = "regenerated program must match the cached digest";
      run =
        (fun st ->
          let program = Passes.program_exn st in
          if
            Trace.with_span "cache.compare" ~cat:"cache" (fun () ->
                Cim_metaop.Flow.digest program <> p.Ccache.program_md5)
          then failwith "regenerated program differs from cached program digest";
          st);
      validate = None;
    }
  in
  let p_check_strict =
    {
      Passes.p_check with
      Passes.name = "check_strict";
      run =
        (fun st ->
          let st = Passes.p_check.Passes.run st in
          (match Passes.diagnostics_exn st with
          | [] -> ()
          | d :: _ -> failwith ("flow validator rejected cached program: " ^ d));
          st);
    }
  in
  [ Passes.p_extract; p_revalidate; Passes.p_place; Passes.p_schedule;
    Passes.p_codegen; p_compare; p_check_strict ]

let prog_cache_key ?shape ~cfg ~passes chip graph =
  Trace.with_span "cache.key" ~cat:"cache" (fun () ->
      Ccache.prog_key ?shape
        ~graph_text:(Cim_nnir.Text.to_string graph)
        ~chip ~faults:cfg.Config.faults
        ~config:(Config.canonical cfg)
        ~passes:(Passes.fingerprint passes) ())

(* a hit replays the payload's segmentation, seeded with its events, and
   counts [compile_seconds] from [t0], the start of the lookup *)
let prog_cache_find ?shape ~cfg ~passes ~t0 chip graph =
  match cfg.Config.cache with
  | None -> None
  | Some store -> (
    let key = prog_cache_key ?shape ~cfg ~passes chip graph in
    match Store.find store ~tier:Ccache.prog_tier ~key with
    | None -> None
    | Some payload -> (
      let decoded =
        Trace.with_span "cache.decode" ~cat:"cache" (fun () ->
            Ccache.prog_payload_of_string payload)
      in
      match
        Result.bind decoded (fun p ->
            attempt (fun () ->
                run_passes ~cfg ~events:(ref (List.rev p.Ccache.events)) ~t0
                  (replay_pipeline p) chip graph))
      with
      | Ok r -> Some r
      | Error e ->
        Log.warn (fun m -> m "program cache entry rejected: %s" e);
        Store.note_invalid store ~tier:Ccache.prog_tier;
        None))

(* cache only clean results: no flow-validator findings means the program
   can be trusted wholesale after the (cheap) replay validation *)
let prog_cache_store ?shape ~cfg ~passes chip graph (r : result) =
  match cfg.Config.cache with
  | None -> ()
  | Some store ->
    if r.degradation.Degrade.diagnostics = [] then
      let payload =
        {
          Ccache.segments = List.map (fun sp -> sp.Placement.plan) r.places;
          program_md5 = Cim_metaop.Flow.digest r.program;
          mip_solves = r.dp_stats.Segment.mip_solves;
          mip_cache_hits = r.dp_stats.Segment.mip_cache_hits;
          candidates = r.dp_stats.Segment.candidates;
          pruned_infeasible = r.dp_stats.Segment.pruned_infeasible;
          events = r.degradation.Degrade.events;
        }
      in
      Store.put store ~tier:Ccache.prog_tier
        ~key:(prog_cache_key ?shape ~cfg ~passes chip graph)
        ~payload:(Ccache.prog_payload_to_string payload)

let compile ?config:(cfg = Config.default) ?shape
    ?(passes = Passes.default_pipeline) ?validate_each ?on_pass chip graph =
  let t0 = Unix.gettimeofday () in
  Trace.with_span "compile" ~cat:"compiler"
    ~args:
      [ ("graph", J.String graph.Cim_nnir.Graph.graph_name);
        ("chip", J.String chip.Chip.name) ]
  @@ fun () ->
  match prog_cache_find ?shape ~cfg ~passes ~t0 chip graph with
  | Some r -> r
  | None ->
    let r =
      run_passes ?validate_each ?on_pass ~cfg ~events:(ref [])
        ~t0:(Unix.gettimeofday ()) passes chip graph
    in
    prog_cache_store ?shape ~cfg ~passes chip graph r;
    r

type recompile_outcome = {
  rc_result : result;
  rc_level : int;
  rc_attempts : int;
  rc_seconds : float;
}

(* The online recompile ladder: progressively cheaper configs of the same
   compilation, ending at the serial single-operator path. Levels whose
   config collapses to an earlier one (the caller already compiles with a
   tiny node budget, say) are skipped so an attempt is never wasted on a
   duplicate. *)
let recompile_ladder cfg =
  let levels =
    [ (0, cfg);
      (1, Config.with_milp_max_nodes (min cfg.Config.milp_max_nodes 32) cfg);
      (2, cfg |> Config.with_milp_max_nodes 1 |> Config.with_refine false) ]
  in
  let rec dedupe seen = function
    | [] -> []
    | (lvl, c) :: rest ->
      let key = Config.canonical c in
      if List.mem key seen then dedupe seen rest
      else (lvl, c) :: dedupe (key :: seen) rest
  in
  dedupe [] levels

let serial_level = 3

(* Try each [(level, config)] with an ordinary {!compile}, then the serial
   pass list — one operator per segment, greedy allocation, no DP, never
   cached. Every failed level becomes a [Serial_fallback] event on the
   serial plan and a diagnostic of the [Error] report. A spent
   [budget_seconds] jumps straight to the serial step: the caller needs
   {e a} plan, not the best one. *)
let descend ?budget_seconds ~cfg levels chip graph =
  let t0 = Unix.gettimeofday () in
  let attempts = ref 0 in
  let failures = ref [] (* newest first, like run_passes' events *) in
  let planned level r =
    Ok
      {
        rc_result = r;
        rc_level = level;
        rc_attempts = !attempts;
        rc_seconds = Unix.gettimeofday () -. t0;
      }
  in
  let serial () =
    incr attempts;
    let events =
      ref
        (List.map
           (fun detail ->
             { Degrade.lo = 0; hi = 0; stage = Degrade.Serial_fallback; detail })
           !failures)
    in
    match
      attempt (fun () ->
          Trace.with_span "compile.serial" ~cat:"compiler"
            ~args:[ ("graph", J.String graph.Cim_nnir.Graph.graph_name) ]
            (fun () ->
              run_passes ~cfg ~events ~t0:(Unix.gettimeofday ())
                Passes.serial_pipeline chip graph))
    with
    | Ok r -> planned serial_level r
    | Error e ->
      Error
        (report cfg chip ~events:(List.rev !events)
           ~diagnostics:(List.rev (("serial fallback: " ^ e) :: !failures)))
  in
  let rec go = function
    | [] -> serial ()
    | (level, c) :: rest ->
      if Degrade.budget_spent ~started:t0 ~budget:budget_seconds then serial ()
      else begin
        incr attempts;
        match attempt (fun () -> compile ~config:c chip graph) with
        | Ok r -> planned level r
        | Error e ->
          Log.warn (fun m ->
              m "recompile ladder level %d failed (%s); descending" level e);
          failures := Printf.sprintf "ladder level %d: %s" level e :: !failures;
          go rest
      end
  in
  go levels

let compile_robust ?(config = Config.default) chip graph =
  Result.map
    (fun o -> o.rc_result)
    (descend ~cfg:config [ (0, config) ] chip graph)

let recompile ?(config = Config.default) ?budget_seconds chip graph =
  (match budget_seconds with
  | Some b when (not (Float.is_finite b)) || b < 0. ->
    invalid_arg "Cmswitch.recompile: budget_seconds must be non-negative"
  | _ -> ());
  let outcome =
    descend ?budget_seconds ~cfg:config (recompile_ladder config) chip graph
  in
  Result.iter (fun o -> Degrade.count_recompile ~level:o.rc_level) outcome;
  outcome

let memory_mode_ratio r =
  match r.schedule.Plan.segments with
  | [] -> 0.
  | segs ->
    let ratios =
      List.map
        (fun s ->
          float_of_int (Plan.mem_total s) /. float_of_int r.chip.Chip.n_arrays)
        segs
    in
    Cim_util.Stats.mean ratios

type model_cost = {
  model : string;
  workload : Workload.t;
  padded_workload : Workload.t;
  bucket_ceiling : int option;
  layer : result option;
  whole : result option;
  head : result option;
  total_cycles : float;
  mem_ratio : float;
  compile_seconds : float;
}

(* The LM-head projection (hidden -> vocab logits) compiled standalone. *)
let head_graph (e : Zoo.entry) (w : Workload.t) =
  match e.Zoo.family with
  | Zoo.Cnn -> None
  | Zoo.Encoder_only | Zoo.Decoder_only ->
    let d, vocab =
      (* recover dims from the analytic entry: hidden size from the layer
         graph input, vocab from params is fragile — rebuild from the known
         configs instead *)
      match e.Zoo.key with
      | "bert-large" -> (1024, 30522)
      | "llama2-7b" -> (4096, 32000)
      | "opt-6.7b" -> (4096, 50272)
      | "opt-13b" -> (5120, 50272)
      | _ -> (1024, 32000)
    in
    let bt = w.Workload.batch * Workload.tokens_this_step w in
    let b = B.create (e.Zoo.key ^ "_head") in
    let x = B.input b "hidden" (Shape.of_list [ bt; d ]) in
    let out = B.linear ~bias:false b x ~in_dim:d ~out_dim:vocab ~prefix:"lm_head" in
    Some (B.finish b ~outputs:[ out ])

(* Bucketed compilation: rebuild the workload at its bucket ceiling and
   compile that graph. The padded (ceiling-shape) program is what executes
   for every length inside the bucket, so its Eq. 10 cost is the honest
   per-step cost — Timing and Drift stay truthful by construction. CNN
   entries ignore sequence length and are never padded. *)
let padded_workload cfg (e : Zoo.entry) (w : Workload.t) =
  match cfg.Config.buckets with
  | Some b when e.Zoo.family <> Zoo.Cnn ->
    let ctx = Workload.context_len w in
    let ceil_ctx = Bucket.ceiling b ctx in
    let w' =
      if ceil_ctx = ctx then w
      else
        match w.Workload.phase with
        | Workload.Prefill _ -> Workload.prefill ~batch:w.Workload.batch ceil_ctx
        | Workload.Decode _ ->
          Workload.decode ~batch:w.Workload.batch (ceil_ctx - 1)
    in
    (w', Some ceil_ctx)
  | _ -> (w, None)

(* defensive check of the padding premise: every tensor of the actual-length
   graph must fit inside its bucket-ceiling counterpart *)
let assert_padding_dominates ~model g_pad g_act =
  match Cim_nnir.Shape_infer.dominates ~over:g_pad ~under:g_act with
  | Ok () -> ()
  | Error e ->
    failwith
      (Printf.sprintf
         "bucketed compile of %s: padded graph does not dominate actual \
          shapes: %s"
         model e)

let compile_model ?config:(cfg = Config.default) ?passes ?validate_each ?on_pass
    chip (e : Zoo.entry) w =
  let w', bucket_ceiling = padded_workload cfg e w in
  let padded = Workload.context_len w' <> Workload.context_len w in
  let shape =
    match (cfg.Config.buckets, bucket_ceiling) with
    | Some b, Some c -> Some (Ccache.shape_fragment b ~ceil:c)
    | _ -> None
  in
  let compile_g g =
    compile ~config:cfg ?shape ?passes ?validate_each ?on_pass chip g
  in
  match e.Zoo.layer with
  | None ->
    let g = e.Zoo.build w' in
    if padded then assert_padding_dominates ~model:e.Zoo.display g (e.Zoo.build w);
    let r = compile_g g in
    {
      model = e.Zoo.display;
      workload = w;
      padded_workload = w';
      bucket_ceiling;
      layer = None;
      whole = Some r;
      head = None;
      total_cycles = r.schedule.Plan.total_cycles;
      mem_ratio = memory_mode_ratio r;
      compile_seconds = r.compile_seconds;
    }
  | Some build_layer ->
    let gl = build_layer w' in
    if padded then
      assert_padding_dominates ~model:e.Zoo.display gl (build_layer w);
    let rl = compile_g gl in
    let rh = Option.map compile_g (head_graph e w') in
    let head_cycles =
      match rh with Some r -> r.schedule.Plan.total_cycles | None -> 0.
    in
    let total =
      (float_of_int e.Zoo.n_layers *. rl.schedule.Plan.total_cycles) +. head_cycles
    in
    let head_seconds = match rh with Some r -> r.compile_seconds | None -> 0. in
    {
      model = e.Zoo.display;
      workload = w;
      padded_workload = w';
      bucket_ceiling;
      layer = Some rl;
      whole = None;
      head = rh;
      total_cycles = total;
      mem_ratio = memory_mode_ratio rl;
      compile_seconds = rl.compile_seconds +. head_seconds;
    }
