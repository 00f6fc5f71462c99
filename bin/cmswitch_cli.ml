(* cmswitch — command-line front end.

   cmswitch list
   cmswitch compile MODEL [--chip X] [--batch N] [--seq N | --kv N] [--emit] [--sim]
                          [--passes LIST] [--dump-after PASS] [--validate-each]
   cmswitch compare MODEL [--chip X] [--batch N] [--seq N | --kv N]
   cmswitch serve MODEL [--chips N] [--fault-schedule FILE] [--slo CYCLES]
                        [--telemetry FILE] [--openmetrics FILE]
   cmswitch disasm MODEL [--chip X] [--batch N] [--seq N | --kv N]
   cmswitch report FILE [-o FILE]
   cmswitch cache (stats|clear|verify) [--cache-dir DIR]

   The flags shared by compile / compare / serve / disasm (--jobs,
   --tensor-backend, --buckets, --cache-dir, --no-cache, --trace,
   --metrics, -v) are assembled from one [common_term] builder, so their
   help text is identical on every subcommand. *)

open Cmdliner
module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Store = Cim_cache.Store
module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo
module Cmswitch = Cim_compiler.Cmswitch
module Bucket = Cim_compiler.Bucket
module Segment = Cim_compiler.Segment
module Plan = Cim_compiler.Plan
module Degrade = Cim_compiler.Degrade
module Faultmap = Cim_arch.Faultmap
module Serving = Cim_sim.Serving
module Fleet = Cim_sim.Fleet
module Scenario = Cim_serve.Scenario
module Baseline = Cim_baselines.Baseline

let chip_arg =
  let parse s =
    (* a preset name, or a path to a chip-spec file (see Cim_arch.Spec) *)
    match List.assoc_opt (String.lowercase_ascii s) Config.presets with
    | Some c -> Ok c
    | None ->
      if Sys.file_exists s then begin
        (* close the channel on every path, including a read that raises *)
        let ic = open_in s in
        let src =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Cim_arch.Spec.of_string src with
        | c -> Ok c
        | exception Cim_arch.Spec.Parse_error m ->
          Error (`Msg (Printf.sprintf "chip spec %s: %s" s m))
        | exception Chip.Invalid_config m ->
          Error (`Msg (Printf.sprintf "chip spec %s: %s" s m))
      end
      else
        Error (`Msg (Printf.sprintf "unknown chip %S (try: %s, or a spec file)" s
                       (String.concat ", " (List.map fst Config.presets))))
  in
  let print ppf (c : Chip.t) = Format.fprintf ppf "%s" c.Chip.name in
  Arg.(value
       & opt (conv (parse, print)) Config.dynaplasia
       & info [ "chip" ] ~docv:"CHIP"
           ~doc:"Hardware preset (dynaplasia, prime) or a chip-spec file path.")

let model_arg =
  Arg.(required
       & pos 0 (some string) None
       & info [] ~docv:"MODEL" ~doc:"Model key; see $(b,cmswitch list).")

let batch_arg =
  Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc:"Batch size.")

let seq_arg =
  Arg.(value & opt int 64
       & info [ "seq" ] ~docv:"N" ~doc:"Prefill sequence length (transformers).")

let kv_arg =
  Arg.(value & opt (some int) None
       & info [ "kv" ] ~docv:"N" ~doc:"Compile a decode step with this KV-cache length instead of prefill.")

let emit_arg =
  Arg.(value & flag & info [ "emit" ] ~doc:"Print the meta-operator flow.")

let sim_arg =
  Arg.(value & flag & info [ "sim" ] ~doc:"Run the timing simulator on the flow.")

let fault_rate_arg =
  Arg.(value & opt float 0.
       & info [ "fault-rate" ] ~docv:"R"
           ~doc:"Fraction of arrays injected as dead (0..1); the compiler \
                 plans around them and reports the degradation.")

let fault_seed_arg =
  Arg.(value & opt int 0
       & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Seed for deterministic fault injection.")

(* strictly positive, finite values: zero, negatives, nan and infinities
   are usage errors (exit 124) before anything compiles *)
let positive_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0. -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "expected a positive, finite number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let positive_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let deadline_arg =
  Arg.(value & opt (some positive_float_conv) None
       & info [ "deadline" ] ~docv:"CYCLES"
           ~doc:"Serve a small synthetic request trace against the compiled \
                 schedule, dropping requests whose completion would exceed \
                 this per-request deadline (in cycles).")

(* validated through the same parser as the CMSWITCH_JOBS environment
   override, so 0 / negatives / garbage are rejected with a usage error *)
let jobs_conv =
  let parse s =
    match Cim_util.Pool.parse_jobs s with
    | Ok n -> Ok n
    | Error m -> Error (`Msg m)
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(value & opt (some jobs_conv) None
       & info [ "jobs" ] ~docv:"N"
           ~doc:"Concurrent MILP solvers per DP frontier (default: \
                 $(b,CMSWITCH_JOBS), else the recommended domain count). \
                 Compilation output is byte-identical for every value; \
                 only wall-clock changes.")

let tensor_backend_conv =
  let parse s =
    match Cim_tensor.Kernels.backend_of_string s with
    | Ok b -> Ok b
    | Error m -> Error (`Msg m)
  in
  Cmdliner.Arg.conv
    ( parse,
      fun ppf b ->
        Format.pp_print_string ppf (Cim_tensor.Kernels.backend_to_string b) )

let tensor_backend_arg =
  Arg.(value & opt (some tensor_backend_conv) None
       & info [ "tensor-backend" ] ~docv:"BACKEND"
           ~doc:"Kernel engine for the simulators: $(b,bigarray) \
                 (cache-blocked unsafe int8/float kernels) or $(b,boxed) \
                 (the seed loops, kept as the differential oracle). Both \
                 produce bitwise-identical tensors; only wall-clock \
                 changes. Default: $(b,CMSWITCH_TENSOR_BACKEND), else \
                 bigarray.")

let sim_check_arg =
  Arg.(value & flag
       & info [ "sim-check" ]
           ~doc:"Run the functional simulator on the compiled flow with \
                 seeded random weights/inputs and print its byte-identity \
                 digest ($(b,functional_md5=)...) and max abs/rel error \
                 against the float reference. The digest is invariant \
                 across $(b,--jobs) and $(b,--tensor-backend).")

let buckets_conv =
  let parse s =
    match Bucket.of_string s with Ok b -> Ok b | Error m -> Error (`Msg m)
  in
  Cmdliner.Arg.conv
    (parse, fun ppf b -> Format.pp_print_string ppf (Bucket.to_string b))

let buckets_arg =
  Arg.(value & opt (some buckets_conv) None
       & info [ "buckets" ] ~docv:"POLICY"
           ~doc:"Length-bucketed compilation: transformer workloads compile \
                 at the bucket ceiling of their sequence/context length, so \
                 every length inside a bucket shares one cached program and \
                 warm decode steps re-solve zero MILPs. POLICY is \
                 $(b,pow2) (powers of two, ceilings 32..2048), \
                 $(b,pow2:MIN:MAX), or an explicit comma-separated boundary \
                 list like $(b,32,64,128,512).")

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persist the compilation cache (per-segment MILP solutions \
                 and whole-program plans) under DIR, so repeat compiles are \
                 warm across processes. Defaults to $(b,CMSWITCH_CACHE_DIR) \
                 when that is set.")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the compilation cache, overriding $(b,--cache-dir) \
                 and $(b,CMSWITCH_CACHE_DIR).")

let env_cache_dir () =
  match Sys.getenv_opt "CMSWITCH_CACHE_DIR" with
  | Some d when d <> "" -> Some d
  | _ -> None

let store_for ~cache_dir ~no_cache =
  if no_cache then None
  else
    match (cache_dir, env_cache_dir ()) with
    | Some d, _ | None, Some d -> Some (Store.open_dir d)
    | None, None -> None

let config_for ?tensor_backend ?buckets ~jobs ~store () =
  let cfg = Cmswitch.Config.default in
  let cfg =
    match jobs with None -> cfg | Some j -> Cmswitch.Config.with_jobs j cfg
  in
  let cfg =
    match buckets with
    | None -> cfg
    | Some b -> Cmswitch.Config.with_buckets (Some b) cfg
  in
  (* the kernel engine is process-wide: no config threads it through *)
  Option.iter Cim_tensor.Kernels.set_backend tensor_backend;
  Cmswitch.Config.with_cache store cfg

let hit_rate_pct (c : Store.counters) =
  let total = c.Store.hits + c.Store.misses in
  if total = 0 then 0. else 100. *. float_of_int c.Store.hits /. float_of_int total

let report_cache_counters store =
  match store with
  | None -> ()
  | Some s ->
    let line tier (c : Store.counters) =
      (* the "hits=... misses=... invalid=..." prefix is parsed by the CI
         cache-smoke step; append new fields after it, never reformat it *)
      Printf.printf
        "cache %-4s: hits=%d misses=%d invalid=%d puts=%d hit-rate=%.1f%% (dir %s)\n"
        tier c.Store.hits c.Store.misses c.Store.invalid c.Store.puts
        (hit_rate_pct c) (Store.dir s)
    in
    line "prog" (Store.tier_counters s Cim_compiler.Ccache.prog_tier);
    line "seg" (Store.tier_counters s Cim_compiler.Ccache.seg_tier);
    (* persist this process's deltas so `cmswitch cache stats` can report
       lifetime hit rates across invocations *)
    Store.flush_counters s

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Trace the compilation pipeline.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a Chrome trace-event JSON of the compilation passes, \
                 per-segment MILP solves and per-array mode residency to \
                 FILE; open it in Perfetto or chrome://tracing.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the metrics registry (B&B nodes, simplex pivots, \
                 degradation ladder, mode switches, cycles by mode) as a \
                 Markdown table after the run.")

module Obs_trace = Cim_obs.Trace
module Obs_metrics = Cim_obs.Metrics
module Telemetry = Cim_obs.Telemetry
module Timeline = Cim_obs.Timeline
module Json = Cim_obs.Json

let setup_obs ~trace ~metrics =
  if trace <> None then begin
    Obs_trace.set_enabled true;
    Obs_trace.reset ()
  end;
  if metrics || trace <> None then begin
    (* a trace without the matching counters is half the story; --trace
       implies metric recording, --metrics controls printing *)
    Obs_metrics.set_enabled true;
    Obs_metrics.reset ()
  end

let finish_obs ~trace ~metrics =
  (match trace with
  | None -> ()
  | Some file ->
    Obs_trace.write_file file;
    Printf.printf "trace written to %s (load in Perfetto / chrome://tracing)\n"
      file);
  if metrics then begin
    print_newline ();
    print_string (Obs_metrics.to_markdown ())
  end

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  (* pool workers log concurrently (the fault recompiles of serve --jobs N);
     one lock keeps them from sharing the stderr formatter at once *)
  let m = Mutex.create () in
  Logs.set_reporter_mutex
    ~lock:(fun () -> Mutex.lock m)
    ~unlock:(fun () -> Mutex.unlock m);
  Logs.set_reporter (Logs_fmt.reporter ());
  if verbose then begin
    Logs.Src.set_level Cim_compiler.Cmswitch.log_src (Some Logs.Debug);
    Logs.Src.set_level Cim_compiler.Passes.log_src (Some Logs.Debug)
  end

(* ---- the shared flag set -------------------------------------------------- *)

(* One builder for the flags every heavyweight subcommand shares; the cache
   subcommand needs only [cache_dir_arg], which it reuses directly. *)
type common = {
  jobs : int option;
  tensor_backend : Cim_tensor.Kernels.backend option;
  buckets : Bucket.t option;
  cache_dir : string option;
  no_cache : bool;
  verbose : bool;
  trace : string option;
  metrics : bool;
}

let common_term =
  let make jobs tensor_backend buckets cache_dir no_cache verbose trace
      metrics =
    { jobs; tensor_backend; buckets; cache_dir; no_cache; verbose; trace;
      metrics }
  in
  Term.(const make $ jobs_arg $ tensor_backend_arg $ buckets_arg
        $ cache_dir_arg $ no_cache_arg $ verbose_arg $ trace_arg
        $ metrics_arg)

(* logging + observability + cache store in one go; [?metrics_on] lets
   serve imply metric recording while a telemetry collector is active *)
let setup_common ?metrics_on c =
  setup_logs c.verbose;
  setup_obs ~trace:c.trace
    ~metrics:(Option.value metrics_on ~default:c.metrics);
  store_for ~cache_dir:c.cache_dir ~no_cache:c.no_cache

let config_of_common c ~store =
  config_for ?tensor_backend:c.tensor_backend ?buckets:c.buckets ~jobs:c.jobs
    ~store ()

let finish_common c ~store =
  report_cache_counters store;
  finish_obs ~trace:c.trace ~metrics:c.metrics

(* ---- pass-pipeline flags (compile) ---------------------------------------- *)

module Passes = Cim_compiler.Passes

let pass_names () =
  String.concat ", " (List.map (fun p -> p.Passes.name) Passes.registry)

let passes_arg =
  Arg.(value & opt (some string) None
       & info [ "passes" ] ~docv:"LIST"
           ~doc:(Printf.sprintf
                   "Run a custom pass pipeline: comma-separated pass names \
                    (known: %s). The token $(b,default) expands to the \
                    standard pipeline and $(b,serial) to the no-DP \
                    fallback, so $(b,--passes default,lower_isa) appends \
                    the ISA lowering. The pass list is part of the \
                    program-cache key — a custom pipeline never replays a \
                    program cached under a different one."
                   (pass_names ())))

let dump_after_arg =
  Arg.(value & opt_all string []
       & info [ "dump-after" ] ~docv:"PASS"
           ~doc:"Print the compilation state (ops, segments, schedule \
                 totals, program size and digest, ISA command count) after \
                 the named pass; repeatable. Dumps fire on cold compiles \
                 only — a program-cache hit replays no passes.")

let validate_each_arg =
  Arg.(value & flag
       & info [ "validate-each" ]
           ~doc:"Run every pass's validator after it (the nanopass \
                 discipline): a broken intermediate state aborts the \
                 compile naming the offending pass.")

let resolve_passes spec =
  match spec with
  | None -> Passes.default_pipeline
  | Some s -> (
    match Passes.parse_list s with
    | Ok l -> l
    | Error m ->
      Printf.eprintf "--passes: %s\n" m;
      exit 1)

let on_pass_of ~passes dump_after =
  List.iter
    (fun nm ->
      if not (List.exists (fun p -> p.Passes.name = nm) passes) then begin
        Printf.eprintf
          "--dump-after: pass %S is not in the active pipeline (%s)\n" nm
          (String.concat ", " (List.map (fun p -> p.Passes.name) passes));
        exit 1
      end)
    dump_after;
  if dump_after = [] then None
  else
    Some
      (fun (p : Passes.pass) st ->
        if List.mem p.Passes.name dump_after then
          Printf.printf "--- after %s ---\n%s%!" p.Passes.name
            (Passes.describe_state st))

let report_arg =
  Arg.(value & opt (some string) None
       & info [ "report" ] ~docv:"FILE"
           ~doc:"Write a Markdown compilation report to FILE.")

let workload_of entry ~batch ~seq ~kv =
  match (entry.Zoo.family, kv) with
  | Zoo.Cnn, _ -> Workload.prefill ~batch 1
  | _, Some kv -> Workload.decode ~batch kv
  | _, None -> Workload.prefill ~batch seq

let find_model key =
  match Zoo.find key with
  | Some e -> e
  | None ->
    Printf.eprintf "unknown model %S; known: %s\n" key
      (String.concat ", " Zoo.names);
    exit 1

let do_list () =
  Printf.printf "%-12s %-12s %-14s %s\n" "key" "family" "params" "display";
  List.iter
    (fun (e : Zoo.entry) ->
      let fam =
        match e.Zoo.family with
        | Zoo.Cnn -> "cnn"
        | Zoo.Encoder_only -> "encoder"
        | Zoo.Decoder_only -> "decoder"
      in
      Printf.printf "%-12s %-12s %-14s %s\n" e.Zoo.key fam
        (Cim_util.Table.cell_si (float_of_int e.Zoo.params))
        e.Zoo.display)
    Zoo.all;
  Printf.printf "\nchips: %s\n" (String.concat ", " (List.map fst Config.presets))

let do_compile chip key batch seq kv emit sim sim_check report fault_rate
    fault_seed deadline passes_spec dump_after validate_each common =
  let store = setup_common common in
  let e = find_model key in
  let w = workload_of e ~batch ~seq ~kv in
  Printf.printf "compiling %s for %s on %s ...\n%!" e.Zoo.display
    (Workload.to_string w) chip.Chip.name;
  let faults =
    if fault_rate <= 0. then None
    else begin
      let fm =
        try Faultmap.inject chip ~seed:fault_seed ~dead_rate:fault_rate ()
        with Invalid_argument msg ->
          Printf.eprintf "fault injection failed: %s\n" msg;
          exit 1
      in
      Printf.printf "injected faults (seed %d): %d dead of %d arrays\n"
        fault_seed
        (chip.Chip.n_arrays - Faultmap.healthy_count fm)
        chip.Chip.n_arrays;
      Some fm
    end
  in
  let passes = resolve_passes passes_spec in
  let on_pass = on_pass_of ~passes dump_after in
  let mc =
    try
      Cmswitch.compile_model
        ~config:
          (Cmswitch.Config.with_faults faults (config_of_common common ~store))
        ~passes ~validate_each ?on_pass chip e w
    with
    | Failure msg | Invalid_argument msg ->
      Printf.eprintf "compilation failed: %s\n" msg;
      exit 1
    | Passes.Pass_error { pass; reason } ->
      Printf.eprintf "pass %s rejected its output: %s\n" pass reason;
      exit 1
  in
  (match (common.buckets, mc.Cmswitch.bucket_ceiling) with
  | Some b, Some ceil ->
    Printf.printf
      "bucketed: compiled at %s (ceiling %d for %s); every length in the \
       bucket shares this cached program\n"
      (Workload.to_string mc.Cmswitch.padded_workload)
      ceil (Bucket.to_string b)
  | Some _, None ->
    Printf.printf "bucketed: policy is a no-op for this workload\n"
  | None, _ -> ());
  let part =
    match (mc.Cmswitch.layer, mc.Cmswitch.whole) with
    | Some r, _ -> Some (r, Printf.sprintf "one of %d identical blocks" e.Zoo.n_layers)
    | None, Some r -> Some (r, "whole network")
    | None, None -> None
  in
  (match part with
  | None -> ()
  | Some (r, scope) ->
    Format.printf "%a (%s)@." Plan.pp_schedule r.Cmswitch.schedule scope;
    Printf.printf "memory-mode ratio: %s; DP: %d MIP solves, %d cache hits\n"
      (Cim_util.Table.cell_pct (Cmswitch.memory_mode_ratio r))
      r.Cmswitch.dp_stats.Cim_compiler.Segment.mip_solves
      r.Cmswitch.dp_stats.Cim_compiler.Segment.mip_cache_hits;
    Printf.printf "program_md5=%s\n" (Cim_metaop.Flow.digest r.Cmswitch.program);
    (* --trace implies a timing pass: the simulator populates the per-array
       mode-residency tracks and the cycles-by-mode counters *)
    if sim || common.trace <> None then begin
      let t = Cim_sim.Timing.run chip r.Cmswitch.program in
      if sim then Format.printf "%a@." Cim_sim.Timing.pp t
    end;
    if sim_check then begin
      (* seeded weights + inputs, so the digest is comparable across runs,
         job counts and backends (the byte-identity CI check) *)
      let rng = Cim_util.Rng.create 42 in
      let g = Cim_nnir.Graph.with_random_values rng r.Cmswitch.graph in
      let inputs =
        List.map
          (fun (n, shape) ->
            (n, Cim_tensor.Tensor.rand rng shape ~lo:(-1.) ~hi:1.))
          g.Cim_nnir.Graph.graph_inputs
      in
      let rep =
        try
          Cim_sim.Functional.run chip ?faults ?jobs:common.jobs g
            r.Cmswitch.program ~inputs
        with Cim_sim.Functional.Error msg ->
          Printf.eprintf "functional simulation failed: %s\n" msg;
          exit 1
      in
      Printf.printf
        "functional_md5=%s (computes=%d vectors=%d max_abs=%.3e max_rel=%.3e)\n"
        (Cim_sim.Functional.digest rep)
        rep.Cim_sim.Functional.compute_instrs rep.Cim_sim.Functional.vector_instrs
        rep.Cim_sim.Functional.max_abs_err rep.Cim_sim.Functional.max_rel_err
    end;
    if Degrade.degraded r.Cmswitch.degradation then
      Format.printf "%a@." Degrade.pp r.Cmswitch.degradation;
    if emit then print_string (Cim_metaop.Flow.to_string r.Cmswitch.program);
    match report with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc (Cim_compiler.Report.to_markdown r);
      close_out oc;
      Printf.printf "report written to %s\n" file);
  Printf.printf "end-to-end: %.3e cycles (%.2f ms at %g MHz), compile %.2fs\n"
    mc.Cmswitch.total_cycles
    (Chip.cycles_to_us chip mc.Cmswitch.total_cycles /. 1000.)
    chip.Chip.freq_mhz mc.Cmswitch.compile_seconds;
  (match deadline with
  | None -> ()
  | Some d ->
    (* every prefill or decode step is one full pass of the compiled
       schedule, served FCFS on one chip: the deadline is the SLO, and
       with the shed tier off it only admits or drops *)
    let pass = mc.Cmswitch.total_cycles in
    let profile = Scenario.flat_profile pass in
    let reqs =
      Serving.poisson_trace (Cim_util.Rng.create fault_seed) ~n:16
        ~mean_gap:(2. *. pass) ~prompt:(max 1 seq) ~output:4
    in
    let config =
      { Fleet.default_config with
        Fleet.chips = 1; slo = Some d; shed_output = max_int; jobs = 1 }
    in
    let s =
      Fleet.run ~config ~chip
        (fun ~chip:_ ~faults:_ -> Some { Fleet.level = 0; profile })
        [] reqs
    in
    Printf.printf
      "serving (deadline %.3e cycles): %d completed, %d dropped, p95 \
       latency %.3e, %.2f tokens/Mcycle\n"
      d s.Fleet.completed s.Fleet.dropped s.Fleet.p95_latency
      s.Fleet.tokens_per_megacycle);
  finish_common common ~store

let do_compare chip key batch seq kv common =
  let store = setup_common common in
  let e = find_model key in
  let w = workload_of e ~batch ~seq ~kv in
  Printf.printf "%s on %s, %s\n" e.Zoo.display chip.Chip.name (Workload.to_string w);
  let cms =
    (Cmswitch.compile_model ~config:(config_of_common common ~store) chip e w)
      .Cmswitch.total_cycles
  in
  Printf.printf "  %-10s %.4e cycles\n" "CMSwitch" cms;
  List.iter
    (fun which ->
      let c = Baseline.compile_model which chip e w in
      Printf.printf "  %-10s %.4e cycles (CMSwitch %.2fx faster)\n"
        (Baseline.name which) c (c /. cms))
    [ Baseline.Cim_mlc; Baseline.Puma; Baseline.Occ ];
  finish_common common ~store

(* ---- serve subcommand ---------------------------------------------------- *)

let chips_arg =
  Arg.(value & opt positive_int_conv 2
       & info [ "chips" ] ~docv:"N" ~doc:"Fleet size (identical chips).")

let requests_arg =
  Arg.(value & opt positive_int_conv 32
       & info [ "requests" ] ~docv:"N" ~doc:"Requests in the synthetic trace.")

let mean_gap_arg =
  Arg.(value & opt (some positive_float_conv) None
       & info [ "mean-gap" ] ~docv:"CYCLES"
           ~doc:"Mean inter-arrival gap. Default: twice the per-request \
                 service cost divided by the fleet size (about half the \
                 fleet's saturation load).")

let burst_arg =
  Arg.(value & opt positive_int_conv 1
       & info [ "burst" ] ~docv:"N"
           ~doc:"Group arrivals into bursts of N back-to-back requests \
                 (1 = open-loop Poisson).")

let slo_arg =
  Arg.(value & opt (some positive_float_conv) None
       & info [ "slo" ] ~docv:"CYCLES"
           ~doc:"Per-request latency target: requests that cannot meet it \
                 in full are degraded to a truncated shed tier before any \
                 request is dropped.")

let fault_schedule_arg =
  Arg.(value & opt (some string) None
       & info [ "fault-schedule" ] ~docv:"FILE"
           ~doc:"Runtime fault schedule, one event per line: \
                 $(i,at=CYCLES chip=I array=X,Y fault=KIND) with KIND one \
                 of dead, stuck-compute, stuck-memory, transient:P, clear.")

let fault_events_arg =
  Arg.(value & opt int 0
       & info [ "fault-events" ] ~docv:"N"
           ~doc:"Generate N random mid-run fault events (seeded by \
                 $(b,--fault-seed)) instead of reading a schedule file.")

let seed_arg =
  Arg.(value & opt int 42
       & info [ "seed" ] ~docv:"SEED" ~doc:"Trace-generator seed.")

let shed_output_arg =
  Arg.(value & opt int 4
       & info [ "shed-output" ] ~docv:"N"
           ~doc:"Output tokens a shed request still receives.")

let max_retries_arg =
  Arg.(value & opt int 3
       & info [ "max-retries" ] ~docv:"N"
           ~doc:"Fault-abort retries before a request is given up (shed).")

let breaker_arg =
  Arg.(value & opt int 4
       & info [ "breaker" ] ~docv:"N"
           ~doc:"Circuit-breaker threshold: fault events on one chip \
                 before it is pulled out of rotation for good.")

let recompile_cycles_arg =
  Arg.(value & opt (some float) None
       & info [ "recompile-cycles" ] ~docv:"CYCLES"
           ~doc:"Simulated downtime charged per online recompile. Default: \
                 one full-service pass.")

let recompile_budget_arg =
  Arg.(value & opt (some float) None
       & info [ "recompile-budget" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget per recompile: once spent, the \
                 degradation ladder jumps straight to its cheapest level. \
                 Note: makes the chosen plan level timing-dependent.")

let telemetry_arg =
  Arg.(value & opt (some string) None
       & info [ "telemetry" ] ~docv:"FILE"
           ~doc:"Record run telemetry — per-request phase spans, periodic \
                 fleet snapshots, cost-model drift, metrics, OpenMetrics \
                 text — into one JSON file; render it offline with \
                 $(b,cmswitch report).")

let timeline_csv_arg =
  Arg.(value & opt (some string) None
       & info [ "timeline-csv" ] ~docv:"FILE"
           ~doc:"Also write the snapshot timeline as CSV (implies the \
                 telemetry collector).")

let openmetrics_arg =
  Arg.(value & opt (some string) None
       & info [ "openmetrics" ] ~docv:"FILE"
           ~doc:"Also write the metrics registry in OpenMetrics/Prometheus \
                 text exposition format (implies the telemetry collector).")

let snapshot_interval_arg =
  Arg.(value & opt (some float) None
       & info [ "snapshot-interval" ] ~docv:"CYCLES"
           ~doc:"Fleet-snapshot sampling interval in simulated cycles. \
                 Default: 1/12 of the trace horizon.")

let slo_budget_arg =
  Arg.(value & opt float 0.05
       & info [ "slo-budget" ] ~docv:"FRACTION"
           ~doc:"SLO error budget: the tolerated fraction of served \
                 requests that may violate the SLO; telemetry reports the \
                 burn rate against it. Only meaningful with $(b,--slo).")

let do_serve chip key batch seq kv chips requests mean_gap burst slo
    fault_schedule fault_events fault_seed seed shed_output max_retries breaker
    recompile_cycles recompile_budget telemetry_file timeline_csv openmetrics
    snapshot_interval slo_budget common =
  let tele_on =
    telemetry_file <> None || timeline_csv <> None || openmetrics <> None
  in
  (* the telemetry document embeds the metrics dump and the OpenMetrics
     text, so a collector implies metric recording (not printing) *)
  let store = setup_common ~metrics_on:(common.metrics || tele_on) common in
  let buckets = common.buckets in
  let e = find_model key in
  let w = workload_of e ~batch ~seq ~kv in
  (* buckets stay out of the base config on purpose: only the bucketed
     healthy-path profile below compiles under the policy *)
  let base_cfg =
    config_for ?tensor_backend:common.tensor_backend ~jobs:common.jobs ~store ()
  in
  let block = Scenario.block e w in
  Printf.printf "compiling %s for %s on %d x %s ...\n%!" e.Zoo.display
    (Workload.to_string w) chips chip.Chip.name;
  let r0 =
    try Cmswitch.compile ~config:base_cfg chip block.Scenario.graph
    with Failure msg | Invalid_argument msg ->
      Printf.eprintf "compilation failed: %s\n" msg;
      exit 1
  in
  let pass = Scenario.pass_cycles block r0 in
  (* a request costs prefill + 4 decode steps = 5 passes; the default gap
     offers about half the fleet's service rate *)
  let mean_gap =
    match mean_gap with
    | Some g -> g
    | None -> 2. *. (5. *. pass) /. float_of_int chips
  in
  let reqs =
    Serving.bursty_trace (Cim_util.Rng.create seed) ~n:requests ~burst
      ~mean_gap:(mean_gap *. float_of_int burst) ~intra_gap:0.
      ~prompt:(max 1 seq) ~output:4
  in
  let horizon =
    List.fold_left (fun acc (r : Serving.request) ->
        Float.max acc r.Serving.arrival)
      pass reqs
  in
  let schedule =
    match fault_schedule with
    | Some file ->
      let ic = open_in file in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (match Fleet.schedule_of_string src with
      | Ok evs -> evs
      | Error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 1)
    | None ->
      if fault_events <= 0 then []
      else
        Fleet.random_schedule
          (Cim_util.Rng.create fault_seed)
          ~chip ~chips ~n:fault_events ~horizon
  in
  if schedule <> [] then
    Printf.printf "fault schedule: %d events over %.3e cycles\n"
      (List.length schedule) horizon;
  (* Eq. 10 drift attribution, published as costmodel.drift.* and embedded
     in the telemetry document *)
  let drift =
    if not (tele_on || common.metrics) then None
    else begin
      let d = Scenario.drift chip r0 in
      Cim_sim.Drift.record_metrics d;
      Some d
    end
  in
  let tele =
    if not tele_on then None
    else begin
      let interval =
        match snapshot_interval with
        | Some i -> i
        | None -> Float.max 1. (horizon /. 12.)
      in
      let t =
        Telemetry.create ~snapshot_interval:interval
          ?slo_budget:(if slo = None then None else Some slo_budget) ()
      in
      Telemetry.set_meta t "model" (Json.String e.Zoo.key);
      Telemetry.set_meta t "chip" (Json.String chip.Chip.name);
      Telemetry.set_meta t "workload" (Json.String (Workload.to_string w));
      Telemetry.set_meta t "requests" (Json.Int requests);
      Telemetry.set_meta t "seed" (Json.Int seed);
      Telemetry.set_meta t "horizon" (Json.Float horizon);
      Telemetry.set_meta t "fault_events" (Json.Int (List.length schedule));
      (match drift with
      | Some d -> Telemetry.set_extra t "drift" (Cim_sim.Drift.to_json d)
      | None -> ());
      (match buckets with
      | Some b -> Telemetry.set_meta t "buckets" (Json.String (Bucket.to_string b))
      | None -> ());
      Some t
    end
  in
  (* faulted plans keep flat per-level recompile profiles: fault recovery
     is about surviving, not about dynamic shapes *)
  let healthy =
    match buckets with
    | Some b when e.Zoo.family <> Zoo.Cnn ->
      Printf.printf "bucketed serving: policy %s\n" (Bucket.to_string b);
      Some
        (Scenario.bucketed_profile ?telemetry:tele ~config:base_cfg chip e
           ~batch b)
    | Some _ ->
      Printf.printf "bucketed serving: policy is a no-op for CNN models\n";
      None
    | None -> None
  in
  let planner =
    Scenario.planner ?healthy ?budget_seconds:recompile_budget
      ~config:base_cfg chip block
  in
  let snapshot_extra () =
    match store with
    | None -> []
    | Some s ->
      let tally tier =
        let c = Store.tier_counters s tier in
        (c.Store.hits, c.Store.hits + c.Store.misses)
      in
      let ph, pt = tally Cim_compiler.Ccache.prog_tier in
      let sh, st = tally Cim_compiler.Ccache.seg_tier in
      let hits, total = (ph + sh, pt + st) in
      [ ("cache_hit_rate",
         if total = 0 then 0. else float_of_int hits /. float_of_int total) ]
  in
  let config = Scenario.fleet_config ~pass in
  let config =
    { config with
      Fleet.chips;
      slo;
      shed_output;
      max_retries;
      breaker_threshold = breaker;
      recompile_cycles =
        Option.value recompile_cycles ~default:config.Fleet.recompile_cycles;
      jobs = Option.value common.jobs ~default:config.Fleet.jobs;
    }
  in
  let s =
    try Fleet.run ~config ?telemetry:tele ~snapshot_extra ~chip planner
          schedule reqs
    with Invalid_argument msg ->
      Printf.eprintf "fleet run failed: %s\n" msg;
      exit 1
  in
  let failed = s.Fleet.offered - s.Fleet.completed - s.Fleet.dropped - s.Fleet.shed in
  Printf.printf
    "fleet: offered=%d completed=%d dropped=%d shed=%d (starved %d) failed=%d\n"
    s.Fleet.offered s.Fleet.completed s.Fleet.dropped s.Fleet.shed
    s.Fleet.starved failed;
  Printf.printf
    "       retries=%d recompiles=%d breaker_opens=%d chips_out=%d%s\n"
    s.Fleet.retries s.Fleet.recompiles s.Fleet.breaker_opens s.Fleet.chips_out
    (match slo with
    | None -> ""
    | Some _ -> Printf.sprintf " slo_violations=%d" s.Fleet.slo_violations);
  Printf.printf
    "latency: mean=%.3e p50=%.3e p95=%.3e p99=%.3e p999=%.3e ttft=%.3e cycles\n"
    s.Fleet.mean_latency s.Fleet.p50_latency s.Fleet.p95_latency
    s.Fleet.p99_latency s.Fleet.p999_latency s.Fleet.mean_ttft;
  Printf.printf "per-token: p50=%.3e p95=%.3e p99=%.3e cycles\n" s.Fleet.p50_tpt
    s.Fleet.p95_tpt s.Fleet.p99_tpt;
  Printf.printf "throughput: %.2f tokens/Mcycle over %.3e cycles; per-chip [%s]\n"
    s.Fleet.tokens_per_megacycle s.Fleet.makespan
    (String.concat "; " (List.map string_of_int s.Fleet.per_chip_served));
  (match drift with
  | Some d when common.metrics -> Format.printf "%a@." Cim_sim.Drift.pp d
  | _ -> ());
  (match tele with
  | None -> ()
  | Some t ->
    (match telemetry_file with
    | Some file ->
      Telemetry.write_file t file;
      Printf.printf
        "telemetry written to %s (%d spans, %d snapshots); render with \
         `cmswitch report %s`\n"
        file (Telemetry.span_count t)
        (Timeline.count (Telemetry.timeline t))
        file
    | None -> ());
    (match timeline_csv with
    | Some file ->
      let oc = open_out file in
      output_string oc (Timeline.to_csv (Telemetry.timeline t));
      close_out oc;
      Printf.printf "snapshot timeline written to %s\n" file
    | None -> ());
    match openmetrics with
    | Some file ->
      Cim_obs.Openmetrics.write_file file;
      Printf.printf "OpenMetrics exposition written to %s\n" file
    | None -> ());
  finish_common common ~store

(* ---- report subcommand --------------------------------------------------- *)

let telemetry_pos_arg =
  Arg.(required
       & pos 0 (some string) None
       & info [] ~docv:"FILE"
           ~doc:"Telemetry file from $(b,cmswitch serve --telemetry).")

let report_out_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the dashboard to FILE instead of stdout.")

let do_report file out =
  let doc =
    try Telemetry.load file
    with Json.Parse_error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 1
  in
  let md = Telemetry.report doc in
  match out with
  | None -> print_string md
  | Some f ->
    let oc = open_out f in
    output_string oc md;
    close_out oc;
    Printf.printf "report written to %s\n" f

(* ---- cache subcommand ---------------------------------------------------- *)

let cache_dir_required cache_dir =
  match (cache_dir, env_cache_dir ()) with
  | Some d, _ | None, Some d -> d
  | None, None ->
    Printf.eprintf
      "no cache directory: pass --cache-dir or set CMSWITCH_CACHE_DIR\n";
    exit 2

let do_cache_stats cache_dir =
  let s = Store.open_dir (cache_dir_required cache_dir) in
  let d = Store.disk_stats s in
  Printf.printf "cache at %s: %d entries, %d bytes\n" (Store.dir s)
    d.Store.total_entries d.Store.total_bytes;
  List.iter
    (fun (t : Store.tier_stats) ->
      let c = Store.lifetime_tier_counters s t.Store.tier in
      Printf.printf
        "  %-4s %6d entries %10d bytes | lifetime hits=%d misses=%d \
         invalid=%d puts=%d hit-rate=%.1f%%\n"
        t.Store.tier t.Store.entries t.Store.bytes c.Store.hits c.Store.misses
        c.Store.invalid c.Store.puts (hit_rate_pct c))
    d.Store.tiers;
  (* which bucket ceilings have compiled programs resident *)
  let ceilings =
    Store.fold_keys s ~tier:Cim_compiler.Ccache.prog_tier ~init:[]
      ~f:(fun acc key ->
        match Cim_compiler.Ccache.bucket_ceiling key with
        | Some c -> c :: acc
        | None -> acc)
  in
  let distinct = List.sort_uniq compare ceilings in
  if distinct = [] then Printf.printf "  buckets: none\n"
  else
    Printf.printf "  buckets: %d bucketed program(s) at ceilings [%s]\n"
      (List.length ceilings)
      (String.concat "; " (List.map string_of_int distinct))

let do_cache_clear cache_dir =
  let s = Store.open_dir (cache_dir_required cache_dir) in
  let n = Store.clear s in
  Printf.printf "cleared %d entries from %s\n" n (Store.dir s)

let do_cache_verify cache_dir =
  let s = Store.open_dir (cache_dir_required cache_dir) in
  match Store.verify s with
  | [] ->
    let d = Store.disk_stats s in
    Printf.printf "cache at %s: %d entries verified, all sound\n" (Store.dir s)
      d.Store.total_entries
  | problems ->
    List.iter
      (fun (path, problem) -> Printf.eprintf "%s: %s\n" path problem)
      problems;
    Printf.eprintf "%d bad entries\n" (List.length problems);
    exit 1

(* ---- disasm subcommand --------------------------------------------------- *)

let do_disasm chip key batch seq kv common =
  let store = setup_common common in
  let e = find_model key in
  let w = workload_of e ~batch ~seq ~kv in
  (* stdout carries nothing but the listing, so it pipes cleanly *)
  Printf.eprintf "compiling %s for %s on %s ...\n%!" e.Zoo.display
    (Workload.to_string w) chip.Chip.name;
  let mc =
    try
      Cmswitch.compile_model ~config:(config_of_common common ~store) chip e w
    with Failure msg | Invalid_argument msg ->
      Printf.eprintf "compilation failed: %s\n" msg;
      exit 1
  in
  let r, scope =
    match (mc.Cmswitch.layer, mc.Cmswitch.whole) with
    | Some r, _ ->
      (r, Printf.sprintf "one of %d identical blocks" e.Zoo.n_layers)
    | None, Some r -> (r, "whole network")
    | None, None ->
      Printf.eprintf "nothing to disassemble for %s\n" e.Zoo.display;
      exit 1
  in
  let p = r.Cmswitch.program in
  let bytes = Cim_metaop.Isa.encode p in
  (match Cim_metaop.Isa.decode bytes with
  | Ok p' when p' = p -> ()
  | Ok _ ->
    Printf.eprintf "ISA round trip: decoded program differs from encoder input\n";
    exit 1
  | Error m ->
    Printf.eprintf "ISA round trip failed: %s\n" m;
    exit 1);
  Printf.eprintf "%s; round trip ok: %d commands, %d words, %d bytes\n%!"
    scope
    (Cim_metaop.Isa.cmd_count p)
    (Cim_metaop.Isa.word_count p)
    (String.length bytes);
  print_string (Cim_metaop.Isa.disassemble p);
  finish_common common ~store

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List models and hardware presets")
    Term.(const do_list $ const ())

let compile_cmd =
  Cmd.v (Cmd.info "compile" ~doc:"Compile a model and print the schedule")
    Term.(const do_compile $ chip_arg $ model_arg $ batch_arg $ seq_arg
          $ kv_arg $ emit_arg $ sim_arg $ sim_check_arg $ report_arg
          $ fault_rate_arg $ fault_seed_arg $ deadline_arg $ passes_arg
          $ dump_after_arg $ validate_each_arg $ common_term)

let compare_cmd =
  Cmd.v (Cmd.info "compare" ~doc:"Compare CMSwitch against the baselines")
    Term.(const do_compare $ chip_arg $ model_arg $ batch_arg $ seq_arg
          $ kv_arg $ common_term)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Simulate fault-tolerant fleet serving: a request trace against N \
          chips with runtime fault events, online recompile-around-faults \
          and SLO-aware shedding")
    Term.(const do_serve $ chip_arg $ model_arg $ batch_arg $ seq_arg $ kv_arg
          $ chips_arg $ requests_arg $ mean_gap_arg $ burst_arg
          $ slo_arg
          $ fault_schedule_arg $ fault_events_arg $ fault_seed_arg $ seed_arg
          $ shed_output_arg $ max_retries_arg $ breaker_arg
          $ recompile_cycles_arg $ recompile_budget_arg $ telemetry_arg
          $ timeline_csv_arg $ openmetrics_arg $ snapshot_interval_arg
          $ slo_budget_arg $ common_term)

let disasm_cmd =
  Cmd.v
    (Cmd.info "disasm"
       ~doc:
         "Compile a model, encode the meta-operator flow as its MMIO \
          command stream ($(b,--passes default,lower_isa) territory) and \
          print the disassembly; stdout carries only the listing. The \
          bytes are decoded first and must give back the program — any \
          mismatch is a non-zero exit.")
    Term.(const do_disasm $ chip_arg $ model_arg $ batch_arg $ seq_arg $ kv_arg
          $ common_term)

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a telemetry file from $(b,cmswitch serve --telemetry) as a \
          Markdown dashboard: serving outcome, latency percentiles, \
          per-chip utilization, Eq. 10 cost-model drift, SLO error budget, \
          snapshot timeline")
    Term.(const do_report $ telemetry_pos_arg $ report_out_arg)

let cache_cmd =
  let stats =
    Cmd.v (Cmd.info "stats" ~doc:"Entry counts and bytes per tier")
      Term.(const do_cache_stats $ cache_dir_arg)
  in
  let clear =
    Cmd.v (Cmd.info "clear" ~doc:"Remove every cached entry")
      Term.(const do_cache_clear $ cache_dir_arg)
  in
  let verify =
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Integrity-check every entry; non-zero exit on corruption")
      Term.(const do_cache_verify $ cache_dir_arg)
  in
  Cmd.group (Cmd.info "cache" ~doc:"Inspect or maintain the compilation cache")
    [ stats; clear; verify ]

let () =
  let info =
    Cmd.info "cmswitch" ~version:"1.0.0"
      ~doc:"Dual-mode-aware DNN compiler for CIM accelerators"
  in
  let main =
    Cmd.group info
      [ list_cmd; compile_cmd; compare_cmd; serve_cmd; disasm_cmd; report_cmd;
        cache_cmd ]
  in
  (* a named file that cannot be read or written (a missing fault
     schedule, an output path in a missing directory) is a user error:
     exit 1 with the system's message. Anything else is a bug and keeps
     cmdliner's internal-error exit. *)
  exit
    (match Cmd.eval ~catch:false main with
    | code -> code
    | exception Sys_error msg ->
      Printf.eprintf "cmswitch: %s\n" msg;
      1
    | exception exn ->
      Printf.eprintf "cmswitch: internal error, uncaught exception:\n%s\n"
        (Printexc.to_string exn);
      Cmd.Exit.internal_error)
