(* Runs one workload in this process: set-up several times, then the
   measured loop. An untraced run reports the end-to-end metrics; a traced
   run measures half its budget untraced and half with spans and the
   library's metrics registry on, and reports the per-layer metrics. *)

module W = Workloads
module J = Cim_obs.Json
module Metrics = Cim_obs.Metrics
module Cmswitch = Cim_compiler.Cmswitch

let setup_runs = 3

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  info : (string * J.t) list;  (* printed on the line before the result *)
}

(* Set up [setup_runs] times from scratch; keep the last, report each. *)
let setups ctx (w : _ W.t) =
  let rec go k times prev =
    Option.iter w.W.teardown prev;
    Gc.full_major ();
    let t0 = W.now () in
    let st = w.W.setup ctx in
    let times = (W.now () -. t0) :: times in
    if k = 1 then (List.rev times, st) else go (k - 1) times (Some st)
  in
  go setup_runs [] None

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b > 0. then a /. b else 0.

(* Latency over the round's items, each item at its fastest run. Other
   tenants of the machine only ever slow a run down, so the fastest of an
   item's repeats is the estimate that moves least between runs; the info
   line keeps the distribution of every sample. *)
let latency_metrics (ph : W.phase) =
  let best = Hashtbl.fold (fun _ ms acc -> ms :: acc) ph.W.best [] in
  if best = [] then [ ("op_ms_p50", 0.); ("op_ms_p90", 0.); ("ops_per_s", 0.) ]
  else
    [ ("op_ms_p50", Measure.percentile 50. best);
      ("op_ms_p90", Measure.percentile 90. best);
      ("ops_per_s", ratio (float_of_int (List.length best)) (sum best /. 1e3)) ]

(* Sizes and per-call costs of the compiled programs a workload handled:
   their graphs, IR, meta-op text, static check and ISA lowering. *)
let program_probes (results : Cmswitch.result list) =
  let results = List.filteri (fun i _ -> i < 40) results in
  let n = float_of_int (max 1 (List.length results)) in
  let mean f = sum (List.map f results) /. n in
  let programs = List.map (fun (r : Cmswitch.result) -> r.Cmswitch.program) results in
  let images = List.map W.Isa.of_flow programs in
  let bytes = List.map W.Isa.encode images in
  let rec instrs acc = function
    | W.Flow.Parallel l -> List.fold_left instrs acc l
    | _ -> acc + 1
  in
  let dp f = List.fold_left (fun acc (r : Cmswitch.result) -> acc + f r.Cmswitch.dp_stats) 0 results in
  let hits = dp (fun d -> d.Cim_compiler.Segment.mip_cache_hits) in
  let solves = dp (fun d -> d.Cim_compiler.Segment.mip_solves) in
  let cmds = List.fold_left (fun acc i -> acc + W.Isa.cmd_count i) 0 images in
  let nbytes = List.fold_left (fun acc b -> acc + String.length b) 0 bytes in
  [ ("nnir.text_ms", W.mean_time ~scale:1e3 (fun (r : Cmswitch.result) -> W.Text.to_string r.Cmswitch.graph) results);
    ("passes.ops", mean (fun r -> float_of_int (Array.length r.Cmswitch.ops)));
    ("passes.segments", mean (fun r -> float_of_int (List.length r.Cmswitch.schedule.W.Plan.segments)));
    ("passes.program_instrs",
     mean (fun r -> float_of_int (List.fold_left instrs 0 r.Cmswitch.program.W.Flow.instrs)));
    ("segment.memo_hit_ratio", ratio (float_of_int hits) (float_of_int (hits + solves)));
    ("flow.to_string_ms", W.mean_time ~scale:1e3 W.Flow.to_string programs);
    ("check.ms", W.mean_time ~scale:1e3 (W.Check.run W.chip) programs);
    ("isa.lower_ms", W.mean_time ~scale:1e3 W.Isa.of_flow programs);
    ("isa.encode_ms", W.mean_time ~scale:1e3 W.Isa.encode images);
    ("isa.decode_ms", W.mean_time ~scale:1e3 W.Isa.decode bytes);
    ("isa.bytes_per_cmd", ratio (float_of_int nbytes) (float_of_int cmds)) ]

let counter name = Metrics.counter_value (Metrics.counter name)
let pass_seconds name = (Metrics.summarize (Metrics.histogram ("compile.pass." ^ name ^ ".seconds"))).Metrics.sum

let layers = [ "models"; "nnir"; "compiler"; "cache"; "metaop"; "sim"; "fleet"; "bench" ]

let passes =
  [ "extract"; "segment"; "place"; "schedule"; "probe"; "codegen"; "check";
    "cache_revalidate"; "cache_compare"; "check_strict" ]

(* Per-layer metrics of the traced phase: span self time per layer, the
   library's own pass timers and solver/cache counters, GC, and the
   tracing overhead against the untraced phase. *)
let traced_metrics (untraced : W.phase) (traced : W.phase) ~gc0 ~gc1 spans =
  let ops = float_of_int (max 1 (List.length traced.W.lat)) in
  let wall = sum traced.W.walls in
  let per_op x = x /. ops in
  let covered = sum (List.filter_map (fun (s : Spans.span) -> if s.Spans.parent < 0 then Some (s.Spans.t1 -. s.Spans.t0) else None) spans) in
  let by_layer = Spans.by_layer spans in
  let self_ms layer =
    match List.assoc_opt layer by_layer with Some (t, _) -> per_op (1e3 *. t) | None -> 0.
  in
  let named name =
    List.fold_left
      (fun (dur, n) (s : Spans.span) ->
        if s.Spans.name = name then (dur +. (s.Spans.t1 -. s.Spans.t0), n + 1) else (dur, n))
      (0., 0) spans
  in
  let mean_ms name = let d, n = named name in ratio (1e3 *. d) (float_of_int n) in
  let trials = float_of_int (snd (named "fleet.run")) in
  let fleet_self = match List.assoc_opt "fleet.run" (Spans.by_name spans) with Some (t, _) -> t | None -> 0. in
  let planner_s, planner_calls = named "planner" in
  let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576. in
  let hits = counter "cache.prog.hits" and misses = counter "cache.prog.misses" in
  [ ("gc.alloc_mb_per_op", per_op (mb_of_words (words gc1 -. words gc0)));
    ("gc.major_per_s", ratio (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) wall);
    ("gc.top_heap_mb", mb_of_words (float_of_int gc1.Gc.top_heap_words));
    ("trace.overhead_pct",
     100. *. (ratio (Measure.median traced.W.walls) (Measure.median untraced.W.walls) -. 1.));
    ("trace.coverage_pct", 100. *. ratio covered wall);
    ("models.build_ms", mean_ms "models.build");
    ("functional.run_ms", mean_ms "functional.run");
    ("isa_sim.run_ms", mean_ms "isa_sim.run");
    ("timing.run_us", 1e3 *. mean_ms "timing.run");
    ("fleet.loop_ms", ratio (1e3 *. fleet_self) trials);
    ("fleet.planner_ms", ratio (1e3 *. planner_s) trials);
    ("fleet.planner_calls", ratio (float_of_int planner_calls) trials);
    ("recompile.ms", mean_ms "recompile");
    ("solver.lp_solves", per_op (counter "solver.lp.solves"));
    ("solver.pivots", per_op (counter "solver.simplex.pivots"));
    ("solver.bb_nodes", per_op (counter "solver.bb.nodes"));
    ("solver.lp_ms", per_op (1e3 *. counter "solver.lp.wall_seconds"));
    ("solver.bb_truncated", per_op (counter "solver.bb.truncated_solves"));
    ("cache.prog_hit_ratio", ratio hits (hits +. misses));
    ("cache.invalid", counter "cache.invalid") ]
  @ List.map (fun l -> ("self." ^ l ^ "_ms", self_ms l)) layers
  @ List.map (fun p -> ("passes." ^ p ^ "_ms", per_op (1e3 *. pass_seconds p))) passes

let info_common ctx name (w : _ W.t) st ~setup_times ~(ph : W.phase) =
  let n = List.length ph.W.lat in
  let fp_name, fp = w.W.fingerprint st in
  [ ("workload", J.String name); ("seed", J.Int ctx.W.seed); ("trace", J.Int (Bool.to_int ctx.W.traced));
    ("smoke", J.Bool ctx.W.smoke); ("seconds", J.Float ctx.W.seconds);
    ("rounds_s", J.List (List.rev_map (fun t -> J.Float t) ph.W.walls));
    ("setup_runs_s", J.List (List.map (fun t -> J.Float t) setup_times));
    (* every sample, not just each item's fastest: the median and the
       highest percentile with at least ten samples beyond it *)
    ( "samples",
      J.Obj
        ([ ("n", J.Int n) ]
        @ (if n = 0 then [] else [ ("p50_ms", J.Float (Measure.percentile 50. ph.W.lat)) ])
        @
        match Measure.tail_percentile n with
        | Some p -> [ ("tail_pct", J.Float p); ("tail_ms", J.Float (Measure.percentile p ph.W.lat)) ]
        | None -> []) );
    ("fingerprint", J.Obj [ (fp_name, J.String fp) ]);
    ("failures", J.List (List.rev_map (fun s -> J.String s) ph.W.failures));
    ("cores", J.Int (Domain.recommended_domain_count ()));
    ("ocaml", J.String Sys.ocaml_version) ]

let run ?trace_file ctx name (W.W w) =
  if ctx.W.traced then begin
    Metrics.reset ();
    Metrics.set_enabled true
  end;
  let setup_times, st = setups ctx w in
  let setup_puts = counter "cache.puts" /. float_of_int setup_runs in
  let cache_mb = Metrics.gauge_value (Metrics.gauge "cache.bytes") /. 1048576. in
  Metrics.set_enabled false;
  (* every run starts its loop from the same compacted heap *)
  Gc.compact ();
  let finish () = w.W.teardown st in
  Fun.protect ~finally:finish @@ fun () ->
  if not ctx.W.traced then begin
    let ph = W.new_phase () in
    W.run_rounds ph ~seconds:ctx.W.seconds (w.W.round st ~traced:false);
    let cycles = List.filter (fun c -> c > 0.) (w.W.cycles st) in
    {
      attempted = ph.W.attempted;
      failed = ph.W.failed;
      metrics =
        [ ("setup_s", Measure.median setup_times);
          ("peak_rss_mb", Measure.peak_rss_mb ());
          ("cycles_geomean", if cycles = [] then 0. else Measure.geomean cycles) ]
        @ latency_metrics ph;
      info = info_common ctx name w st ~setup_times ~ph;
    }
  end
  else begin
    let untraced = W.new_phase () in
    W.run_rounds untraced ~seconds:(ctx.W.seconds /. 2.) (w.W.round st ~traced:false);
    Metrics.reset ();
    Metrics.set_enabled true;
    let gc0 = Gc.quick_stat () in
    Spans.start ();
    let traced = W.new_phase () in
    W.run_rounds traced ~seconds:(ctx.W.seconds /. 2.) (w.W.round st ~traced:true);
    Spans.stop ();
    let gc1 = Gc.quick_stat () in
    let spans = Spans.spans () in
    let metrics = traced_metrics untraced traced ~gc0 ~gc1 spans in
    Metrics.set_enabled false;
    let probes = program_probes (w.W.results st) @ w.W.extra st in
    Option.iter (fun f -> Spans.write_chrome f spans) trace_file;
    Format.eprintf "self time by layer (traced phase, %d ops):@." (List.length traced.W.lat);
    Spans.pp_layers Format.err_formatter ~wall:(sum traced.W.walls) spans;
    {
      attempted = untraced.W.attempted + traced.W.attempted;
      failed = untraced.W.failed + traced.W.failed;
      metrics = [ ("cache.puts", setup_puts); ("cache.mb", cache_mb) ] @ metrics @ probes;
      info =
        info_common ctx name w st ~setup_times ~ph:traced
        @ [ ("failures_untraced", J.List (List.rev_map (fun s -> J.String s) untraced.W.failures)) ];
    }
  end
