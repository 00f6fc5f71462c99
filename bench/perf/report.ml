(* The metric catalogue and the result lines a run prints. BENCHMARK.json
   at the repository root lists the same names and units; the test in this
   directory keeps the two in step. *)

module J = Cim_obs.Json

(* End-to-end metrics (name, unit), printed by every untraced run of
   every workload. What an "op" is depends on the workload (see
   README.md); directions and bounds live in BENCHMARK.json. *)
let end_to_end =
  [ ("setup_s", "s");
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("ops_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("cycles_geomean", "cycles") ]

(* Simulated quantities: the same code and seed give the same value, so
   [compare] demands equality instead of applying a noise bound. *)
let deterministic = [ "cycles_geomean" ]

(* Per-layer metrics, printed by every traced run of every workload; a
   layer the workload does not exercise reads 0. *)
let per_layer =
  [ (* runtime *)
    ("gc.alloc_mb_per_op", "MB");
    ("gc.major_per_s", "1/s");
    ("gc.top_heap_mb", "MB");
    ("trace.overhead_pct", "%");
    ("trace.coverage_pct", "%");
    (* self time per layer, per op *)
    ("self.models_ms", "ms");
    ("self.nnir_ms", "ms");
    ("self.compiler_ms", "ms");
    ("self.cache_ms", "ms");
    ("self.metaop_ms", "ms");
    ("self.sim_ms", "ms");
    ("self.fleet_ms", "ms");
    ("self.bench_ms", "ms");
    (* models / nnir *)
    ("models.build_ms", "ms");
    ("nnir.text_ms", "ms");
    ("nnir.random_values_s", "s");
    (* compiler passes, per op *)
    ("passes.extract_ms", "ms");
    ("passes.segment_ms", "ms");
    ("passes.place_ms", "ms");
    ("passes.schedule_ms", "ms");
    ("passes.probe_ms", "ms");
    ("passes.codegen_ms", "ms");
    ("passes.check_ms", "ms");
    ("passes.cache_revalidate_ms", "ms");
    ("passes.cache_compare_ms", "ms");
    ("passes.check_strict_ms", "ms");
    ("passes.ops", "count");
    ("passes.segments", "count");
    ("passes.program_instrs", "count");
    ("segment.memo_hit_ratio", "ratio");
    (* solver, per op *)
    ("solver.lp_solves", "count");
    ("solver.pivots", "count");
    ("solver.bb_nodes", "count");
    ("solver.lp_ms", "ms");
    ("solver.bb_truncated", "count");
    (* cache *)
    ("cache.find_ms", "ms");
    ("cache.prog_hit_ratio", "ratio");
    ("cache.invalid", "count");
    ("cache.puts", "count");
    ("cache.mb", "MB");
    (* meta-op programs and their ISA lowering *)
    ("flow.to_string_ms", "ms");
    ("check.ms", "ms");
    ("isa.lower_ms", "ms");
    ("isa.encode_ms", "ms");
    ("isa.decode_ms", "ms");
    ("isa.bytes_per_cmd", "bytes");
    (* tensor kernels *)
    ("kernels.qmatmul_decode_ns_per_mac", "ns");
    ("kernels.qmatmul_prefill_ns_per_mac", "ns");
    ("kernels.conv_ns_per_mac", "ns");
    (* simulators *)
    ("functional.run_ms", "ms");
    ("isa_sim.run_ms", "ms");
    ("sim.us_per_cmd", "us");
    ("sim.mmac_per_s", "MMAC/s");
    ("timing.run_us", "us");
    ("sim.max_rel_err", "ratio");
    (* fleet, per trial *)
    ("fleet.loop_ms", "ms");
    ("fleet.us_per_token", "us");
    ("fleet.planner_ms", "ms");
    ("fleet.planner_calls", "count");
    ("recompile.ms", "ms");
    ("fleet.recompiles", "count");
    ("fleet.shed", "count") ]

let names catalogue = List.map fst catalogue

(* Render [values] over [catalogue], in catalogue order; names the run did
   not measure read 0. *)
let metrics_json catalogue values =
  J.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value (List.assoc_opt name values) ~default:0. in
         (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
       catalogue)

(* The last line of every run's standard output. *)
let result_line ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [ ("correct", J.Bool (failed = 0)); ("attempted", J.Int attempted);
         ("failed", J.Int failed); ("metrics", metrics) ])
