(* E9 — Fig. 18: compilation overhead. Wall-clock compile time of CMSwitch
   vs CIM-MLC per benchmark (the paper averages 20 runs; we use 3 — the
   measurement noise here is far below the 2.8-6.3x ratios of interest).
   The paper also observes CNNs costing ~2.5x more compile time than
   transformers thanks to block reuse.

   Also records the serial-vs-parallel solver fan-out: the same CMSwitch
   compile at --jobs 1 and at the pooled job count, so the uploaded JSON
   carries the wall-clock effect of parallel segment solving (outputs are
   byte-identical by contract; only this column may move). *)

open Common
module Segment = Cim_compiler.Segment
module Metrics = Cim_obs.Metrics
module Milp = Cim_solver.Milp

let reps = 3

(* wall clock, not Sys.time: parallel solves burn CPU seconds on every
   worker domain, which is exactly what this experiment must not count *)
let mean_time f = Stats.mean (List.init reps (fun _ -> snd (time f)))

let graph_of key =
  let e = Option.get (Zoo.find key) in
  match e.Zoo.family with
  | Zoo.Cnn -> e.Zoo.build (Workload.prefill ~batch:1 1)
  | Zoo.Encoder_only -> (Option.get e.Zoo.layer) (Workload.prefill ~batch:1 64)
  | Zoo.Decoder_only -> (Option.get e.Zoo.layer) (Workload.decode ~batch:1 64)

let config_with_jobs jobs = Cmswitch.Config.(with_jobs jobs default)

let run () =
  section "E9 | Fig. 18: compilation overhead";
  let chip = Config.dynaplasia in
  (* at least 2 so the parallel column exercises the domain pool even when
     one core is recommended *)
  let par_jobs = max 2 (Pool.default_jobs ()) in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "compile wall-clock (mean of %d runs; parallel = %d jobs)" reps
           par_jobs)
      [ ("model", Table.Left); ("CIM-MLC (s)", Table.Right);
        ("CMSwitch jobs=1 (s)", Table.Right);
        (Printf.sprintf "CMSwitch jobs=%d (s)" par_jobs, Table.Right);
        ("par speedup", Table.Right); ("ratio vs MLC", Table.Right) ]
  in
  let cnn_times = ref [] and tf_times = ref [] in
  List.iter
    (fun key ->
      let g = graph_of key in
      let t_mlc =
        mean_time (fun () -> Baseline.compile Baseline.Cim_mlc chip g)
      in
      let t_cms =
        mean_time (fun () ->
            Cmswitch.compile ~config:(config_with_jobs 1) chip g)
      in
      let t_par =
        mean_time (fun () ->
            Cmswitch.compile ~config:(config_with_jobs par_jobs) chip g)
      in
      let e = Option.get (Zoo.find key) in
      (match e.Zoo.family with
      | Zoo.Cnn -> cnn_times := t_cms :: !cnn_times
      | Zoo.Encoder_only | Zoo.Decoder_only -> tf_times := t_cms :: !tf_times);
      Table.add_row tbl
        [ e.Zoo.display; Table.cell_f ~digits:3 t_mlc;
          Table.cell_f ~digits:3 t_cms; Table.cell_f ~digits:3 t_par;
          Table.cell_speedup (t_cms /. Float.max 1e-6 t_par);
          Table.cell_speedup (t_cms /. Float.max 1e-6 t_mlc) ])
    fig14_models;
  Table.print tbl;
  Printf.printf "CNN mean %.3fs vs transformer mean %.3fs (paper: CNNs ~2.5x transformers)\n"
    (Stats.mean !cnn_times) (Stats.mean !tf_times);
  Printf.printf "paper: CMSwitch compile time 2.8-6.3x CIM-MLC\n";
  (* LP-core ablation: the same serial compile with each LP backend, total
     LP solve cost read from the solver's own wall-clock counters (summed
     over every branch-and-bound relaxation of the compile). The revised
     simplex owes its margin to warm-started re-solves + the factorized
     basis; the dense tableau rebuilds from scratch at every node. *)
  let config_with_backend backend =
    Cmswitch.Config.(with_jobs 1 (with_lp_backend backend default))
  in
  let lp_reps = 7 in
  let lp_tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "LP solve wall-clock per compile: revised simplex vs dense tableau \
            (min of %d compiles)" lp_reps)
      [ ("model", Table.Left); ("dense (s)", Table.Right);
        ("revised (s)", Table.Right); ("dense pivots", Table.Right);
        ("revised pivots", Table.Right); ("LP speedup", Table.Right) ]
  in
  List.iter
    (fun key ->
      let g = graph_of key in
      (* min over interleaved repetitions: the totals are a few
         milliseconds, so a single GC pause or scheduler hiccup skews any
         one run. Taking each backend's per-compile minimum is the
         standard noise-robust estimate, and alternating backends within
         the rep loop keeps transient machine load from landing on only
         one side of the ratio. The pivot counts are deterministic — any
         rep reports the same. *)
      let measure backend wall_counter pivot_counter =
        Metrics.set_enabled true;
        Metrics.reset ();
        ignore
          (Cmswitch.compile ~config:(config_with_backend backend) chip g);
        let wall = Metrics.counter_value (Metrics.counter wall_counter) in
        let pivots = Metrics.counter_value (Metrics.counter pivot_counter) in
        Metrics.set_enabled false;
        Metrics.reset ();
        (wall, pivots)
      in
      let d_wall = ref infinity and r_wall = ref infinity in
      let d_pivots = ref 0. and r_pivots = ref 0. in
      for _ = 1 to lp_reps do
        let dw, dp =
          measure Milp.Dense "solver.lp_dense.wall_seconds"
            "solver.lp_dense.pivots"
        in
        let rw, rp =
          measure Milp.Revised "solver.lp.wall_seconds"
            "solver.simplex.pivots"
        in
        if dw < !d_wall then d_wall := dw;
        if rw < !r_wall then r_wall := rw;
        d_pivots := dp;
        r_pivots := rp
      done;
      let d_wall = !d_wall and r_wall = !r_wall in
      let d_pivots = !d_pivots and r_pivots = !r_pivots in
      Table.add_row lp_tbl
        [ key; Table.cell_f ~digits:4 d_wall; Table.cell_f ~digits:4 r_wall;
          Table.cell_f ~digits:0 d_pivots; Table.cell_f ~digits:0 r_pivots;
          Table.cell_speedup (d_wall /. Float.max 1e-9 r_wall) ])
    [ "bert-large"; "llama2-7b" ];
  Table.print lp_tbl
