(* E9 — Fig. 18: compilation overhead. Wall-clock compile time of CMSwitch
   vs CIM-MLC per benchmark, in milliseconds with two decimals (a decoder
   layer compiles in a few ms). The paper averages 20 runs; we take the
   fastest of 20 ({!Common.best}, bench/perf's estimator), the sample
   least disturbed by other tenants of the machine. The paper also
   observes CNNs costing ~2.5x more compile time than transformers thanks
   to block reuse.

   Also records the serial-vs-parallel solver fan-out: the same CMSwitch
   compile at --jobs 1 and at the pooled job count, so the uploaded JSON
   carries the wall-clock effect of parallel segment solving (outputs are
   byte-identical by contract; only this column may move). *)

open Common

let reps = 20

(* wall clock, not Sys.time: parallel solves burn CPU seconds on every
   worker domain, which is exactly what this experiment must not count *)
let fastest f = snd (best reps f)

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
           "compile wall-clock (fastest of %d runs; parallel = %d jobs)" reps
           par_jobs)
      [ ("model", Table.Left); ("CIM-MLC (ms)", Table.Right);
        ("CMSwitch jobs=1 (ms)", Table.Right);
        (Printf.sprintf "CMSwitch jobs=%d (ms)" par_jobs, Table.Right);
        ("par speedup", Table.Right); ("ratio vs MLC", Table.Right) ]
  in
  let cnn_times = ref [] and tf_times = ref [] in
  List.iter
    (fun key ->
      let g = graph_of key in
      let t_mlc =
        fastest (fun () -> Baseline.compile Baseline.Cim_mlc chip g)
      in
      let t_cms =
        fastest (fun () ->
            Cmswitch.compile ~config:(config_with_jobs 1) chip g)
      in
      let t_par =
        fastest (fun () ->
            Cmswitch.compile ~config:(config_with_jobs par_jobs) chip g)
      in
      let e = Option.get (Zoo.find key) in
      (match e.Zoo.family with
      | Zoo.Cnn -> cnn_times := t_cms :: !cnn_times
      | Zoo.Encoder_only | Zoo.Decoder_only -> tf_times := t_cms :: !tf_times);
      let ms t = Table.cell_f ~digits:2 (1e3 *. t) in
      Table.add_row tbl
        [ e.Zoo.display; ms t_mlc; ms t_cms; ms t_par;
          Table.cell_speedup (t_cms /. Float.max 1e-6 t_par);
          Table.cell_speedup (t_cms /. Float.max 1e-6 t_mlc) ])
    fig14_models;
  Table.print tbl;
  Printf.printf
    "CNN mean %.2f ms vs transformer mean %.2f ms (paper: CNNs ~2.5x transformers)\n"
    (1e3 *. Stats.mean !cnn_times) (1e3 *. Stats.mean !tf_times);
  Printf.printf "paper: CMSwitch compile time 2.8-6.3x CIM-MLC\n"
