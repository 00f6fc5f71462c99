(* The benchmark's command line.

     perf.exe [run] --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
     perf.exe compare OLD NEW [--spec BENCHMARK.json]

   A run prints one info line (workload, seed, sample counts, tail
   percentile, output fingerprint, failures) and, as its last line, the
   result object {correct, attempted, failed, metrics}. Progress and the
   traced self-time table go to standard error. *)

open Perf_bench

let work_dir = "_perf"

let usage () =
  prerr_endline
    "usage: perf.exe [run] --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
    \       perf.exe compare OLD NEW [--spec BENCHMARK.json]";
  exit 2

let run_cmd args =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " Workloads.names);
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run: per-layer metrics and a Chrome trace");
      ("--smoke", Arg.Set smoke, " about 1/50 of the load") ]
  in
  (try Arg.parse_argv ~current:(ref 0) args spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) "perf.exe run"
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  if !trace <> 0 && !trace <> 1 then usage ();
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None -> prerr_endline ("unknown workload '" ^ !workload ^ "'"); usage ()
  in
  (* one domain: the whole stack sizes its pools from this *)
  Unix.putenv "CMSWITCH_JOBS" "1";
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
  let traced = !trace = 1 in
  let ctx = { Workloads.seed = !seed; seconds = !seconds; traced; smoke = !smoke; work_dir } in
  let trace_file =
    if traced then Some (Filename.concat work_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed))
    else None
  in
  Printf.eprintf "perf: %s seed=%d seconds=%g trace=%d%s\n%!" !workload !seed !seconds !trace
    (if !smoke then " smoke" else "");
  let o = Runner.run ?trace_file ctx !workload w in
  let catalogue = if traced then Report.per_layer else Report.end_to_end in
  print_endline (Cim_obs.Json.to_string (Cim_obs.Json.Obj o.Runner.info));
  print_endline (Report.result_line ~attempted:o.Runner.attempted ~failed:o.Runner.failed
                   (Report.metrics_json catalogue o.Runner.metrics));
  (* leave nothing behind but requested traces *)
  (try Unix.rmdir work_dir with Unix.Unix_error _ -> ())

let () =
  let argv = Sys.argv in
  match Array.to_list argv with
  | _ :: "compare" :: rest -> (
    let spec = ref "BENCHMARK.json" and paths = ref [] in
    (try
       Arg.parse_argv ~current:(ref 0)
         (Array.of_list (argv.(0) :: rest))
         [ ("--spec", Arg.Set_string spec, "F  BENCHMARK.json with the bounds") ]
         (fun p -> paths := !paths @ [ p ])
         "perf.exe compare OLD NEW"
     with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
    match !paths with
    | [ old_path; new_path ] ->
      if Compare.run ~spec:!spec ~old_path ~new_path then exit 1
    | _ -> usage ())
  | _ :: "run" :: rest -> run_cmd (Array.of_list (argv.(0) :: rest))
  | _ -> run_cmd argv
