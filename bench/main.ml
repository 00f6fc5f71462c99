(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index). With no argument,
   runs every experiment in order; pass experiment ids ("e3 e5") to run a
   subset, or "solver" for the per-MILP revised-vs-dense LP table.
   Wall-clock performance is measured by bench/perf. *)

let experiments =
  [
    ("e1", "Fig. 1(b)/5(a)(b): performance vs compute/memory split", E01_heatmap.run);
    ("e2", "Figs. 5(c)/6: arithmetic intensity", E02_intensity.run);
    ("e3", "Fig. 14: end-to-end speedup vs baselines", E03_end_to_end.run);
    ("e4", "Fig. 15: compute/memory allocation demonstration", E04_allocation.run);
    ("e5", "Fig. 16: workload-scale sensitivity", E05_workload_scale.run);
    ("e6", "Fig. 17: generative-model sweeps", E06_generative.run);
    ("e7", "S5.5: dual-mode switch overhead", E07_overhead.run);
    ("e8", "S5.5: PRIME scalability", E08_prime.run);
    ("e9", "Fig. 18: compilation overhead", E09_compile_time.run);
    ("e10", "Table 2 + Fig. 4: configuration and mapping contrast", E10_config.run);
    ("e11", "ablations: partitioning, DP window, MIP vs greedy, Eq. 9 vs DES", E11_ablation.run);
    ("e12", "energy and EDP, dual-mode vs all-compute", E12_energy.run);
    ("e14", "fleet serving: load sweep with runtime faults", E14_fleet.run);
    ("e15", "telemetry overhead: fleet run with observability off/on", E15_telemetry.run);
    ("e18", "MMIO command-stream ISA: lowered stream sizes", E18_isa.run);
    ("solver", "per-MILP solver cost, revised vs dense backend", Solver.run);
  ]

let usage () =
  print_endline
    "usage: main.exe [e1 .. e18 | solver | all] ... [--csv DIR] [--json FILE]";
  List.iter (fun (id, desc, _) -> Printf.printf "  %-5s %s\n" id desc) experiments

(* Sys.mkdir is not recursive; "--csv out/csv" must create "out" first. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir && parent <> "." then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

module J = Cim_obs.Json

(* collected via the Table sink: every printed table becomes one JSON
   record, numeric-looking cells lifted to JSON numbers *)
let json_tables : J.t list ref = ref []

let cell_to_json c =
  match int_of_string_opt c with
  | Some i -> J.Int i
  | None -> begin
    match float_of_string_opt c with
    | Some f when Float.is_finite f -> J.Float f
    | Some _ | None -> J.String c
  end

let collect_table t =
  let title =
    match Cim_util.Table.title t with Some s -> J.String s | None -> J.Null
  in
  json_tables :=
    J.Obj
      [ ("title", title);
        ("headers", J.List (List.map (fun h -> J.String h) (Cim_util.Table.headers t)));
        ("rows",
         J.List
           (List.map
              (fun row -> J.List (List.map cell_to_json row))
              (Cim_util.Table.data_rows t))) ]
    :: !json_tables

let write_json file =
  let doc =
    J.Obj
      [ ("harness", J.String "cmswitch-bench");
        ("experiments", J.List (List.rev !json_tables)) ]
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string ~pretty:true doc));
  Printf.printf "json results written to %s\n" file

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --csv DIR: additionally dump every printed table as CSV into DIR;
     --json FILE: dump every printed table's rows as one JSON document *)
  let json_file = ref None in
  let rec strip_flags acc = function
    | "--csv" :: dir :: rest ->
      mkdir_p dir;
      Cim_util.Table.set_csv_dir (Some dir);
      strip_flags acc rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      Cim_util.Table.set_sink (Some collect_table);
      strip_flags acc rest
    | x :: rest -> strip_flags (x :: acc) rest
    | [] -> List.rev acc
  in
  let args = strip_flags [] args in
  let requested = if args = [] then [ "all" ] else args in
  if List.mem "-h" requested || List.mem "--help" requested then usage ()
  else begin
    print_endline "CMSwitch evaluation harness (paper: ASPLOS'25)";
    List.iter
      (fun req ->
        if req = "all" then
          List.iter
            (fun (id, _, f) -> if id <> "solver" then f ())
            experiments
        else
          match List.find_opt (fun (id, _, _) -> id = req) experiments with
          | Some (_, _, f) -> f ()
          | None ->
            Printf.printf "unknown experiment %S\n" req;
            usage ();
            exit 1)
      requested;
    Option.iter write_json !json_file
  end
