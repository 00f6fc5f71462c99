(* [perf.exe compare OLD NEW]: medians, quartiles, deltas and a verdict
   for every workload x metric of two sets of runs. OLD and NEW are run
   logs (a run's standard output) or directories of [*.jsonl] logs.
   Bounds and directions come from BENCHMARK.json. *)

module J = Cim_obs.Json

type run = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  fingerprint : (string * string) list;
}

let str = function Some (J.String s) -> s | _ -> ""
let num j = Option.value (Option.bind j J.to_float) ~default:0.
let int j = int_of_float (num j)

let obj = function Some (J.Obj kvs) -> kvs | _ -> []

let run_of ~info result =
  {
    workload = str (J.member "workload" info);
    seed = int (J.member "seed" info);
    traced = int (J.member "trace" info) = 1;
    attempted = int (J.member "attempted" result);
    failed = int (J.member "failed" result);
    metrics =
      List.map (fun (k, v) -> (k, num (J.member "value" v))) (obj (J.member "metrics" result));
    fingerprint = List.map (fun (k, v) -> (k, str (Some v))) (obj (J.member "fingerprint" info));
  }

(* A result line pairs with the info line printed just before it. *)
let runs_of_lines lines =
  let rec go info acc = function
    | [] -> List.rev acc
    | l :: rest -> (
      match J.of_string l with
      | exception J.Parse_error _ -> go info acc rest
      | j when J.member "metrics" j <> None -> (
        match info with
        | Some i -> go None (run_of ~info:i j :: acc) rest
        | None -> go None acc rest)
      | j when J.member "workload" j <> None -> go (Some j) acc rest
      | _ -> go info acc rest)
  in
  go None [] lines

let read_runs path =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      |> List.sort compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  List.concat_map (fun f -> runs_of_lines (In_channel.with_open_text f In_channel.input_lines)) files

(* (name, lower is better, bound) — per-layer metrics carry no bound. *)
type spec = { name : string; lower_better : bool; bound : float option }

let read_spec path =
  let j = J.of_string (In_channel.with_open_text path In_channel.input_all) in
  let entries key =
    match J.member key j with
    | Some (J.List l) ->
      List.map
        (fun m ->
          { name = str (J.member "name" m);
            lower_better = str (J.member "better" m) = "lower";
            bound = Option.bind (J.member "bound" m) J.to_float })
        l
    | _ -> []
  in
  (entries "end_to_end", entries "per_layer")

type verdict = Better | Worse | Unchanged | Unresolved | Info

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "WORSE"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"
  | Info -> "-"

(* How much worse [a] is than [b], as a share of [b] (negative: better). *)
let worse_by ~lower_better a b =
  let d = if lower_better then a -. b else b -. a in
  if b <> 0. then d /. Float.abs b else if d = 0. then 0. else Float.copy_sign infinity d

(* Noisy metric: worse beyond the bound, unresolved when either side's
   spread exceeds the bound (unless every new run beats every old run),
   better when both sides have at least ten runs, the gain exceeds the old
   side's spread and the new side wins at least nine in ten cross pairs,
   unchanged otherwise. *)
let verdict ~lower_better ~bound ~old_ ~new_ =
  let rel = worse_by ~lower_better (Measure.median new_) (Measure.median old_) in
  let spread_old = Measure.spread old_ in
  let pairs = List.concat_map (fun o -> List.map (fun n -> (o, n)) new_) old_ in
  let wins = List.length (List.filter (fun (o, n) -> worse_by ~lower_better n o < 0.) pairs) in
  let all_better = wins = List.length pairs in
  let enough = min (List.length old_) (List.length new_) >= 10 in
  if Float.max spread_old (Measure.spread new_) > bound && not all_better then Unresolved
  else if rel > bound then Worse
  else if enough && -.rel > spread_old && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
  then Better
  else Unchanged

(* Deterministic metric: seed by seed, any change counts. *)
let exact_verdict ~lower_better pairs =
  if pairs = [] then Unresolved
  else if List.for_all (fun (o, n) -> o = n) pairs then Unchanged
  else if List.exists (fun (o, n) -> worse_by ~lower_better n o > 0.) pairs then Worse
  else Better

let values name runs = List.filter_map (fun r -> List.assoc_opt name r.metrics) runs

let by_seed name runs =
  List.filter_map (fun r -> Option.map (fun v -> (r.seed, v)) (List.assoc_opt name r.metrics)) runs

let fail_ratio runs =
  let a = List.fold_left (fun acc r -> acc + r.attempted) 0 runs in
  let f = List.fold_left (fun acc r -> acc + r.failed) 0 runs in
  if a = 0 then 0. else float_of_int f /. float_of_int a

(* Output fingerprints, seed by seed: unchanged only when every run of a
   common seed, old and new, printed the same digest. *)
let fingerprint_status fp ~old_ ~new_ =
  let digests runs seed =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> if r.seed = seed then List.assoc_opt fp r.fingerprint else None)
         runs)
  in
  let seeds =
    List.sort_uniq compare (List.map (fun r -> r.seed) old_)
    |> List.filter (fun s -> List.exists (fun r -> r.seed = s) new_)
  in
  if seeds = [] then "no common seed"
  else if
    List.for_all
      (fun s ->
        let a = digests old_ s in
        a = digests new_ s && List.length a = 1)
      seeds
  then "unchanged"
  else "changed"

let rel_change a b = if b <> 0. then (a -. b) /. Float.abs b else 0.

let fmt_q xs =
  let q1, q2, q3 = Measure.quartiles xs in
  Printf.sprintf "%12.5g [%.5g, %.5g]" q2 q1 q3

(* Prints the comparison; returns true when NEW regressed: a metric got
   worse beyond its bound, or the failure ratio rose. *)
let run ~spec ~old_path ~new_path =
  let e2e, per_layer = read_spec spec in
  let old_runs = read_runs old_path and new_runs = read_runs new_path in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (old_runs @ new_runs))
  in
  let regressed = ref false in
  Printf.printf "%-12s %-36s %-34s %-34s %9s  %s\n" "workload" "metric" "old median [q1, q3]"
    "new median [q1, q3]" "delta" "verdict";
  List.iter
    (fun wl ->
      let pick traced runs = List.filter (fun r -> r.workload = wl && r.traced = traced) runs in
      List.iter
        (fun (traced, specs) ->
          let o = pick traced old_runs and n = pick traced new_runs in
          List.iter
            (fun s ->
              let ov = values s.name o and nv = values s.name n in
              if ov <> [] && nv <> [] then begin
                let v =
                  match s.bound with
                  | None -> Info
                  | Some _ when List.mem s.name Report.deterministic ->
                    let ns = by_seed s.name n in
                    exact_verdict ~lower_better:s.lower_better
                      (List.filter_map
                         (fun (seed, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt seed ns))
                         (by_seed s.name o))
                  | Some bound -> verdict ~lower_better:s.lower_better ~bound ~old_:ov ~new_:nv
                in
                if v = Worse then regressed := true;
                Printf.printf "%-12s %-36s %-34s %-34s %+8.2f%%  %s\n" wl s.name (fmt_q ov) (fmt_q nv)
                  (100. *. rel_change (Measure.median nv) (Measure.median ov))
                  (verdict_to_string v)
              end)
            specs;
          if o <> [] && n <> [] then begin
            let fo = fail_ratio o and fn = fail_ratio n in
            let rose = fn > fo in
            if rose then regressed := true;
            Printf.printf "%-12s %-36s %-34.6f %-34.6f %9s  %s\n" wl "failed/attempted" fo fn ""
              (if rose then "WORSE" else "unchanged");
            let fps = List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.fingerprint) (o @ n)) in
            List.iter
              (fun fp ->
                Printf.printf "%-12s %-36s %s\n" wl ("fingerprint " ^ fp)
                  (fingerprint_status fp ~old_:o ~new_:n))
              fps
          end)
        [ (false, e2e); (true, per_layer) ])
    workloads;
  !regressed
