module Chip = Cim_arch.Chip
module Pool = Cim_util.Pool
module Trace = Cim_obs.Trace

type options = {
  alloc : Alloc.options;
  max_segment_ops : int;
  jobs : int;
  cache : Cim_cache.Store.t option;
}

let default_options =
  { alloc = Alloc.default_options; max_segment_ops = 10;
    jobs = Pool.default_jobs (); cache = None }

type stats = {
  mip_solves : int;
  mip_cache_hits : int;
  candidates : int;
  pruned_infeasible : int;
}

(* The window signature keys the memo and the seg tier: two windows with
   equal signatures have the same MILP, so identical transformer blocks
   solve once. Per operator it holds the cost constants ([%h] floats, so
   byte-exact), each dependency inside the window as its distance back
   ("d<i-d>,"), in deps order, and a closing '|'.

   The pieces are built once per run, not once per window: each operator's
   constants fragment, and its deps fewer than [max_segment_ops] positions
   back (no window is longer), each with its text. A window [lo, hi]
   concatenates them and keeps the deps at or after [lo]. The sub-operators
   of one node are consecutive, hold one physical deps list and mostly
   equal constants, so a fragment is formatted once per run of equal
   operators and a deps list is scanned in full once per run holding it. *)
type pieces = {
  consts : string array;
  near_deps : (int * string) list array;
}

let same_consts (a : Opinfo.t) (b : Opinfo.t) =
  let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  same_bits a.macs b.macs && same_bits a.ai b.ai
  && a.min_compute_arrays = b.min_compute_arrays && a.in_bytes = b.in_bytes
  && a.out_bytes = b.out_bytes && a.weight_bytes = b.weight_bytes

let pieces ~max_segment_ops (ops : Opinfo.t array) =
  let n = Array.length ops in
  let consts = Array.make n "" and near_deps = Array.make n [] in
  let recent = ref [] in  (* the run's deps that any of its windows can hold *)
  for i = 0 to n - 1 do
    let op = ops.(i) in
    consts.(i) <-
      (if i > 0 && same_consts ops.(i - 1) op then consts.(i - 1)
       else
         Printf.sprintf "%h:%h:%d:%d:%d:%d;" op.macs op.ai
           op.min_compute_arrays op.in_bytes op.out_bytes op.weight_bytes);
    if i = 0 || ops.(i - 1).deps != op.deps then
      recent := List.filter (fun d -> d > i - max_segment_ops) op.deps;
    near_deps.(i) <-
      List.filter_map
        (fun d ->
          if d > i - max_segment_ops && d < i then
            Some (d, Printf.sprintf "d%d," (i - d))
          else None)
        !recent
  done;
  { consts; near_deps }

let signature buf p ~lo ~hi =
  Buffer.clear buf;
  for i = lo to hi do
    Buffer.add_string buf p.consts.(i);
    List.iter
      (fun (d, text) -> if d >= lo then Buffer.add_string buf text)
      p.near_deps.(i);
    Buffer.add_char buf '|'
  done;
  Buffer.contents buf

(* One solved window, as produced on a (possibly worker) domain: the plan,
   the degradation events the solve fired, and its buffered trace spans.
   Events and spans are replayed by the coordinator in task-submission
   order, so callbacks and the trace are identical whatever the job
   count. *)
type solved = {
  plan : Plan.seg_plan option;
  events : Degrade.event list;     (* in firing order *)
  spans : Trace.event list;        (* in recording order *)
}

(* The allocation modes every window is solved in: the configured MILP
   first, then the same MILP restricted to compute mode (CIM-MLC's
   allocation). Each MILP maximises throughput alone and Eq. 2's rewrite
   enters only in the DP, so a window's dual-mode plan can lose to its
   compute-only one on the whole window cost; the DP fold picks. A
   configuration that already forces all-compute has the one mode. *)
type mode = {
  alloc : Alloc.options;
  memo : (string, Plan.seg_plan option) Hashtbl.t;  (* by window signature *)
}

let modes (alloc : Alloc.options) =
  List.map
    (fun alloc -> { alloc; memo = Hashtbl.create 256 })
    (if alloc.Alloc.force_all_compute then [ alloc ]
     else [ alloc; { alloc with Alloc.force_all_compute = true } ])

(* One DP track: best.(j) = minimal cost of scheduling ops 0..j-1 (so
   best.(0) = 0), path.(j) = the segments realising it, last first. *)
type track = { best : float array; path : Plan.seg_plan list array }

let track m =
  let t = { best = Array.make (m + 1) infinity; path = Array.make (m + 1) [] } in
  t.best.(0) <- 0.;
  t

let run ?(options = default_options) ?on_stage chip (ops : Opinfo.t array) =
  if options.jobs < 1 then
    invalid_arg
      (Printf.sprintf "Segment.run: jobs must be >= 1, got %d" options.jobs);
  let m = Array.length ops in
  let ctx = Plan.make_ctx ops in
  let pieces = pieces ~max_segment_ops:options.max_segment_ops ops in
  let sig_buf = Buffer.create 1024 in
  let modes = modes options.alloc in
  let cache_mutex = Mutex.create () in
  let cache_find mode signature =
    Mutex.lock cache_mutex;
    let r = Hashtbl.find_opt mode.memo signature in
    Mutex.unlock cache_mutex;
    r
  in
  let cache_store mode signature v =
    Mutex.lock cache_mutex;
    Hashtbl.replace mode.memo signature v;
    Mutex.unlock cache_mutex
  in
  (* the persistent tier rides behind the in-memory memo tables, keyed by
     the mode's own allocation options and the signature, consulted
     by the coordinator during the memo scan so hits replay in the same
     deterministic order as memo hits, filled by the solving task. Entries
     are revalidated against the live window before being trusted — a
     stale or corrupted entry is a miss, never a wrong plan. *)
  let store_key mode signature =
    Ccache.seg_key ~chip ~alloc:mode.alloc ~signature
  in
  let persist_find ~lo ~hi mode signature =
    match options.cache with
    | None -> None
    | Some store -> (
      match
        Cim_cache.Store.find store ~tier:Ccache.seg_tier
          ~key:(store_key mode signature)
      with
      | None -> None
      | Some payload -> (
        match Ccache.seg_payload_of_string ~chip ~ops ~lo ~hi payload with
        | Ok plan ->
          cache_store mode signature plan;
          Some plan
        | Error _ ->
          Cim_cache.Store.note_invalid store ~tier:Ccache.seg_tier;
          None))
  in
  let persist_put mode signature plan =
    match options.cache with
    | None -> ()
    | Some store ->
      Cim_cache.Store.put store ~tier:Ccache.seg_tier
        ~key:(store_key mode signature)
        ~payload:(Ccache.seg_payload_to_string plan)
  in
  let solves = ref 0 and hits = ref 0 and cands = ref 0 and pruned = ref 0 in
  (* nested parallelism guard: a Segment.run reached from inside a pool
     worker (parallel bench sweeps, parallel model compiles) runs serial
     rather than multiplying domain counts *)
  let jobs =
    match Pool.current_worker () with Some _ -> 1 | None -> options.jobs
  in
  let solve_window mode ~lo ~hi =
    let local_events = ref [] in
    let local_on_stage e = local_events := e :: !local_events in
    let plan, spans =
      Trace.with_buffer (fun () ->
          Trace.with_span "milp.segment" ~cat:"solver"
            ~args:[ ("lo", Cim_obs.Json.Int lo); ("hi", Cim_obs.Json.Int hi) ]
            (fun () ->
              Degrade.solve ~options:mode.alloc ~on_stage:local_on_stage chip
                ops ~lo ~hi))
    in
    { plan; events = List.rev !local_events; spans }
  in
  if m = 0 then ([], { mip_solves = 0; mip_cache_hits = 0; candidates = 0;
                       pruned_infeasible = 0 })
  else begin
    let pool =
      if jobs = 1 then None
      else begin
        if Trace.enabled () then
          for i = 0 to jobs - 1 do
            Trace.name_thread ~pid:Trace.pid_compiler ~tid:(2 + i)
              (Printf.sprintf "solver worker %d" i)
          done;
        Some
          (Pool.create ~name:"segment"
             ~on_worker_start:(fun i -> Trace.set_domain_tid (2 + i))
             ~jobs ())
      end
    in
    Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool)
    @@ fun () ->
    (* the main track takes every mode's plan; the compute-only track is
       exactly the DP of a compute-only compile, and the main track adopts
       it at any boundary where it is cheaper, so the DP's objective never
       exceeds CIM-MLC's *)
    let main = track m in
    let compute_only = if List.length modes > 1 then Some (track m) else None in
    (* [plan] may have been solved for an identical window elsewhere: the
       inter-segment cost reads it only through position-free totals, so it
       is priced as found and re-anchored at [lo] only when it wins *)
    let relax t ~lo ~j plan =
      if t.best.(lo) < infinity then begin
        let prev = match t.path.(lo) with [] -> None | p :: _ -> Some p in
        let ic = Plan.inter_segment_cost chip ctx ~prev ~cur:plan in
        let cost = t.best.(lo) +. plan.Plan.intra_cycles +. Plan.inter_total ic in
        if cost < t.best.(j + 1) then begin
          t.best.(j + 1) <- cost;
          t.path.(j + 1) <- Plan.shift ~lo plan :: t.path.(lo)
        end
      end
    in
    let n_modes = List.length modes in
    for j = 0 to m - 1 do
      (* frontier j: first gather the candidate windows [i, j] (the cheap
         feasibility walk of Alg. 1 line 9), then solve every (window,
         mode) not already memoised concurrently, then fold the DP
         serially — the windows are mutually independent, the DP
         recurrence is not *)
      let candidates = ref [] in
      let i = ref j and stop = ref false in
      while (not !stop) && !i >= 0 && j - !i < options.max_segment_ops do
        cands := !cands + n_modes;
        if Opinfo.total_min_arrays ops ~lo:!i ~hi:j > chip.Chip.n_arrays then begin
          (* growing the window leftwards only adds operators *)
          pruned := !pruned + n_modes;
          stop := true
        end
        else begin
          candidates := !i :: !candidates;
          decr i
        end
      done;
      (* i descending from j; per window, the modes in order. Each (window,
         mode) is looked up once, in the memo tables and then the
         persistent tier: memo-resident windows cost no solve. (Windows of
         one frontier differ in length, so they never share a signature.)
         The tables are filled by the solving task under their lock. *)
      let looked_up =
        List.concat_map
          (fun lo ->
            let sg = signature sig_buf pieces ~lo ~hi:j in
            List.map
              (fun mode ->
                let found =
                  match cache_find mode sg with
                  | Some _ as hit -> hit
                  | None -> persist_find ~lo ~hi:j mode sg
                in
                incr (if Option.is_none found then solves else hits);
                (lo, mode, sg, found))
              modes)
          (List.rev !candidates)
      in
      let results =
        let task (lo, mode, sg, _) =
          let s = solve_window mode ~lo ~hi:j in
          cache_store mode sg s.plan;
          persist_put mode sg s.plan;
          s
        in
        let to_solve =
          List.filter (fun (_, _, _, found) -> Option.is_none found) looked_up
        in
        match pool with
        | None -> List.map task to_solve
        | Some p -> Pool.map_list p task to_solve
      in
      (* deterministic join: replay buffered spans and degradation events in
         task-submission order, whatever order the workers finished in *)
      List.iter
        (fun s ->
          Trace.merge s.spans;
          match on_stage with
          | None -> ()
          | Some f -> List.iter f s.events)
        results;
      (* serial DP fold over the frontier, same order as the serial scan;
         the solved windows' plans come back in submission order *)
      let rec fold looked_up results =
        match looked_up with
        | [] -> ()
        | (lo, mode, _, found) :: rest ->
          let plan, results =
            match found, results with
            | Some plan, _ -> (plan, results)
            | None, s :: results -> (s.plan, results)
            | None, [] -> assert false
          in
          Option.iter
            (fun plan ->
              relax main ~lo ~j plan;
              match compute_only with
              | Some t when mode.alloc.Alloc.force_all_compute ->
                relax t ~lo ~j plan
              | _ -> ())
            plan;
          fold rest results
      in
      fold looked_up results;
      Option.iter
        (fun t ->
          if t.best.(j + 1) < main.best.(j + 1) then begin
            main.best.(j + 1) <- t.best.(j + 1);
            main.path.(j + 1) <- t.path.(j + 1)
          end)
        compute_only
    done;
    if main.best.(m) = infinity then
      failwith "Segment.run: no feasible segmentation (operator exceeds chip)";
    ( List.rev main.path.(m),
      { mip_solves = !solves; mip_cache_hits = !hits; candidates = !cands;
        pruned_infeasible = !pruned } )
  end
