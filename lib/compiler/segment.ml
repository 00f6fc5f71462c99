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

(* Structural signature of a segment: identical windows (same per-op cost
   constants and same internal dependency pattern) have identical MIP
   solutions, so transformer layers hit the cache. Byte-exact constants go
   into the key. *)
let signature (ops : Opinfo.t array) ~lo ~hi =
  let buf = Buffer.create 128 in
  for i = lo to hi do
    let op = ops.(i) in
    Buffer.add_string buf
      (Printf.sprintf "%h:%h:%d:%d:%d:%d;" op.Opinfo.macs op.Opinfo.ai
         op.Opinfo.min_compute_arrays op.Opinfo.in_bytes op.Opinfo.out_bytes
         op.Opinfo.weight_bytes);
    List.iter
      (fun d ->
        if d >= lo && d < i then
          Buffer.add_string buf (Printf.sprintf "d%d," (i - d)))
      op.Opinfo.deps;
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
    let relax t ~lo ~j plan =
      if t.best.(lo) < infinity then begin
        let prev = match t.path.(lo) with [] -> None | p :: _ -> Some p in
        let ic = Plan.inter_segment_cost chip ctx ~prev ~cur:plan in
        let cost = t.best.(lo) +. plan.Plan.intra_cycles +. Plan.inter_total ic in
        if cost < t.best.(j + 1) then begin
          t.best.(j + 1) <- cost;
          t.path.(j + 1) <- plan :: t.path.(lo)
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
      (* i descending from j; per window, the modes in order *)
      let keyed =
        List.concat_map
          (fun lo ->
            let sg = signature ops ~lo ~hi:j in
            List.map (fun mode -> (lo, mode, sg)) modes)
          (List.rev !candidates)
      in
      (* consult the memo tables before enqueue: memo-resident windows
         cost no solve. (Windows of one frontier differ in length, so
         they never share a signature.) The tables are filled by the
         solving task under their lock. *)
      let to_solve =
        List.filter
          (fun (lo, mode, sg) ->
            let hit =
              cache_find mode sg <> None
              || persist_find ~lo ~hi:j mode sg <> None
            in
            incr (if hit then hits else solves);
            not hit)
          keyed
      in
      let results =
        let task (lo, mode, sg) =
          let s = solve_window mode ~lo ~hi:j in
          cache_store mode sg s.plan;
          persist_put mode sg s.plan;
          s
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
      (* serial DP fold over the frontier, same order as the serial scan *)
      List.iter
        (fun (lo, mode, sg) ->
          match Option.join (cache_find mode sg) with
          | None -> ()
          | Some plan -> (
            (* re-anchor a plan solved for an identical window here *)
            let plan = Plan.shift ~lo plan in
            relax main ~lo ~j plan;
            match compute_only with
            | Some t when mode.alloc.Alloc.force_all_compute ->
              relax t ~lo ~j plan
            | _ -> ()))
        keyed;
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
