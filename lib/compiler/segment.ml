module Chip = Cim_arch.Chip
module Pool = Cim_util.Pool
module Trace = Cim_obs.Trace

type options = {
  alloc : Alloc.options;
  max_segment_ops : int;
  memoize : bool;
  jobs : int;
  cache : Cim_cache.Store.t option;
}

let default_options =
  { alloc = Alloc.default_options; max_segment_ops = 10; memoize = true;
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

let run ?(options = default_options) ?on_stage chip (ops : Opinfo.t array) =
  if options.jobs < 1 then
    invalid_arg
      (Printf.sprintf "Segment.run: jobs must be >= 1, got %d" options.jobs);
  let m = Array.length ops in
  let ctx = Plan.make_ctx ops in
  (* keys are signatures when memoizing, otherwise "lo:hi" (every window its
     own entry) — one table serves both modes *)
  let cache : (string, Plan.seg_plan option) Hashtbl.t = Hashtbl.create 256 in
  let cache_mutex = Mutex.create () in
  let cache_find key =
    Mutex.lock cache_mutex;
    let r = Hashtbl.find_opt cache key in
    Mutex.unlock cache_mutex;
    r
  in
  let cache_store key v =
    Mutex.lock cache_mutex;
    Hashtbl.replace cache key v;
    Mutex.unlock cache_mutex
  in
  (* the persistent tier rides behind the in-memory memo table: signatures
     only (positional "lo:hi" keys are meaningless across runs), consulted
     by the coordinator during the dedupe scan so hits replay in the same
     deterministic order as memo hits, filled by the solving task. Entries
     are revalidated against the live window before being trusted — a
     stale or corrupted entry is a miss, never a wrong plan. *)
  let persist = if options.memoize then options.cache else None in
  (* when the persistent tier is active [memoize] is on, so the memo key IS
     the window signature — the store key derives from it directly *)
  let store_key signature_key =
    Ccache.seg_key ~chip ~alloc:options.alloc ~signature:signature_key
  in
  let persist_find ~lo ~hi key =
    match persist with
    | None -> None
    | Some store -> (
      match
        Cim_cache.Store.find store ~tier:Ccache.seg_tier ~key:(store_key key)
      with
      | None -> None
      | Some payload -> (
        match Ccache.seg_payload_of_string ~chip ~ops ~lo ~hi payload with
        | Ok plan ->
          cache_store key plan;
          Some plan
        | Error _ ->
          Cim_cache.Store.note_invalid store ~tier:Ccache.seg_tier;
          None))
  in
  let persist_put key plan =
    match persist with
    | None -> ()
    | Some store ->
      Cim_cache.Store.put store ~tier:Ccache.seg_tier ~key:(store_key key)
        ~payload:(Ccache.seg_payload_to_string plan)
  in
  let solves = Atomic.make 0 and hits = Atomic.make 0 in
  let cands = Atomic.make 0 and pruned = Atomic.make 0 in
  (* nested parallelism guard: a Segment.run reached from inside a pool
     worker (parallel bench sweeps, parallel model compiles) runs serial
     rather than multiplying domain counts *)
  let jobs =
    match Pool.current_worker () with Some _ -> 1 | None -> options.jobs
  in
  let solve_window ~lo ~hi () =
    let local_events = ref [] in
    let local_on_stage e = local_events := e :: !local_events in
    let plan, spans =
      Trace.with_buffer (fun () ->
          Trace.with_span "milp.segment" ~cat:"solver"
            ~args:[ ("lo", Cim_obs.Json.Int lo); ("hi", Cim_obs.Json.Int hi) ]
            (fun () ->
              Degrade.solve ~options:options.alloc ~on_stage:local_on_stage
                chip ops ~lo ~hi))
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
    (* best.(j) = minimal cost of scheduling ops 0..j-1 (so best.(0) = 0);
       choice.(j) = (segment start i, plan) realising it. *)
    let best = Array.make (m + 1) infinity in
    let choice : (int * Plan.seg_plan) option array = Array.make (m + 1) None in
    best.(0) <- 0.;
    for j = 0 to m - 1 do
      (* frontier j: first gather the candidate windows [i, j] (the cheap
         feasibility walk of Alg. 1 line 9), then solve every window not
         already memoised concurrently, then fold the DP serially — the
         windows are mutually independent, the DP recurrence is not *)
      let candidates = ref [] in
      let i = ref j and stop = ref false in
      while (not !stop) && !i >= 0 && j - !i < options.max_segment_ops do
        Atomic.incr cands;
        if Opinfo.total_min_arrays ops ~lo:!i ~hi:j > chip.Chip.n_arrays then begin
          (* growing the window leftwards only adds operators *)
          Atomic.incr pruned;
          stop := true
        end
        else begin
          candidates := !i :: !candidates;
          decr i
        end
      done;
      let candidates = List.rev !candidates (* i descending from j *) in
      (* consult the memo cache before enqueue: within one frontier,
         windows sharing a signature cost one solve (first occurrence wins,
         exactly as the serial scan would) and cache-resident windows cost
         none. The cache is filled by the solving task under its lock. *)
      let keyed =
        List.map
          (fun lo ->
            let key =
              if options.memoize then signature ops ~lo ~hi:j
              else Printf.sprintf "%d:%d" lo j
            in
            (lo, key))
          candidates
      in
      let to_solve = ref [] and seen = Hashtbl.create 8 in
      List.iter
        (fun (lo, key) ->
          if
            Hashtbl.mem seen key
            || cache_find key <> None
            || persist_find ~lo ~hi:j key <> None
          then Atomic.incr hits
          else begin
            Hashtbl.add seen key ();
            Atomic.incr solves;
            to_solve := (lo, key) :: !to_solve
          end)
        keyed;
      let to_solve = List.rev !to_solve in
      let results =
        let task (lo, key) () =
          let s = solve_window ~lo ~hi:j () in
          cache_store key s.plan;
          persist_put key s.plan;
          s
        in
        match pool with
        | None -> List.map (fun tk -> task tk ()) to_solve
        | Some p -> Pool.map_list p (fun tk -> task tk ()) to_solve
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
        (fun (lo, key) ->
          match Option.join (cache_find key) with
          | None -> ()
          | Some plan ->
            (* re-anchor a plan solved for an identical window here *)
            let plan = Plan.shift ~lo plan in
            if best.(lo) < infinity then begin
              let prev = if lo = 0 then None else Option.map snd choice.(lo) in
              let ic = Plan.inter_segment_cost chip ctx ~prev ~cur:plan in
              let cost =
                best.(lo) +. plan.Plan.intra_cycles +. Plan.inter_total ic
              in
              if cost < best.(j + 1) then begin
                best.(j + 1) <- cost;
                choice.(j + 1) <- Some (lo, plan)
              end
            end)
        keyed
    done;
    if best.(m) = infinity then
      failwith "Segment.run: no feasible segmentation (operator exceeds chip)";
    (* backtrack *)
    let rec collect j acc =
      if j = 0 then acc
      else
        match choice.(j) with
        | None -> failwith "Segment.run: broken DP table"
        | Some (i, plan) -> collect i (plan :: acc)
    in
    let segments = collect m [] in
    ( segments,
      { mip_solves = Atomic.get solves; mip_cache_hits = Atomic.get hits;
        candidates = Atomic.get cands;
        pruned_infeasible = Atomic.get pruned } )
  end
