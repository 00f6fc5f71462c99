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

(* The window signature keys the slots and the seg tier: two windows with
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
   Events and spans are replayed by the calling domain in queue order, so
   callbacks and the trace are identical whatever the job count. *)
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
let modes (alloc : Alloc.options) =
  if alloc.Alloc.force_all_compute then [| alloc |]
  else [| alloc; { alloc with Alloc.force_all_compute = true } |]

(* A window the scan queued for solving: the slot its plan fills, and the
   mode and signature its seg-tier entry is written under. *)
type miss =
  { slot : int; alloc : Alloc.options; lo : int; hi : int; signature : string }

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
  if options.max_segment_ops < 1 then
    invalid_arg
      (Printf.sprintf "Segment.run: max_segment_ops must be >= 1, got %d"
         options.max_segment_ops);
  let m = Array.length ops in
  let modes = modes options.alloc in
  let n_modes = Array.length modes in
  (* the persistent tier, keyed by the mode's own allocation options and
     the signature. Entries are revalidated against the live window before
     being trusted — a stale or corrupted entry is a miss, never a wrong
     plan. *)
  let store_key alloc signature = Ccache.seg_key ~chip ~alloc ~signature in
  let persist_find ~lo ~hi alloc signature =
    match options.cache with
    | None -> None
    | Some store -> (
      match
        Cim_cache.Store.find store ~tier:Ccache.seg_tier
          ~key:(store_key alloc signature)
      with
      | None -> None
      | Some payload -> (
        match Ccache.seg_payload_of_string ~chip ~ops ~lo ~hi payload with
        | Ok plan -> Some plan
        | Error _ ->
          Cim_cache.Store.note_invalid store ~tier:Ccache.seg_tier;
          None))
  in
  (* 1. Scan. Walk every frontier j's candidate windows [i, j], i
     descending from j (the cheap feasibility walk of Alg. 1 line 9), and
     give each distinct (mode, signature) one slot: identical windows
     (transformer blocks) share it. A slot is looked up in the seg tier at
     its first occurrence and queued for solving on a miss, which counts
     as a solve; every other occurrence counts as a hit. Frontier j keeps
     one slot index per (window, mode): position k holds window
     [j - k / n_modes, j] in mode [k mod n_modes]. *)
  let pieces = pieces ~max_segment_ops:options.max_segment_ops ops in
  let sig_buf = Buffer.create 1024 in
  let slot_of = Array.map (fun _ -> Hashtbl.create 256) modes in
  let n_slots = ref 0 and found = ref [] and queue = ref [] in
  let solves = ref 0 and hits = ref 0 and cands = ref 0 and pruned = ref 0 in
  let slot k ~lo ~hi signature =
    match Hashtbl.find_opt slot_of.(k) signature with
    | Some s ->
      incr hits;
      s
    | None ->
      let s = !n_slots and alloc = modes.(k) in
      incr n_slots;
      Hashtbl.add slot_of.(k) signature s;
      (match persist_find ~lo ~hi alloc signature with
      | Some plan ->
        incr hits;
        found := (s, plan) :: !found
      | None ->
        incr solves;
        queue := { slot = s; alloc; lo; hi; signature } :: !queue);
      s
  in
  let buf = Array.make (n_modes * min options.max_segment_ops m) 0 in
  let frontiers =
    Array.init m (fun j ->
        let n = ref 0 and lo = ref j and stop = ref false in
        while (not !stop) && !lo >= 0 && j - !lo < options.max_segment_ops do
          cands := !cands + n_modes;
          if Opinfo.total_min_arrays ops ~lo:!lo ~hi:j > chip.Chip.n_arrays
          then begin
            (* growing the window leftwards only adds operators *)
            pruned := !pruned + n_modes;
            stop := true
          end
          else begin
            let sg = signature sig_buf pieces ~lo:!lo ~hi:j in
            for k = 0 to n_modes - 1 do
              buf.(!n) <- slot k ~lo:!lo ~hi:j sg;
              incr n
            done;
            decr lo
          end
        done;
        Array.sub buf 0 !n)
  in
  (* 2. Solve the queue as one batch: inline at jobs 1, one pool fan-out
     otherwise. Results are taken in queue order, and each one's spans and
     events are replayed and its seg-tier entry written as it arrives, so a
     solve that raises leaves every earlier solve's events delivered. *)
  let plans = Array.make !n_slots None in
  List.iter (fun (s, plan) -> plans.(s) <- plan) !found;
  let solve w =
    let events = ref [] in
    let plan, spans =
      Trace.with_buffer (fun () ->
          Trace.with_span "milp.segment" ~cat:"solver"
            ~args:[ ("lo", Cim_obs.Json.Int w.lo); ("hi", Cim_obs.Json.Int w.hi) ]
            (fun () ->
              Degrade.solve ~options:w.alloc
                ~on_stage:(fun e -> events := e :: !events)
                chip ops ~lo:w.lo ~hi:w.hi))
    in
    { plan; events = List.rev !events; spans }
  in
  let deliver w s =
    Trace.merge s.spans;
    Option.iter (fun f -> List.iter f s.events) on_stage;
    Option.iter
      (fun store ->
        Cim_cache.Store.put store ~tier:Ccache.seg_tier
          ~key:(store_key w.alloc w.signature)
          ~payload:(Ccache.seg_payload_to_string s.plan))
      options.cache;
    plans.(w.slot) <- s.plan
  in
  (match List.rev !queue with
  | [] -> ()
  | queue when options.jobs = 1 -> List.iter (fun w -> deliver w (solve w)) queue
  | queue ->
    Pool.with_pool ~name:"segment"
      ~on_worker_start:(fun i -> Trace.set_domain_tid (2 + i))
      ~jobs:options.jobs
      (fun pool ->
        if Trace.enabled () then
          for i = 0 to Pool.jobs pool - 1 do
            Trace.name_thread ~pid:Trace.pid_compiler ~tid:(2 + i)
              (Printf.sprintf "solver worker %d" i)
          done;
        List.map (fun w -> (w, Pool.submit pool (fun () -> solve w))) queue
        |> List.iter (fun (w, fut) -> deliver w (Pool.await fut))));
  (* 3. Fold the DP frontier by frontier over the slots, in the scan's
     order. The main track takes every mode's plan; the compute-only track
     is exactly the DP of a compute-only compile, and the main track adopts
     it at any boundary where it is cheaper, so the DP's objective never
     exceeds CIM-MLC's. *)
  let ctx = Plan.make_ctx ops in
  let main = track m in
  let compute_only = if n_modes > 1 then Some (track m) else None in
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
  for j = 0 to m - 1 do
    Array.iteri
      (fun k s ->
        Option.iter
          (fun plan ->
            let lo = j - (k / n_modes) in
            relax main ~lo ~j plan;
            match compute_only with
            | Some t when modes.(k mod n_modes).Alloc.force_all_compute ->
              relax t ~lo ~j plan
            | _ -> ())
          plans.(s))
      frontiers.(j);
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
