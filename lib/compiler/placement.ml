module Chip = Cim_arch.Chip
module Mode = Cim_arch.Mode
module Faultmap = Cim_arch.Faultmap

type op_place = {
  uid : int;
  compute : Chip.coord list;
  in_place : Chip.coord list;
  mem_in : Chip.coord list;
  mem_out : Chip.coord list;
}

type seg_place = {
  plan : Plan.seg_plan;
  ops : op_place list;
  to_compute : Chip.coord list;
  to_memory : Chip.coord list;
}

(* Take [n] indices out of [pool] (a bool array of free arrays) that [can]
   serve the requested mode, preferring indices for which [prefer] holds —
   i.e. arrays already in the right mode. *)
let take pool ~can ~prefer n =
  let out = ref [] and remaining = ref n in
  let scan want_preferred =
    let i = ref 0 in
    while !remaining > 0 && !i < Array.length pool do
      if pool.(!i) && can !i && prefer !i = want_preferred then begin
        pool.(!i) <- false;
        out := !i :: !out;
        decr remaining
      end;
      incr i
    done
  in
  scan true;
  scan false;
  if !remaining > 0 then
    failwith
      (Printf.sprintf "Placement: chip capacity exceeded (%d arrays short)"
         !remaining);
  List.rev !out

(* Take specific indices if still free and usable; returns the subset
   obtained. *)
let take_specific pool ~can idxs =
  List.filter
    (fun i ->
      if i >= 0 && i < Array.length pool && pool.(i) && can i then begin
        pool.(i) <- false;
        true
      end
      else false)
    idxs

let place chip ?(initial_mode = Mode.Memory) ?faults (ops : Opinfo.t array)
    (plans : Plan.seg_plan list) =
  let n = chip.Chip.n_arrays in
  let usable target i =
    match faults with
    | None -> true
    | Some fm -> Faultmap.usable fm i ~target
  in
  let alive i =
    match faults with None -> true | Some fm -> not (Faultmap.is_dead fm i)
  in
  let can_compute = usable Mode.Compute and can_memory = usable Mode.Memory in
  (* stuck arrays live permanently in their stuck mode; the mode map must
     say so or the switch lists would try to move them *)
  let mode =
    Array.init n (fun i ->
        match faults with
        | None -> initial_mode
        | Some fm -> begin
          match Faultmap.fault_at fm i with
          | Some (Faultmap.Stuck_mode m) -> m
          | Some Faultmap.Dead | Some (Faultmap.Transient_switch_failure _)
          | None -> initial_mode
        end)
  in
  let coords = Array.init n (Chip.coord_of_index chip) in
  let coord i = coords.(i) in
  (* producer uid -> array indices holding its output at the end of the
     previous segment (candidates for the in-place K-cache switch) *)
  let prev_mem_out : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  List.map
    (fun (plan : Plan.seg_plan) ->
      let free = Array.init n alive in
      let is_compute i = mode.(i) = Mode.Compute in
      let is_memory i = mode.(i) = Mode.Memory in
      (* Per-op assignment in uid (topological) order: compute arrays prefer
         already-compute coordinates, memory buffers already-memory ones.
         A consumer's shared input buffers are drawn from the producer's
         already-placed output pool (Eq. 6 realised in place); the MIP's
         strengthened reuse constraints guarantee the pools are large
         enough. Each op is kept as array indices (compute, mem_in,
         mem_out) until the segment's switches are worked out. *)
      let mem_out_pool = Hashtbl.create 8 in
      let ops_idx =
        List.map
          (fun (a : Plan.op_alloc) ->
            let info = ops.(a.Plan.uid) in
            (* §5.3: a dynamic matmul's stationary operand (the K/V cache)
               may already sit in a previous segment's output buffers —
               claim those arrays as compute arrays and skip reprogramming *)
            let in_place =
              if info.Opinfo.kind = Cim_models.Intensity.Dynamic_matmul then begin
                let candidates =
                  List.concat_map
                    (fun d ->
                      Option.value (Hashtbl.find_opt prev_mem_out d) ~default:[])
                    info.Opinfo.deps
                in
                let capped = List.filteri (fun i _ -> i < a.Plan.com) candidates in
                take_specific free ~can:can_compute capped
              end
              else []
            in
            let compute_extra =
              take free ~can:can_compute ~prefer:is_compute
                (a.Plan.com - List.length in_place)
            in
            let mem_out =
              take free ~can:can_memory ~prefer:is_memory a.Plan.mem_out
            in
            Hashtbl.replace mem_out_pool a.Plan.uid mem_out;
            let shared_in =
              List.concat_map
                (fun (i, j, r) ->
                  if j <> a.Plan.uid then []
                  else
                    let pool =
                      Option.value (Hashtbl.find_opt mem_out_pool i) ~default:[]
                    in
                    List.filteri (fun k _ -> k < r) pool)
                plan.Plan.reuse
            in
            let shared_in = List.sort_uniq Int.compare shared_in in
            let mem_in_extra =
              take free ~can:can_memory ~prefer:is_memory
                (max 0 (a.Plan.mem_in - List.length shared_in))
            in
            ( a.Plan.uid, in_place, in_place @ compute_extra,
              List.sort Int.compare (shared_in @ mem_in_extra), mem_out ))
          plan.Plan.allocs
      in
      (* realised switches: whatever assignment disagrees with the current
         mode map *)
      let to_compute = ref [] and to_memory = ref [] in
      let claim target is =
        List.iter
          (fun i ->
            if mode.(i) <> target then begin
              (match target with
              | Mode.Compute -> to_compute := coord i :: !to_compute
              | Mode.Memory -> to_memory := coord i :: !to_memory);
              mode.(i) <- target
            end)
          is
      in
      List.iter
        (fun (_, _, compute, mem_in, mem_out) ->
          claim Mode.Compute compute;
          claim Mode.Memory mem_in;
          claim Mode.Memory mem_out)
        ops_idx;
      (* the next segment sees this one's output buffers *)
      Hashtbl.reset prev_mem_out;
      List.iter
        (fun (uid, _, _, _, mem_out) -> Hashtbl.replace prev_mem_out uid mem_out)
        ops_idx;
      let ops_placed =
        List.map
          (fun (uid, in_place, compute, mem_in, mem_out) ->
            {
              uid;
              compute = List.map coord compute;
              in_place = List.map coord in_place;
              mem_in = List.map coord mem_in;
              mem_out = List.map coord mem_out;
            })
          ops_idx
      in
      { plan; ops = ops_placed; to_compute = List.rev !to_compute;
        to_memory = List.rev !to_memory })
    plans

let realized_switches places =
  List.fold_left
    (fun (m2c, c2m) sp ->
      (m2c + List.length sp.to_compute, c2m + List.length sp.to_memory))
    (0, 0) places
