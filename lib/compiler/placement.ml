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

let place chip ?faults (ops : Opinfo.t array) (plans : Plan.seg_plan list) =
  let n = chip.Chip.n_arrays in
  let index (c : Chip.coord) = (c.Chip.y * chip.Chip.grid_cols) + c.Chip.x in
  let by_index a b = Int.compare (index a) (index b) in
  let rec ascending = function
    | a :: (b :: _ as rest) -> index a < index b && ascending rest
    | _ -> true
  in
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
  let mode = Array.init n (Faultmap.power_on_mode faults) in
  let coords = Array.init n (Chip.coord_of_index chip) in
  let free = Array.make n false in
  let picked = Array.make n 0 in
  (* Take [k] free arrays that [can] serve [target], those already in
     [target] mode first, each group in ascending index order. The picks
     go into [picked]; the list is consed from its end, so it comes out in
     pick order. *)
  let take ~can target k =
    let m = ref 0 in
    for pass = 0 to 1 do
      let i = ref 0 in
      while !m < k && !i < n do
        if free.(!i) && can !i && (mode.(!i) = target) = (pass = 0) then begin
          free.(!i) <- false;
          picked.(!m) <- !i;
          incr m
        end;
        incr i
      done
    done;
    if !m < k then
      failwith
        (Printf.sprintf "Placement: chip capacity exceeded (%d arrays short)"
           (k - !m));
    let l = ref [] in
    for j = !m - 1 downto 0 do
      l := coords.(picked.(j)) :: !l
    done;
    !l
  in
  (* [claim target acc cs]: the arrays of [cs] that move to [target] mode,
     consed onto [acc] *)
  let rec claim target acc = function
    | [] -> acc
    | c :: cs ->
      let i = index c in
      if mode.(i) = target then claim target acc cs
      else begin
        mode.(i) <- target;
        claim target (c :: acc) cs
      end
  in
  (* producer uid -> arrays holding its output at the end of the previous
     segment (candidates for the in-place K-cache switch) *)
  let prev_mem_out = ref (Hashtbl.create 1) in
  let outputs pool uid = Option.value (Hashtbl.find_opt pool uid) ~default:[] in
  List.map
    (fun (plan : Plan.seg_plan) ->
      for i = 0 to n - 1 do
        free.(i) <- alive i
      done;
      (* Per-op assignment in uid (topological) order: compute arrays prefer
         already-compute coordinates, memory buffers already-memory ones.
         A consumer's shared input buffers are drawn from the producer's
         already-placed output pool (Eq. 6 realised in place); the MIP's
         strengthened reuse constraints guarantee the pools are large
         enough. The mode map moves only after the whole segment is
         placed. *)
      let mem_out_pool = Hashtbl.create 8 in
      let placed =
        List.map
          (fun (a : Plan.op_alloc) ->
            let info = ops.(a.Plan.uid) in
            (* §5.3: a dynamic matmul's stationary operand (the K/V cache)
               may already sit in a previous segment's output buffers —
               claim those arrays as compute arrays and skip reprogramming *)
            let in_place =
              if info.Opinfo.kind = Cim_models.Intensity.Dynamic_matmul then
                List.concat_map (outputs !prev_mem_out) info.Opinfo.deps
                |> List.filteri (fun k _ -> k < a.Plan.com)
                |> List.filter (fun c ->
                       let i = index c in
                       let ok = free.(i) && can_compute i in
                       if ok then free.(i) <- false;
                       ok)
              else []
            in
            let compute =
              in_place
              @ take ~can:can_compute Mode.Compute
                  (a.Plan.com - List.length in_place)
            in
            let mem_out = take ~can:can_memory Mode.Memory a.Plan.mem_out in
            Hashtbl.replace mem_out_pool a.Plan.uid mem_out;
            let shared_in =
              List.concat_map
                (fun (i, j, r) ->
                  if j <> a.Plan.uid then []
                  else List.filteri (fun k _ -> k < r) (outputs mem_out_pool i))
                plan.Plan.reuse
              |> List.sort_uniq by_index
            in
            let mem_in =
              shared_in
              @ take ~can:can_memory Mode.Memory
                  (max 0 (a.Plan.mem_in - List.length shared_in))
            in
            let mem_in = if ascending mem_in then mem_in else List.sort by_index mem_in in
            { uid = a.Plan.uid; compute; in_place; mem_in; mem_out })
          plan.Plan.allocs
      in
      (* realised switches: whatever assignment disagrees with the current
         mode map *)
      let to_compute, to_memory =
        List.fold_left
          (fun (tc, tm) op ->
            let tc = claim Mode.Compute tc op.compute in
            (tc, claim Mode.Memory (claim Mode.Memory tm op.mem_in) op.mem_out))
          ([], []) placed
      in
      (* the next segment sees this one's output buffers *)
      prev_mem_out := mem_out_pool;
      { plan; ops = placed; to_compute = List.rev to_compute;
        to_memory = List.rev to_memory })
    plans

let realized_switches places =
  List.fold_left
    (fun (m2c, c2m) sp ->
      (m2c + List.length sp.to_compute, c2m + List.length sp.to_memory))
    (0, 0) places
