module Chip = Cim_arch.Chip
module Mode = Cim_arch.Mode
module Faultmap = Cim_arch.Faultmap

type t = {
  chip : Chip.t;
  faults : Faultmap.t option;
  modes : Mode.t array;
  weights : int option array;  (* the node whose weights the array holds *)
}

let create chip ?faults () =
  let n = chip.Chip.n_arrays in
  {
    chip;
    faults;
    modes = Array.init n (Faultmap.power_on_mode faults);
    weights = Array.make n None;
  }

let mode st c = st.modes.(Chip.index_of_coord st.chip c)
let weights st c = st.weights.(Chip.index_of_coord st.chip c)

let coord_str (c : Chip.coord) = Printf.sprintf "(%d,%d)" c.Chip.x c.Chip.y

(* The index of an array an instruction may name at all, or -1 off the
   grid, or -2 when it is dead. A clean transition formats no text. *)
let locate st c =
  let i = Chip.grid_index st.chip c in
  match st.faults with Some fm when i >= 0 && Faultmap.is_dead fm i -> -2 | _ -> i

let unusable st c i =
  if i = -1 then
    Printf.sprintf "array %s outside the %s grid" (coord_str c) st.chip.Chip.name
  else Printf.sprintf "dead array %s referenced" (coord_str c)

let needs st c i m =
  Printf.sprintf "array %s is in %s mode, needs %s" (coord_str c)
    (Mode.to_string st.modes.(i)) (Mode.to_string m)

let stuck st i =
  match st.faults with
  | Some fm -> (
    match Faultmap.fault_at fm i with
    | Some (Faultmap.Stuck_mode m) -> Some m
    | _ -> None)
  | None -> None

(* the rule of a switch of the located array [i], without the transition *)
let switch_rule st transition c i =
  let target = Mode.apply transition in
  if i < 0 then Some (unusable st c i)
  else
    match stuck st i with
    | Some m ->
      Some
        (Printf.sprintf "array %s is stuck in %s mode, cannot switch to %s"
           (coord_str c) (Mode.to_string m) (Mode.to_string target))
    | None when st.modes.(i) = target ->
      Some
        (Printf.sprintf "array %s already in %s mode" (coord_str c)
           (Mode.to_string target))
    | None -> None

let can_switch st transition c = switch_rule st transition c (locate st c)

let switch st transition c =
  let i = locate st c in
  match switch_rule st transition c i with
  | None ->
    (* the cells keep their charge: weights survive the switch *)
    st.modes.(i) <- Mode.apply transition;
    None
  | violation -> violation

let write st c ~node_id =
  let i = locate st c in
  if i < 0 then Some (unusable st c i)
  else if st.modes.(i) <> Mode.Compute then Some (needs st c i Mode.Compute)
  else begin
    st.weights.(i) <- Some node_id;
    None
  end

let access st c ~overwrite =
  let i = locate st c in
  if i < 0 then Some (unusable st c i)
  else if st.modes.(i) <> Mode.Memory then Some (needs st c i Mode.Memory)
  else begin
    if overwrite then st.weights.(i) <- None;
    None
  end

let compute st c ~node_id =
  let i = locate st c in
  if i < 0 then Some (unusable st c i)
  else if st.modes.(i) <> Mode.Compute then Some (needs st c i Mode.Compute)
  else
    match st.weights.(i) with
    | Some id when id = node_id -> None
    | Some id ->
      Some
        (Printf.sprintf "array %s holds node %d's weights, needs node %d's"
           (coord_str c) id node_id)
    | None -> Some (Printf.sprintf "array %s has no weights written" (coord_str c))
