type fault =
  | Dead
  | Stuck_mode of Mode.t
  | Transient_switch_failure of float

type t = { fm_chip : Chip.t; states : fault option array }

let chip t = t.fm_chip

let check_fault = function
  | Transient_switch_failure p when not (p >= 0. && p < 1.) ->
    invalid_arg
      (Printf.sprintf "Faultmap: transient probability %g outside [0, 1)" p)
  | Dead | Stuck_mode _ | Transient_switch_failure _ -> ()

let none chip = { fm_chip = chip; states = Array.make chip.Chip.n_arrays None }

let of_list chip assocs =
  let t = none chip in
  List.iter
    (fun (c, f) ->
      check_fault f;
      t.states.(Chip.index_of_coord chip c) <- Some f)
    assocs;
  t

let inject chip ~seed ?(dead_rate = 0.) ?(stuck_rate = 0.)
    ?(transient_rate = 0.) ?(transient_band = (0.05, 0.5)) () =
  let check name r =
    if r < 0. || r > 1. then
      invalid_arg (Printf.sprintf "Faultmap.inject: %s %g outside [0, 1]" name r)
  in
  check "dead_rate" dead_rate;
  check "stuck_rate" stuck_rate;
  check "transient_rate" transient_rate;
  if dead_rate +. stuck_rate +. transient_rate > 1. then
    invalid_arg "Faultmap.inject: rates sum past 1";
  let band_lo, band_hi = transient_band in
  if not (band_lo >= 0. && band_lo <= band_hi && band_hi < 1.) then
    invalid_arg
      (Printf.sprintf
         "Faultmap.inject: transient band [%g, %g] must satisfy 0 <= lo <= hi < 1"
         band_lo band_hi);
  let rng = Cim_util.Rng.create seed in
  let t = none chip in
  for i = 0 to chip.Chip.n_arrays - 1 do
    let u = Cim_util.Rng.float rng 1. in
    if u < dead_rate then t.states.(i) <- Some Dead
    else if u < dead_rate +. stuck_rate then
      t.states.(i) <-
        Some
          (Stuck_mode
             (if Cim_util.Rng.bool rng then Mode.Memory else Mode.Compute))
    else if u < dead_rate +. stuck_rate +. transient_rate then
      t.states.(i) <-
        Some
          (Transient_switch_failure
             (if band_hi > band_lo then
                band_lo +. Cim_util.Rng.float rng (band_hi -. band_lo)
              else band_lo))
  done;
  t

let apply t updates =
  let t' = { t with states = Array.copy t.states } in
  List.iter
    (fun (c, f) ->
      Option.iter check_fault f;
      t'.states.(Chip.index_of_coord t.fm_chip c) <- f)
    updates;
  t'

let diff before after =
  if before.fm_chip <> after.fm_chip then
    invalid_arg "Faultmap.diff: fault maps describe different chips";
  let out = ref [] in
  Array.iteri
    (fun i s ->
      if s <> after.states.(i) then
        out := (Chip.coord_of_index before.fm_chip i, after.states.(i)) :: !out)
    before.states;
  List.rev !out

let fault_at t i =
  if i < 0 || i >= Array.length t.states then
    invalid_arg (Printf.sprintf "Faultmap.fault_at: index %d out of range" i);
  t.states.(i)

let fault t c = fault_at t (Chip.index_of_coord t.fm_chip c)

let is_dead t i = fault_at t i = Some Dead

let switchable t i =
  match fault_at t i with
  | Some Dead | Some (Stuck_mode _) -> false
  | None | Some (Transient_switch_failure _) -> true

let usable t i ~target =
  match fault_at t i with
  | Some Dead -> false
  | Some (Stuck_mode m) -> m = target
  | None | Some (Transient_switch_failure _) -> true

let power_on_mode fm i =
  match fm with
  | Some fm -> ( match fault_at fm i with Some (Stuck_mode m) -> m | _ -> Mode.Memory)
  | None -> Mode.Memory

let transient_prob t i =
  match fault_at t i with
  | Some (Transient_switch_failure p) -> p
  | None | Some Dead | Some (Stuck_mode _) -> 0.

let count pred t =
  Array.fold_left (fun acc s -> if pred s then acc + 1 else acc) 0 t.states

let healthy_count t = count (fun s -> s <> Some Dead) t

let flexible_count t =
  count
    (function
      | None | Some (Transient_switch_failure _) -> true
      | Some Dead | Some (Stuck_mode _) -> false)
    t

let fault_count t = count (fun s -> s <> None) t

let faults t =
  let out = ref [] in
  Array.iteri
    (fun i s ->
      match s with
      | None -> ()
      | Some f -> out := (Chip.coord_of_index t.fm_chip i, f) :: !out)
    t.states;
  List.rev !out

let effective_chip t =
  let flex = flexible_count t in
  if flex <= 0 then
    invalid_arg "Faultmap.effective_chip: no flexible array survives";
  if flex = t.fm_chip.Chip.n_arrays then t.fm_chip
  else begin
    (* Re-derive both grid dimensions from the surviving pool: the column
       width is kept where possible and shrunk when fewer arrays than
       columns survive; the row count then follows as [Chip.grid_rows]
       (ceil), so the grid tightly covers the pool — the last row may be
       partial, but no row is entirely empty. *)
    let grid_cols = min t.fm_chip.Chip.grid_cols flex in
    let eff =
      Chip.validate
        { t.fm_chip with
          Chip.name = Printf.sprintf "%s[%d healthy]" t.fm_chip.Chip.name flex;
          n_arrays = flex;
          grid_cols }
    in
    assert (grid_cols * (Chip.grid_rows eff - 1) < flex);
    eff
  end

let fault_to_string = function
  | Dead -> "dead"
  | Stuck_mode m -> Printf.sprintf "stuck-%s" (Mode.to_string m)
  | Transient_switch_failure p -> Printf.sprintf "transient(p=%.2f)" p

let pp ppf t =
  Format.fprintf ppf "@[<v>faultmap %s: %d/%d faulty (%d flexible)"
    t.fm_chip.Chip.name (fault_count t) t.fm_chip.Chip.n_arrays
    (flexible_count t);
  List.iter
    (fun ((c : Chip.coord), f) ->
      Format.fprintf ppf "@,  (%d,%d): %s" c.Chip.x c.Chip.y (fault_to_string f))
    (faults t);
  Format.fprintf ppf "@]"
