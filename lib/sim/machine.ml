module Chip = Cim_arch.Chip
module Mode = Cim_arch.Mode
module Faultmap = Cim_arch.Faultmap
module Rng = Cim_util.Rng
module Trace = Cim_obs.Trace

type content =
  | Empty
  | Weights of { node_id : int; lo : int; hi : int }
  | Data of string

type t = {
  chip : Chip.t;
  faults : Faultmap.t option;
  rng : Rng.t;
  max_switch_retries : int;
  modes : Mode.t array;
  contents : content array;
  mutable m2c : int;
  mutable c2m : int;
  mutable retries : int;
  (* residency tracking for the trace: the machine's clock is one step per
     executed meta-operator effect, and [mode_since] remembers when each
     array entered its current mode *)
  mutable step : int;
  mode_since : int array;
  switched : (int, unit) Hashtbl.t;
}

let m_m2c = Cim_obs.Metrics.counter "machine.switches.m2c"
let m_c2m = Cim_obs.Metrics.counter "machine.switches.c2m"
let m_retries = Cim_obs.Metrics.counter "machine.switch.retries"

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let create chip ?(initial_mode = Mode.Memory) ?faults ?rng
    ?(max_switch_retries = 3) () =
  if max_switch_retries < 0 then
    invalid_arg "Machine.create: max_switch_retries must be non-negative";
  {
    chip;
    faults;
    rng = (match rng with Some r -> r | None -> Rng.create 0x5117c4);
    max_switch_retries;
    modes =
      Array.init chip.Chip.n_arrays (fun i ->
          (* stuck arrays are physically pinned to their mode *)
          match faults with
          | Some fm -> begin
            match Faultmap.fault_at fm i with
            | Some (Faultmap.Stuck_mode m) -> m
            | _ -> initial_mode
          end
          | None -> initial_mode);
    contents = Array.make chip.Chip.n_arrays Empty;
    m2c = 0;
    c2m = 0;
    retries = 0;
    step = 0;
    mode_since = Array.make chip.Chip.n_arrays 0;
    switched = Hashtbl.create 16;
  }

let tick t = t.step <- t.step + 1

(* one mode-colored slab on the array's track, covering [mode_since, step) *)
let emit_residency t i =
  if Trace.enabled () then begin
    let since = t.mode_since.(i) and now = t.step in
    if now > since then begin
      let c = Chip.coord_of_index t.chip i in
      Trace.name_process ~pid:Trace.pid_machine "machine (steps)";
      Trace.name_thread ~pid:Trace.pid_machine ~tid:i
        (Printf.sprintf "array (%d,%d)" c.Chip.x c.Chip.y);
      Trace.complete ~cat:"residency" ~pid:Trace.pid_machine ~tid:i
        ~ts:(float_of_int since)
        ~dur:(float_of_int (now - since))
        (Mode.to_string t.modes.(i))
    end
  end

let flush_residency t =
  Hashtbl.iter (fun i () -> emit_residency t i) t.switched

let idx t c =
  try Chip.index_of_coord t.chip c
  with Chip.Invalid_config m -> fault "machine: %s" m

(* every fault path names the array, its current mode and what was
   attempted — a degraded run must be diagnosable from the message alone *)
let check_alive t c i ~attempted =
  match t.faults with
  | Some fm when Faultmap.is_dead fm i ->
    fault "array (%d,%d) is dead (currently %s mode): cannot %s" c.Chip.x
      c.Chip.y
      (Mode.to_string t.modes.(i))
      attempted
  | _ -> ()

(* Transient-failure draws for one switch: each draw below [p] is a failed
   attempt, retried until success or until the attempts exceed
   [max_retries]. A healthy circuit ([p <= 0]) draws nothing. *)
let retry_draws rng ~p ~max_retries =
  if p <= 0. then (0, true)
  else begin
    let attempts = ref 0 and succeeded = ref false in
    while (not !succeeded) && !attempts <= max_retries do
      if Rng.float rng 1.0 < p then incr attempts else succeeded := true
    done;
    (!attempts, !succeeded)
  end

let mode t c = t.modes.(idx t c)
let content t c = t.contents.(idx t c)

let switch t transition c =
  let i = idx t c in
  let target = Mode.apply transition in
  let attempted =
    Printf.sprintf "switch %s (to %s mode)"
      (Mode.transition_to_string transition)
      (Mode.to_string target)
  in
  check_alive t c i ~attempted;
  (match t.faults with
  | Some fm -> begin
    match Faultmap.fault_at fm i with
    | Some (Faultmap.Stuck_mode m) ->
      fault
        "array (%d,%d) is stuck in %s mode: cannot switch %s to %s mode \
         (currently %s)"
        c.Chip.x c.Chip.y (Mode.to_string m)
        (Mode.transition_to_string transition)
        (Mode.to_string target)
        (Mode.to_string t.modes.(i))
    | _ -> ()
  end
  | None -> ());
  if t.modes.(i) = target then
    fault
      "redundant switch of array (%d,%d): already in %s mode, attempted %s"
      c.Chip.x c.Chip.y (Mode.to_string target)
      (Mode.transition_to_string transition);
  (* a transiently failing switch circuit recovers under bounded retries;
     each failed attempt is counted so the timing simulator can charge it *)
  let p =
    match t.faults with Some fm -> Faultmap.transient_prob fm i | None -> 0.
  in
  let attempts, succeeded =
    retry_draws t.rng ~p ~max_retries:t.max_switch_retries
  in
  if attempts > 0 then begin
    t.retries <- t.retries + attempts;
    Cim_obs.Metrics.incr ~by:(float_of_int attempts) m_retries
  end;
  if not succeeded then
    fault
      "array (%d,%d): switch %s to %s mode failed %d times (transient \
       failure p=%.2f, currently %s mode)"
      c.Chip.x c.Chip.y
      (Mode.transition_to_string transition)
      (Mode.to_string target) attempts p
      (Mode.to_string t.modes.(i));
  tick t;
  emit_residency t i;
  Hashtbl.replace t.switched i ();
  t.mode_since.(i) <- t.step;
  (match transition with
  | Mode.To_compute ->
    t.m2c <- t.m2c + 1;
    Cim_obs.Metrics.incr m_m2c
  | Mode.To_memory ->
    t.c2m <- t.c2m + 1;
    Cim_obs.Metrics.incr m_c2m);
  t.modes.(i) <- target;
  (* mode change loses the scratchpad view of the cells but the physical
     weight charge survives *)
  match t.contents.(i) with
  | Data _ -> t.contents.(i) <- Empty
  | Empty | Weights _ -> ()

let write_weights t c ~node_id ~lo ~hi =
  let i = idx t c in
  tick t;
  check_alive t c i ~attempted:(Printf.sprintf "write node %d weights" node_id);
  if t.modes.(i) <> Mode.Compute then
    fault
      "weight write of node %d to array (%d,%d) while in %s mode (needs \
       compute)"
      node_id c.Chip.x c.Chip.y
      (Mode.to_string t.modes.(i));
  t.contents.(i) <- Weights { node_id; lo; hi }

let stage_data t c name =
  let i = idx t c in
  tick t;
  check_alive t c i ~attempted:(Printf.sprintf "stage tensor %s" name);
  if t.modes.(i) <> Mode.Memory then
    fault
      "data load of %s into array (%d,%d) while in %s mode (needs memory)"
      name c.Chip.x c.Chip.y
      (Mode.to_string t.modes.(i));
  t.contents.(i) <- Data name

let check_compute t c ~node_id =
  let i = idx t c in
  tick t;
  check_alive t c i ~attempted:(Printf.sprintf "compute node %d" node_id);
  if t.modes.(i) <> Mode.Compute then
    fault "compute of node %d on array (%d,%d) in %s mode (needs compute)"
      node_id c.Chip.x c.Chip.y
      (Mode.to_string t.modes.(i));
  match t.contents.(i) with
  | Weights w when w.node_id = node_id -> ()
  | Weights w ->
    fault "array (%d,%d) holds weights of node %d, not %d (in %s mode)"
      c.Chip.x c.Chip.y w.node_id node_id
      (Mode.to_string t.modes.(i))
  | Empty | Data _ ->
    fault "array (%d,%d) computes node %d without programmed weights"
      c.Chip.x c.Chip.y node_id

let check_memory t c =
  let i = idx t c in
  tick t;
  check_alive t c i ~attempted:"memory access";
  if t.modes.(i) <> Mode.Memory then
    fault "memory access to array (%d,%d) in %s mode (needs memory)" c.Chip.x
      c.Chip.y
      (Mode.to_string t.modes.(i))

let switch_counts t = (t.m2c, t.c2m)
let switch_retries t = t.retries
