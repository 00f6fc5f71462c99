module Chip = Cim_arch.Chip
module Mode = Cim_arch.Mode
module Faultmap = Cim_arch.Faultmap
module Flow = Cim_metaop.Flow
module Rules = Cim_metaop.Rules
module Rng = Cim_util.Rng

type t = {
  chip : Chip.t;
  faults : Faultmap.t option;
  rng : Rng.t;
  max_switch_retries : int;
  rules : Rules.t;
  mutable m2c : int;
  mutable c2m : int;
  mutable retries : int;
}

let m_m2c = Cim_obs.Metrics.counter "machine.switches.m2c"
let m_c2m = Cim_obs.Metrics.counter "machine.switches.c2m"
let m_retries = Cim_obs.Metrics.counter "machine.switch.retries"

exception Fault of string

let create chip ?faults ?rng ?(max_switch_retries = 3) () =
  if max_switch_retries < 0 then
    invalid_arg "Machine.create: max_switch_retries must be non-negative";
  {
    chip;
    faults;
    rng = (match rng with Some r -> r | None -> Rng.create 0x5117c4);
    max_switch_retries;
    rules = Rules.create chip ?faults ();
    m2c = 0;
    c2m = 0;
    retries = 0;
  }

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

let mode t c = Rules.mode t.rules c
let weights t c = Rules.weights t.rules c

let apply = function None -> () | Some violation -> raise (Fault violation)

let switch t transition c =
  apply (Rules.can_switch t.rules transition c);
  let i = Chip.index_of_coord t.chip c in
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
    raise
      (Fault
         (Printf.sprintf
            "array (%d,%d): switch %s to %s mode failed %d times (transient \
             failure p=%.2f)"
            c.Chip.x c.Chip.y
            (Mode.transition_to_string transition)
            (Mode.to_string (Mode.apply transition))
            attempts p));
  apply (Rules.switch t.rules transition c);
  match transition with
  | Mode.To_compute ->
    t.m2c <- t.m2c + 1;
    Cim_obs.Metrics.incr m_m2c
  | Mode.To_memory ->
    t.c2m <- t.c2m + 1;
    Cim_obs.Metrics.incr m_c2m

let each rule cs = List.iter (fun c -> apply (rule c)) cs

let arrays_of = function Flow.Mem_arrays cs -> cs | Flow.Main_memory | Flow.Buffer -> []

let exec t (instr : Flow.instr) =
  let access ~overwrite c = Rules.access t.rules c ~overwrite in
  match instr with
  | Flow.Switch { target; arrays } -> List.iter (switch t target) arrays
  | Flow.Write_weights { node_id; arrays; _ } ->
    each (fun c -> Rules.write t.rules c ~node_id) arrays
  | Flow.Load { src; dst; _ } | Flow.Store { src; dst; _ } ->
    each (access ~overwrite:false) (arrays_of src);
    each (access ~overwrite:true) (arrays_of dst)
  | Flow.Compute { node_id; arrays; mem_arrays; _ } ->
    each (fun c -> Rules.compute t.rules c ~node_id) arrays;
    each (access ~overwrite:false) mem_arrays
  | Flow.Vector_op _ | Flow.Parallel _ -> ()

let switch_counts t = (t.m2c, t.c2m)
let switch_retries t = t.retries
