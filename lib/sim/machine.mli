(** Per-array state machine for the dual-mode chip: every array's current
    mode and contents. The functional simulator uses it to reject programs
    that compute on arrays in the wrong mode or with stale weights, and the
    timing simulator to count realised switches. *)

type content =
  | Empty
  | Weights of { node_id : int; lo : int; hi : int }
  | Data of string  (** tensor name staged in a memory-mode array *)

type t

val create :
  Cim_arch.Chip.t -> ?initial_mode:Cim_arch.Mode.t ->
  ?faults:Cim_arch.Faultmap.t -> ?rng:Cim_util.Rng.t ->
  ?max_switch_retries:int -> unit -> t
(** With [faults], stuck arrays start in (and can never leave) their stuck
    mode, dead arrays fault on any use, and transiently failing switch
    circuits are retried up to [max_switch_retries] times (default 3; the
    retry draw comes from [rng], default a fixed seed) before faulting.
    Raises [Invalid_argument] on a negative retry budget. *)

val retry_draws : Cim_util.Rng.t -> p:float -> max_retries:int -> int * bool
(** The transient-failure draws of one array switch with failure
    probability [p]: [(failed_attempts, succeeded)]. Draws until one
    succeeds or the failures exceed [max_retries]; draws nothing when
    [p <= 0]. {!switch} and {!Timing.run} both call it, so a timing run with
    the same rng prices exactly the retries the machine performs. *)

val mode : t -> Cim_arch.Chip.coord -> Cim_arch.Mode.t
val content : t -> Cim_arch.Chip.coord -> content

exception Fault of string
(** Raised on illegal transitions/uses; the message always names the array
    coordinate, its current mode and the attempted operation/transition. *)

val switch : t -> Cim_arch.Mode.transition -> Cim_arch.Chip.coord -> unit
(** Faults if the array is already in the target mode (a redundant switch is
    a compiler bug: it wastes cycles), is dead or stuck, or keeps failing
    transiently past the retry budget. Switching clears [Data] contents —
    the scratchpad view is lost — but keeps [Weights] (the DynaPlasia cells
    physically retain their charge across mode changes). *)

val write_weights :
  t -> Cim_arch.Chip.coord -> node_id:int -> lo:int -> hi:int -> unit
(** Faults unless the array is in compute mode. *)

val stage_data : t -> Cim_arch.Chip.coord -> string -> unit
(** Faults unless the array is in memory mode. *)

val check_compute : t -> Cim_arch.Chip.coord -> node_id:int -> unit
(** Faults unless the array is in compute mode holding that node's
    weights. *)

val check_memory : t -> Cim_arch.Chip.coord -> unit
(** Faults unless the array is in memory mode. *)

val switch_counts : t -> int * int
(** (memory->compute, compute->memory) switches performed so far. *)

val switch_retries : t -> int
(** Total failed switch attempts recovered by retrying — each one costs a
    full switch latency, which the timing simulator charges. *)

val flush_residency : t -> unit
(** Emit the still-open mode-residency interval of every array that ever
    switched as trace events (no-op when {!Cim_obs.Trace} is disabled).

    The machine keeps a step clock — one tick per executed meta-operator
    effect — and, while tracing is enabled, records one complete event per
    (array, mode) interval on the machine process's per-array tracks, so
    [CM.switch] instructions render as mode-colored slabs in Perfetto. Call
    this after the last instruction to close the final intervals; the
    functional simulator does so automatically. *)
