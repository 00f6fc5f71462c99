(** The dual-mode chip as the functional simulator executes it: the state
    and rules of {!Cim_metaop.Rules}, which {!Cim_metaop.Check} folds
    statically, applied instruction by instruction. An instruction that
    breaks a rule raises {!Fault} with the rule's text, so the machine
    faults at exactly the instruction of {!Cim_metaop.Check}'s first
    per-array diagnostic.
    What only execution adds is kept here: transient switch failures and
    their retries, and the switch counters. The trace of array modes is
    {!Timing}'s, on the cycle clock. *)

type t

val create :
  Cim_arch.Chip.t -> ?faults:Cim_arch.Faultmap.t -> ?rng:Cim_util.Rng.t ->
  ?max_switch_retries:int -> unit -> t
(** Every array at its power-on mode, holding no weights. With [faults],
    transiently failing switch circuits are retried up to
    [max_switch_retries] times (default 3; the retry draw comes from
    [rng], default a fixed seed) before faulting. Raises
    [Invalid_argument] on a negative retry budget. *)

val retry_draws : Cim_util.Rng.t -> p:float -> max_retries:int -> int * bool
(** The transient-failure draws of one array switch with failure
    probability [p]: [(failed_attempts, succeeded)]. Draws until one
    succeeds or the failures exceed [max_retries]; draws nothing when
    [p <= 0]. {!switch} and {!Timing.run} both call it, so a timing run with
    the same rng prices exactly the retries the machine performs. *)

exception Fault of string
(** A broken rule (the text names the array) or a switch that kept
    failing transiently past the retry budget. *)

val exec : t -> Cim_metaop.Flow.instr -> unit
(** Apply one instruction's per-array transitions, in the order
    {!Cim_metaop.Check} walks them: a switch, a weight write, a load's or
    store's source and destination arrays, a compute's arrays and then its
    memory operands. A vector op touches no array, and neither does a
    [Parallel] block itself: its body is issued instruction by
    instruction. *)

val switch : t -> Cim_arch.Mode.transition -> Cim_arch.Chip.coord -> unit
(** One array's share of a switch command: the rule, then the retry draws
    of a transiently failing circuit, then the mode change. A switch that
    keeps failing raises {!Fault} with the array still in its mode and the
    switch uncounted (its failed attempts are counted in
    {!switch_retries}). *)

val mode : t -> Cim_arch.Chip.coord -> Cim_arch.Mode.t
val weights : t -> Cim_arch.Chip.coord -> int option
(** The array's current mode and the node whose weights it holds. Raise
    {!Cim_arch.Chip.Invalid_config} off the grid. *)

val switch_counts : t -> int * int
(** (memory->compute, compute->memory) switches performed so far. *)

val switch_retries : t -> int
(** Total failed switch attempts recovered by retrying — each one costs a
    full switch latency, which the timing simulator charges. *)
