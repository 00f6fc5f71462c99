(** The per-array rules of the dual-mode chip, written once. {!Check} folds
    them over a program and collects diagnostics; the simulator's machine
    model applies them command by command and faults. Both start from the
    same state and make the same transitions, so a program is rejected by
    one exactly where the other rejects it.

    The state is each array's mode and the node whose weights it holds,
    started from the fault map: every array at its power-on mode
    ({!Cim_arch.Faultmap.power_on_mode}), holding no weights. The rules:

    - an instruction may name only arrays on the grid that are not dead;
    - a switch moves an array to the other mode: a stuck array cannot
      switch, and switching to the mode it is in is an error;
    - weights survive a mode switch and are lost only when a load or store
      writes into the array (the in-place K-cache switch relies on it);
    - a weight write needs compute mode; a memory access (a load or store
      reading from or writing to an array, or a compute's memory operand)
      needs memory mode;
    - a compute needs compute mode and that node's weights.

    Each transition returns the rule it breaks, as text that names the
    array, and changes the state only when it breaks none. *)

type t

val create : Cim_arch.Chip.t -> ?faults:Cim_arch.Faultmap.t -> unit -> t

val mode : t -> Cim_arch.Chip.coord -> Cim_arch.Mode.t
val weights : t -> Cim_arch.Chip.coord -> int option
(** The array's current mode and the node whose weights it holds. Raise
    {!Cim_arch.Chip.Invalid_config} off the grid. *)

val switch : t -> Cim_arch.Mode.transition -> Cim_arch.Chip.coord -> string option

val can_switch : t -> Cim_arch.Mode.transition -> Cim_arch.Chip.coord -> string option
(** The rule of {!switch}, leaving the state as it is. The machine model
    draws a transiently failing circuit's retries between the two, so a
    switch that keeps failing leaves the array in its mode. *)

val write : t -> Cim_arch.Chip.coord -> node_id:int -> string option

val access : t -> Cim_arch.Chip.coord -> overwrite:bool -> string option
(** A memory access; [overwrite] when a load or store writes into the
    array, which drops its weights. *)

val compute : t -> Cim_arch.Chip.coord -> node_id:int -> string option
