(** Per-array fault states for a dual-mode chip. Real crossbar arrays die,
    wear out their switch circuits, or get stuck in one mode; the compiler
    must plan around them and the simulators must charge (or reject) the
    consequences. Injection is deterministic from a seed so every degraded
    compilation is reproducible. *)

type fault =
  | Dead  (** the array is unusable in either mode *)
  | Stuck_mode of Mode.t
      (** the switch circuit failed closed: the array still works but only
          in this mode, and can never transition *)
  | Transient_switch_failure of float
      (** each switch attempt independently fails with this probability in
          [0, 1); bounded retries (with their cycle cost) usually recover *)

type t

val chip : t -> Chip.t

val none : Chip.t -> t
(** All arrays healthy. *)

val of_list : Chip.t -> (Chip.coord * fault) list -> t
(** Explicit fault assignment; later entries override earlier ones. Raises
    [Chip.Invalid_config] on out-of-range coordinates and [Invalid_argument]
    on a transient probability outside [0, 1). *)

val inject :
  Chip.t -> seed:int -> ?dead_rate:float -> ?stuck_rate:float ->
  ?transient_rate:float -> ?transient_band:float * float -> unit -> t
(** Random injection, deterministic in [seed]: each array is independently
    [Dead] with [dead_rate] (default 0), else stuck in a uniformly chosen
    mode with [stuck_rate] (default 0), else transiently failing with
    [transient_rate] (default 0). The per-array transient failure
    probability is drawn uniformly from [transient_band] = [(lo, hi)]
    (default [(0.05, 0.5)]; [lo = hi] pins it). Rates must lie in [0, 1]
    and sum to at most 1, and the band must satisfy [0 <= lo <= hi < 1];
    raises [Invalid_argument] otherwise. *)

val apply : t -> (Chip.coord * fault option) list -> t
(** Functional update for scheduled runtime fault events: returns a new map
    with each listed coordinate set to the given state ([None] clears a
    fault — e.g. a transient that recovered); later entries override
    earlier ones, the input map is unchanged. Raises [Chip.Invalid_config]
    on out-of-range coordinates and [Invalid_argument] on an invalid
    transient probability. *)

val diff : t -> t -> (Chip.coord * fault option) list
(** [diff before after]: the coordinates whose state differs, with the
    state they hold in [after], in index order — the exact update list
    that replays the transition: [apply before (diff before after)] has
    the same states as [after]. Raises [Invalid_argument] when the two
    maps describe different chips. *)

val fault_at : t -> int -> fault option
(** Fault state of the array at a linear index (range-checked). *)

val fault : t -> Chip.coord -> fault option

val is_dead : t -> int -> bool

val switchable : t -> int -> bool
(** Neither dead nor stuck: the array can serve either mode. *)

val usable : t -> int -> target:Mode.t -> bool
(** The array can serve [target] mode: healthy, or stuck in exactly that
    mode. Transient switch failures do not make an array unusable. *)

val power_on_mode : t option -> int -> Mode.t
(** The mode the array at a linear index holds when the chip powers on:
    its stuck mode, else [Memory] (a dual-mode array resets as plain
    memory). Placement, the flow checker and the machine model all start
    from it. *)

val transient_prob : t -> int -> float
(** The per-attempt switch-failure probability (0. for healthy arrays). *)

val healthy_count : t -> int
(** Arrays that are not [Dead]. *)

val flexible_count : t -> int
(** Arrays that are neither [Dead] nor [Stuck_mode]: the pool the compiler
    can freely assign to either mode. This is the capacity the segment DP
    and the allocation MIP must plan against. *)

val fault_count : t -> int

val faults : t -> (Chip.coord * fault) list
(** Every faulty array with its state, in index order. *)

val effective_chip : t -> Chip.t
(** The chip the *solver* sees: [n_arrays] reduced to [flexible_count],
    with both grid dimensions re-derived so the grid tightly covers the
    surviving pool ([grid_cols] shrunk only when fewer arrays than columns
    survive; [Chip.grid_rows] follows by ceiling division, so no row is
    entirely empty) — every capacity query counts only arrays the compiler
    may place freely, and the result always passes [Chip.validate]. Raises
    [Invalid_argument] when no flexible array remains — there is nothing
    left to compile onto. *)

val fault_to_string : fault -> string

val pp : Format.formatter -> t -> unit
