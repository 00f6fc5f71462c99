(** Graceful degradation for the solve path. The paper assumes Gurobi always
    returns the optimum and that every array is healthy; neither survives
    contact with real hardware or real node budgets. This module owns the
    fallback ladder

    {v MILP Optimal -> node-limited incumbent -> Greedy.solve -> serial v}

    and the structured report the pipeline returns instead of raising. *)

(** How a segment's allocation was obtained, best to worst. *)
type stage =
  | Milp_optimal       (** the MIP proved optimality — not a degradation *)
  | Milp_incumbent     (** node-limited; the feasible incumbent was kept *)
  | Greedy_fallback    (** solver yielded nothing usable; greedy allocation *)
  | Serial_fallback    (** segmentation itself failed; one operator per segment *)

type event = { lo : int; hi : int; stage : stage; detail : string }

type report = {
  total_arrays : int;          (** physical arrays on the chip *)
  healthy_arrays : int;        (** flexible pool the solver planned against *)
  events : event list;         (** every non-optimal allocation, in order *)
  diagnostics : string list;   (** static flow-validator findings, if run *)
}

val empty_report : total:int -> healthy:int -> report

val degraded : report -> bool
(** True when any fallback fired, arrays were masked out, or the validator
    complained. *)

val stage_to_string : stage -> string

val count_stage : stage -> unit
(** Bump the [compile.alloc.*] ladder counter for a stage (no-op when
    {!Cim_obs.Metrics} is disabled). {!solve} does this itself; the serial
    segmentation pass ([Passes.p_segment_serial]) builds its events by
    hand and calls this directly. *)

val budget_spent : started:float -> budget:float option -> bool
(** Wall-clock compile-budget check for online recompilation: [true] once
    [budget] seconds have elapsed since [started] (a [Unix.gettimeofday]
    stamp); a [None] budget is never spent. Centralised here so every
    ladder consumer ([Cmswitch.recompile], the serving CLI) applies the
    same semantics: spent budget means jump to the {e cheapest} level, not
    give up. *)

val count_recompile : level:int -> unit
(** Bump the online-recompile counters ([compile.recompile.total] plus the
    per-ladder-level [compile.recompile.level<N>]); no-op when
    {!Cim_obs.Metrics} is disabled. *)

val pp : Format.formatter -> report -> unit

val solve :
  ?options:Alloc.options -> ?on_stage:(event -> unit) -> Cim_arch.Chip.t ->
  Opinfo.t array -> lo:int -> hi:int -> Plan.seg_plan option
(** The per-segment chain: MIP optimum when the search completes; otherwise
    the better of the feasible incumbent and {!Greedy.solve}; greedy alone
    when the search truncates empty-handed. [None] only when the segment is
    genuinely infeasible (minimum arrays exceed the chip). [on_stage] fires
    for every non-[Milp_optimal] outcome. *)
