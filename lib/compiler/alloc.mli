(** Unified dual-mode allocation with scheduling (§4.3.2): the per-segment
    MIP. The min-max pipeline objective (Eq. 9) is linearised by maximising
    throughput [z] with [Com_i * OP_cim >= OP_i * z] and
    [(Mem_i * D_cim + D_main) * AI_i >= OP_i * z]; constraints Eq. 5-8 are
    imposed through integer array-count variables and dependency-reuse
    variables. Solved exactly with the vendored branch-and-bound solver. *)

type options = {
  milp_max_nodes : int;  (** branch-and-bound node budget per segment *)
  refine : bool;
      (** second lexicographic solve minimising total arrays at the optimal
          latency, so segments do not hoard arrays they cannot use (fewer
          switches downstream) *)
  force_all_compute : bool;
      (** restrict memory-mode variables to zero — this is how the CIM-MLC
          baseline is expressed in the same machinery *)
}

val default_options : options
(** The compiler's MILP defaults: node budget 600, refinement on,
    dual-mode search. {!Segment.default_options} and
    [Cmswitch.Config.default] are built from it. *)

(** Solver outcome distinguishing a genuinely infeasible segment from a
    node-limited search, so the {!Degrade} chain can fall back instead of
    silently dropping the window. *)
type outcome =
  | Optimal of Plan.seg_plan       (** proved optimal (within the gap) *)
  | Incumbent of Plan.seg_plan
      (** node budget exhausted; the incumbent passed {!plan_feasible} *)
  | Truncated_no_incumbent
      (** node budget exhausted with no usable integral solution *)
  | Infeasible                     (** the segment cannot fit (Alg. 1 line 13) *)

val plan_feasible : Cim_arch.Chip.t -> Opinfo.t array -> Plan.seg_plan -> bool
(** The contract a plan must honour before the compiler trusts it: every
    operator at or above its minimum compute arrays, non-negative buffer
    counts, and Eq. 8 capacity respected. *)

val segment_problem :
  ?options:options -> Cim_arch.Chip.t -> Opinfo.t array -> lo:int -> hi:int ->
  Cim_solver.Lp.problem * Cim_solver.Milp.kind array
(** The exact MILP {!solve_outcome} hands to the solver for operators
    [lo..hi] (maximise throughput [z]), in computational form. Exposed so
    the differential suite can replay real segment models against both LP
    backends and the solver micro-benchmark can time them in isolation. *)

val solve_outcome :
  ?options:options -> Cim_arch.Chip.t -> Opinfo.t array -> lo:int -> hi:int ->
  outcome
(** Like {!solve} but reporting how the answer was obtained. Incumbents are
    feasibility-checked; a failing incumbent is reported as
    [Truncated_no_incumbent], never returned. *)

val solve :
  ?options:options -> Cim_arch.Chip.t -> Opinfo.t array -> lo:int -> hi:int ->
  Plan.seg_plan option
(** Optimal allocation for operators [lo..hi] scheduled as one pipelined
    segment; [None] when the segment cannot fit on the chip (Alg. 1
    line 13). [intra_cycles] of the result is recomputed from the integer
    allocation via the cost model (not from the LP objective), so it is
    exact. *)

val op_latency : Cim_arch.Chip.t -> Opinfo.t -> Plan.op_alloc -> float
(** Eq. 10 for one operator under an allocation. *)
