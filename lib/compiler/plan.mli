(** Shared schedule representation for CMSwitch and the baseline compilers:
    per-segment dual-mode allocations, the inter-segment cost model
    (Eqs. 1, 2, 4) and latency roll-up. *)

type op_alloc = {
  uid : int;
  com : int;      (** compute-mode arrays, >= the operator's minimum *)
  mem_in : int;   (** memory-mode arrays used as input buffer (lambda_min) *)
  mem_out : int;  (** memory-mode arrays used as output buffer (lambda_mout) *)
}

val mem_of : op_alloc -> int
(** [mem_in + mem_out] — the Mem_{O_i} of Table 1. *)

type seg_plan = {
  lo : int;                  (** first operator uid, inclusive *)
  hi : int;                  (** last operator uid, inclusive *)
  allocs : op_alloc list;    (** one per operator, uid order *)
  reuse : (int * int * int) list;
      (** (producer uid, consumer uid, shared arrays): output buffers doubling
          as the consumer's input buffers (Eq. 6) *)
  intra_cycles : float;      (** pipelined segment latency (Eq. 9/10) *)
}

val shift : lo:int -> seg_plan -> seg_plan
(** The same plan re-anchored to start at operator [lo]: window, allocation
    uids and reuse triples all move by [lo - plan.lo]. The DP memo reuses a
    plan solved for an identical window this way, and the seg-tier cache
    stores windows at [lo = 0] and loads them back at their position. *)

val com_total : seg_plan -> int
val mem_total : seg_plan -> int
val arrays_used : seg_plan -> int
(** com + mem - reuse, the left side of Eq. 8. *)

val max_com : seg_plan -> int

type inter_cost = { writeback : float; switch : float; rewrite : float }

val inter_total : inter_cost -> float

type ctx
(** Precomputed consumer index over an operator list, so boundary-data
    queries inside the DP are O(segment length) rather than O(network). *)

val make_ctx : Opinfo.t array -> ctx

val inter_segment_cost :
  Cim_arch.Chip.t -> ctx -> prev:seg_plan option -> cur:seg_plan -> inter_cost
(** The three components of Fig. 10 between the previous segment (if any;
    [None] means cold start — weights still need programming) and [cur]:
    - [writeback]: boundary data held in the previous segment's output
      buffers that the next segment's input buffers cannot absorb in place;
    - [switch]: Eq. 1 with switch counts estimated from the mode totals
      (the placement pass later realises them exactly);
    - [rewrite]: Eq. 2.

    [cur] is read only through totals that do not depend on its position,
    so a plan solved for an identical window elsewhere prices the same
    before and after {!shift}. *)

val boundary_bytes : ctx -> lo:int -> hi:int -> int
(** Output bytes of operators in [lo, hi] consumed after [hi] (or by the
    graph output — operators with no CIM consumer at all). *)

type schedule = {
  compiler : string;
  segments : seg_plan list;
  intra : float;
  writeback : float;
  switch : float;
  rewrite : float;
  total_cycles : float;
}

val roll_up :
  compiler:string -> Cim_arch.Chip.t -> Opinfo.t array -> seg_plan list -> schedule
(** Chain the segments, accumulating inter-segment costs. *)

val pp_schedule : Format.formatter -> schedule -> unit
