(** Discrete-event refinement of the pipelined-segment latency.

    Eq. 9 approximates a segment's latency as its slowest operator's Eq. 10
    latency — exact for a saturated pipeline, but it ignores fill/drain and
    intra-segment dependency chains. This module simulates the segment as a
    tile pipeline: the activation stream is cut into [tiles] chunks, each
    operator processes one chunk per step at its allocated Eq. 10 rate, and
    a chunk may start only after the operator's previous chunk and every
    intra-segment producer's same chunk have finished.

    Used by the ablation bench to quantify the approximation error the
    paper's objective accepts, and to render per-operator timelines. *)

type event = {
  uid : int;
  label : string;
  tile : int;
  t_start : float;
  t_finish : float;
}

val simulate :
  Cim_arch.Chip.t -> Opinfo.t array -> Plan.seg_plan -> ?tiles:int ->
  unit -> float * event list
(** [simulate chip ops plan ()] returns the segment makespan in cycles and
    the per-(operator, tile) events. [tiles] defaults to 8. Weight
    programming (Eq. 2) is not charged. The makespan is always >= the
    Eq. 9 approximation [plan.intra_cycles]. *)

val gantt : event list -> string
(** ASCII timeline, one row per operator, 64 columns wide. *)
