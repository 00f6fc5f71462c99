(** Physical array placement: turn the MIP's array *counts* into concrete
    CIM array coordinates (the lambda_z(i, x, y) of Table 1), choosing
    coordinates that (a) realise the Eq. 6 output->input buffer reuse in
    place and (b) minimise the number of mode switches between adjacent
    segments. The realised switch lists are what code generation emits as
    [CM.switch] and what the timing simulator charges. *)

(** Each list is built once, in the order below; "ascending" is by array
    index [y * grid_cols + x]. A fresh pick takes the free arrays already
    in the wanted mode first, ascending, then the rest, ascending. *)
type op_place = {
  uid : int;
  compute : Cim_arch.Chip.coord list;
      (** [in_place], then a fresh pick of the remaining compute arrays *)
  in_place : Cim_arch.Chip.coord list;
      (** prefix of [compute] claimed from a previous segment's output
          buffers holding this operator's stationary operand (the paper's
          in-place K-cache switch, §5.3): switched to compute mode without
          weight reprogramming. In the order of the producers' [mem_out]
          lists, producers in [deps] order. *)
  mem_in : Cim_arch.Chip.coord list;
      (** ascending: the producers' shared output buffers (Eq. 6) and a
          fresh pick of the rest *)
  mem_out : Cim_arch.Chip.coord list;  (** a fresh pick *)
}

type seg_place = {
  plan : Plan.seg_plan;
  ops : op_place list;
  to_compute : Cim_arch.Chip.coord list;
      (** switches performed before the segment: the arrays whose mode
          differs from their assignment, each named once, in the order
          [ops] lists them ([compute], then [mem_in], then [mem_out] per
          operator) *)
  to_memory : Cim_arch.Chip.coord list;
}

val place :
  Cim_arch.Chip.t -> ?faults:Cim_arch.Faultmap.t -> Opinfo.t array ->
  Plan.seg_plan list -> seg_place list
(** Every array starts in its power-on mode
    ({!Cim_arch.Faultmap.power_on_mode}: memory, or its stuck mode). With
    [faults], dead arrays are never claimed and stuck arrays are only
    claimed for their stuck mode (so no switch is emitted for them); plans
    must have been solved against
    {!Cim_arch.Faultmap.effective_chip} for capacity to suffice. Raises
    [Failure] if a segment demands more usable arrays than remain (cannot
    happen for plans solved against the matching effective chip). *)

val realized_switches : seg_place list -> int * int
(** Total (memory->compute, compute->memory) switch counts. *)
