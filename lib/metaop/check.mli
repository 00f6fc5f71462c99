(** Static validation of meta-operator flow programs. {!Flow.validate}
    checks structural well-formedness; this module goes further and checks
    that the program makes *sense* executed front to back — the three
    properties a degraded or hand-edited plan is most likely to violate:

    - {b mode legality}: every array is in the mode an instruction needs it
      in, mode switches are tracked (and checked against a fault map:
      stuck arrays cannot switch, dead arrays cannot be referenced);
    - {b weight residency}: a [Compute] only runs on arrays whose cells
      currently hold that node's weights (a [Write_weights], in-place or
      not, that no later [To_memory] switch invalidated);
    - {b tensor liveness}: every tensor an instruction consumes was already
      produced by an earlier [Compute]/[Vector_op] (names the program never
      defines are treated as external inputs).

    The checker returns structured diagnostics instead of raising, so the
    pipeline can attach them to its degradation report. *)

type severity = Error | Warning

type diagnostic = {
  severity : severity;
  instr : int;   (** top-level instruction index in [program.instrs] *)
  message : string;
}

val run :
  Cim_arch.Chip.t -> ?initial_mode:Cim_arch.Mode.t ->
  ?faults:Cim_arch.Faultmap.t -> Flow.program -> diagnostic list
(** Abstract interpretation of the program in instruction order (a
    [Parallel] block is walked sequentially — code generation orders its
    body topologically, and {!Flow.validate} separately enforces the
    compute-xor-memory property within the block). [initial_mode] is the
    mode every array starts in (default [Memory], matching
    {!Flow.validate}'s producer). Diagnostics come back in program order;
    an empty list means the program is clean. *)

val errors : diagnostic list -> diagnostic list
(** The [Error]-severity subset. *)

val is_valid : diagnostic list -> bool
(** No [Error]-severity diagnostics ([Warning]s allowed). *)

val severity_to_string : severity -> string

val diagnostic_to_string : diagnostic -> string
