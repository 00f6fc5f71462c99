(** Static validation of meta-operator flow programs: the one entry check
    of the toolchain. The compiler's check pass, the codegen pass's
    validator and both simulator entry points ([Functional.run],
    [Isa_sim.run]) reject a program on any diagnostic. It checks that the
    program makes sense executed front to back:

    - {b structure}: every array coordinate is on the grid, slices are
      well formed ([0 <= lo < hi]), byte counts, macs and ai are
      non-negative, and a [Parallel] block holds no [Parallel] block and no
      [Switch];
    - {b the per-array rules} ({!Rules}): mode legality, weight residency
      and the fault map (dead arrays cannot be named, stuck arrays cannot
      switch, a switch to the current mode is an error). Inside a
      [Parallel] block, which cannot switch, they make every array compute
      xor memory across the block (Eq. 5);
    - {b tensor liveness}: every tensor an instruction consumes was already
      produced by an earlier [Compute]/[Vector_op] (names the program never
      defines are treated as external inputs).

    The checker returns structured diagnostics instead of raising, on any
    program the parser accepts, so the pipeline can attach them to its
    degradation report. *)

type diagnostic = {
  instr : int;   (** top-level instruction index in [program.instrs] *)
  message : string;
}

val run :
  Cim_arch.Chip.t -> ?faults:Cim_arch.Faultmap.t -> Flow.program ->
  diagnostic list
(** Abstract interpretation of the program in instruction order (a
    [Parallel] block is walked in its order, which code generation makes
    topological), from the power-on state of {!Rules.create}.
    Diagnostics come back in program order; an empty list means the
    program is clean. The simulator's machine model applies the same
    per-array rules and faults at the instruction of their first
    diagnostic. *)

val is_valid : diagnostic list -> bool
(** No diagnostics. *)

val diagnostic_to_string : diagnostic -> string
(** [error at instr N: message]. *)
