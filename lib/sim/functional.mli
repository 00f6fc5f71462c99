(** Functional simulator: executes a compiled program against the source
    graph, modelling the int8 arithmetic the CIM arrays actually perform,
    and diffs the results against the float reference executor — the role
    the CIM-MLC functional simulator + PyTorch comparison plays in §5.1.

    There is one interpreter and one entry point, {!run}. It walks the
    meta-operator flow instruction by instruction, the order a device-side
    sequencer drains its encoded command stream ({!Cim_metaop.Isa}) in; a
    stream that arrives as bytes is decoded to a flow first.

    Checks enforced while executing:
    - the per-array rules of {!Cim_metaop.Rules}, through {!Machine}: every
      [Compute] runs on compute-mode arrays programmed with that operator's
      weights, its memory operands sit in memory-mode arrays, and mode
      switches are never redundant;
    - every sub-operator's output slice lies inside its operator's output
      width, and the slices cover all of it (nothing silently missing from
      a partitioned matmul or grouped convolution). *)

type report = {
  outputs : (string * Cim_tensor.Tensor.t) list;   (** simulated, int8 path *)
  reference : (string * Cim_tensor.Tensor.t) list; (** float reference *)
  max_abs_err : float;
  max_rel_err : float;  (** relative to the reference tensor's max |value| *)
  compute_instrs : int;
  vector_instrs : int;
  switches : int * int; (** realised (m->c, c->m) *)
  switch_retries : int; (** failed switch attempts recovered by retrying *)
}

exception Error of string

val run :
  Cim_arch.Chip.t -> ?faults:Cim_arch.Faultmap.t -> ?rng:Cim_util.Rng.t ->
  ?max_switch_retries:int -> ?jobs:int -> ?backend:Cim_tensor.Kernels.backend ->
  Cim_nnir.Graph.t -> Cim_metaop.Flow.program ->
  inputs:(string * Cim_tensor.Tensor.t) list -> report
(** Checks the flow under the fault map ({!Cim_metaop.Check}, rejecting
    any diagnostic) and interprets it. Requires every initializer of the
    graph to carry values. Raises [Error] on operands the int8 path
    rejects (see {!quant_eval}) and on illegal programs — including
    programs that use dead arrays or switch stuck arrays, and a slice
    outside its operator's output width, which {!Cim_metaop.Check} cannot
    see — and {!Machine.Fault} when a switch exhausts the
    transient-switch retry budget of the fault model (see
    {!Machine.create}).

    [jobs] (default {!Cim_util.Pool.default_jobs}; a run on a pool worker
    gets an inline pool, see {!Cim_util.Pool.create}) sizes the work pool
    the simulator runs on; each [Parallel] block's independent CIM nodes
    are pre-evaluated concurrently and the row-parallel
    {!Cim_tensor.Kernels} split large matmuls across the same pool. [backend] (default {!Cim_tensor.Kernels.backend}) picks
    the kernel engine for the run. Under the determinism contract the
    report — outputs, errors, instruction counts, switch stats — is
    byte-identical at any [jobs] and for either backend; {!digest} is the
    cheap way to assert that. *)

val digest : report -> string
(** MD5 hex digest over the simulated output tensors (names + IEEE-754 bit
    patterns, so any numeric divergence changes it) and the instruction /
    switch counters. Golden-fixture material: equal digests mean the run
    was byte-identical. *)

val quant_eval :
  Cim_nnir.Graph.node -> Cim_tensor.Tensor.t list -> Cim_tensor.Tensor.t
(** The int8 oracle for one CIM node (quantize -> int8 matmul/conv ->
    dequantize), exactly as the compute arrays perform it. Raises [Error]
    naming the node when the int8 path rejects an operand: a NaN makes the
    quantisation scale NaN, which {!Cim_tensor.Quant.requantize} refuses,
    on either kernel backend. *)
