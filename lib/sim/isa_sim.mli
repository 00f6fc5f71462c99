(** Stream entry point to the one interpreter ({!Functional.execute}): runs
    a lowered MMIO command stream ({!Cim_metaop.Isa}) that arrives as
    commands — for instance decoded from its bytes with
    {!Cim_metaop.Isa.decode} — rather than as a meta-operator flow.

    Its only logic is the entry check: the stream is raised back to a flow
    ({!Cim_metaop.Isa.to_flow}, which rejects unbalanced or miscounted
    [PAR_BEGIN]/[PAR_END] brackets) and {!Cim_metaop.Check} must find
    nothing in that flow under the fault map. Execution is then exactly
    {!Functional.run}'s, so for a stream lowered with
    {!Cim_metaop.Isa.of_flow} both produce identical {!Functional.report}s
    and {!Functional.digest} agrees bit for bit. *)

val run :
  Cim_arch.Chip.t -> ?faults:Cim_arch.Faultmap.t -> ?rng:Cim_util.Rng.t ->
  ?max_switch_retries:int -> ?jobs:int -> ?backend:Cim_tensor.Kernels.backend ->
  Cim_nnir.Graph.t -> Cim_metaop.Isa.image ->
  inputs:(string * Cim_tensor.Tensor.t) list -> Functional.report
(** Same contract as {!Functional.run}, over the command stream: raises
    {!Functional.Error} on malformed streams (unbalanced brackets, a
    diagnostic, unknown tensors, coverage gaps) and {!Machine.Fault} when
    transient switch retries run out; the report is byte-identical at any
    [jobs] and for either kernel backend. *)
