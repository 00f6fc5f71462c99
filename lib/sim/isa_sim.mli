(** {!Functional.run} under a second name, kept only because bench/perf
    calls it; the next change to bench/perf deletes this module. A command
    stream that arrives as bytes is decoded with {!Cim_metaop.Isa.decode},
    which validates it, and then run like any other flow. *)

val run :
  Cim_arch.Chip.t -> ?faults:Cim_arch.Faultmap.t -> ?rng:Cim_util.Rng.t ->
  ?max_switch_retries:int -> ?jobs:int -> ?backend:Cim_tensor.Kernels.backend ->
  Cim_nnir.Graph.t -> Cim_metaop.Flow.program ->
  inputs:(string * Cim_tensor.Tensor.t) list -> Functional.report
(** [Functional.run]. *)
