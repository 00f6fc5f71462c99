(** The serve scenario: what [cmswitch serve], bench e14 and the golden
    fleet fixture set up before {!Cim_sim.Fleet.run} — which graph to
    compile and what one step of it costs, the recompile-around-faults
    planner, and a fleet config scaled to that cost.

    Every step (one prefill, or one decode token) costs one {e pass}: a
    full run of the compiled schedule, so a request with [output] tokens
    costs [1 + output] passes. This library sits above both the compiler
    and the simulators, which do not see each other. *)

type block = {
  graph : Cim_nnir.Graph.t;  (** the graph every plan compiles *)
  layers : float;            (** runs of [graph] in one pass *)
}

val block : Cim_models.Zoo.entry -> Cim_models.Workload.t -> block
(** One transformer block, run [n_layers] times per pass (the LM head is
    left out of the estimate), or the whole network once for a CNN. *)

val pass_cycles : block -> Cim_compiler.Cmswitch.result -> float
(** One pass of a compiled block: its schedule's total cycles times
    [layers]. *)

val flat_profile : float -> Cim_sim.Serving.cost_profile
(** Every prefill and every decode step costs the given pass. *)

val bucketed_profile :
  ?telemetry:Cim_obs.Telemetry.t -> config:Cim_compiler.Cmswitch.Config.t ->
  Cim_arch.Chip.t -> Cim_models.Zoo.entry -> batch:int ->
  Cim_compiler.Bucket.t -> Cim_sim.Serving.cost_profile
(** Length-bucketed pricing for a healthy chip: a {!Cim_compiler.Cmswitch.session} of
    the whole model under [config] plus the bucket policy prices each step
    at its bucket ceiling, and {!Cim_sim.Serving.bucketed_profile} memoises one
    price per ceiling. Each step that compiles records a [bucket_compile]
    span on the collector's ["compile"] lane, laid end to end in simulated
    cycles. *)

val planner :
  ?healthy:Cim_sim.Serving.cost_profile -> ?budget_seconds:float ->
  config:Cim_compiler.Cmswitch.Config.t -> Cim_arch.Chip.t -> block ->
  Cim_sim.Fleet.planner
(** Recompile-around-faults: for each fault map, {!Cim_compiler.Cmswitch.recompile} the
    block under [config] with that map (a map with no faults compiles
    under [config] as given) and price the plan flat at its pass. With
    [healthy], a chip without faults is priced by that profile instead.
    [budget_seconds] goes to [recompile] and makes the chosen ladder level
    timing-dependent. [None] when no ladder level compiles. *)

val fleet_config : pass:float -> Cim_sim.Fleet.config
(** {!Cim_sim.Fleet.default_config} with its timings in passes: retry backoff from
    a quarter of a pass up to four passes, and one pass of downtime per
    online recompile. *)

val drift : Cim_arch.Chip.t -> Cim_compiler.Cmswitch.result -> Cim_sim.Drift.t
(** The compiled schedule's Eq. 10 prediction, per component and per
    segment, against one timing-simulator run of its program. *)
