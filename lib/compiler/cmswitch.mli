(** CMSwitch compilation driver: the end-to-end pipeline of Fig. 7
    (graph -> operator extraction -> DP segmentation with per-segment MIP
    allocation -> placement -> meta-operator code generation).

    The phases live in {!Passes} as first-class pass values, and one
    internal runner runs every pass list: a cold compile
    ({!Passes.default_pipeline} unless [?passes] overrides it), a
    program-tier cache replay, and the serial fallback
    ({!Passes.serial_pipeline}). That runner folds
    {!Passes.run_pipeline} over the list and projects the final
    {!Passes.state} onto {!result}, so the result, its {!Degrade.report}
    and the [compile.*] metrics are built in one place. {!compile_robust}
    and {!recompile} share one fallback ladder: the same serial step, the
    same failure-to-event mapping and the same set of caught exceptions.

    Compilation is configured through {!Config} — one flat record;
    [Config.canonical] is the basis of the compilation-cache keys, which
    is why the flattening matters: a cache key must cover {e every}
    semantic knob exactly once. A fault map travels only in
    [Config.faults]. *)

val log_src : Logs.src
(** The compiler's log source ("cmswitch"): enable [Debug] to trace the
    pipeline's pass boundaries (see also {!Passes.log_src}). *)

(** The unified compiler configuration: every semantic knob of the
    pipeline, flattened, plus the fault map and the compilation cache.
    Build with the [with_*] combinators:
    {[Config.default |> Config.with_jobs 4
                     |> Config.with_milp_max_nodes 5000]} *)
module Config : sig
  type t = {
    partition_fraction : float;
        (** sub-operator cap, fraction of the chip (Opinfo.extract) *)
    max_segment_ops : int;        (** DP window cap (Segment) *)
    jobs : int;
        (** concurrent MILP solvers per DP frontier; output is
            byte-identical for every value, so [jobs] is {e excluded} from
            {!canonical} *)
    milp_max_nodes : int;         (** branch-and-bound node budget (Alloc) *)
    refine : bool;                (** lexicographic array-count refinement *)
    force_all_compute : bool;
        (** CIM-MLC restriction: every window in compute mode only. Off,
            the DP prices each window in both modes ({!Segment.run}) *)
    buckets : Bucket.t option;
        (** length-bucketing policy for {!compile_model}: sequence
            workloads compile at their {!Bucket.ceiling} instead of the
            raw length. Semantic (the compiled graph changes), so it
            {e is} part of {!canonical}. *)
    faults : Cim_arch.Faultmap.t option;
        (** plan around these faults *)
    cache : Cim_cache.Store.t option;
        (** two-tier compilation cache; [None] compiles from scratch *)
  }

  val default : t
  (** partition_fraction 0.5, no buckets, no faults; every other field
      from {!Segment.default_options} (window 10, no cache,
      [jobs] = {!Cim_util.Pool.default_jobs}) and its
      {!Alloc.default_options} (MILP node budget 600 with refinement,
      dual-mode search). *)

  val with_partition_fraction : float -> t -> t
  val with_max_segment_ops : int -> t -> t
  val with_jobs : int -> t -> t
  val with_milp_max_nodes : int -> t -> t
  val with_refine : bool -> t -> t
  val with_force_all_compute : bool -> t -> t
  val with_buckets : Bucket.t option -> t -> t
  val with_faults : Cim_arch.Faultmap.t option -> t -> t
  val with_cache : Cim_cache.Store.t option -> t -> t

  val to_segment_options : t -> Segment.options
  (** Slot the flat record into the engine's internal options shape. *)

  val to_alloc_options : t -> Alloc.options

  val canonical : t -> string
  (** Deterministic single-line serialisation of every {e semantic} field
      — the compilation-cache key component: ["cmswitch.config.v4{...}"]
      with six fields ([partition_fraction], [max_segment_ops],
      [milp_max_nodes], [refine], [force_all_compute], [buckets]). Floats are rendered as exact binary64 hex ([%h]),
      booleans and enums as fixed tokens, fields in fixed order, so the
      string is byte-stable across runs, processes and platforms. [jobs]
      (execution strategy under the byte-identical determinism contract),
      [faults] (keyed separately, see {!Ccache.prog_key}) and [cache]
      (plumbing) are excluded. *)

  val of_canonical : string -> (t, string) result
  (** Strict inverse of {!canonical} over the included fields; excluded
      fields come back at their defaults. Other versions, the retired
      [v3] and [v2] strings among them, are an [Error].
      [canonical] ∘ [of_canonical] ∘ [canonical] is the identity (the
      round-trip fixed point the cache keys rely on). *)
end

type result = {
  chip : Cim_arch.Chip.t;
  graph : Cim_nnir.Graph.t;
  ops : Opinfo.t array;
  schedule : Plan.schedule;
  places : Placement.seg_place list;
  program : Cim_metaop.Flow.program;
  dp_stats : Segment.stats;
  degradation : Degrade.report;
      (** which solve stages fired per segment, the usable-array pool the
          plan was made against, and the static flow-validator findings —
          empty events/diagnostics on a clean full-capacity compile *)
  compile_seconds : float;      (** wall-clock compilation time (Fig. 18) *)
}

val compile :
  ?config:Config.t -> ?shape:string -> ?passes:Passes.pass list ->
  ?validate_each:bool -> ?on_pass:(Passes.pass -> Passes.state -> unit) ->
  Cim_arch.Chip.t -> Cim_nnir.Graph.t -> result
(** Run the pass pipeline over the graph. With [config.faults], the solver
    plans against {!Cim_arch.Faultmap.effective_chip} (only
    freely-assignable arrays count as capacity) while placement runs on
    the real chip with dead arrays masked and stuck arrays pinned to their
    mode; the emitted program is re-checked by the {!Cim_metaop.Check}
    flow validator and any findings land in [degradation.diagnostics].

    [passes] (default {!Passes.default_pipeline}) selects the pipeline; it
    must produce the artifacts {!result} projects (a pipeline without
    codegen fails with the missing pass named). [validate_each] runs every
    pass's validator ({!Passes.Pass_error} names the failing pass);
    [on_pass] observes the state after each pass (the CLI's
    [--dump-after]).

    With [config.cache], the whole compilation is first looked up in the
    program tier (key: canonical graph text, chip, fault map,
    [Config.canonical], and the {!Passes.fingerprint} of [passes]); a hit
    runs the replay pass list — the cached segmentation slotted into the
    live extraction/placement/codegen passes, the program's digest
    compared and {!Cim_metaop.Check} run strictly — through the same
    runner, seeded with the cached degradation events, so a stale or
    corrupted entry degrades to a miss, never a wrong program. On a miss
    the per-segment tier still memoises window MIP solutions across runs,
    and a clean result is stored back. Cache hits preserve the
    byte-identical determinism contract at any job count.

    Raises [Failure], [Invalid_argument], [Opinfo.Unsupported] or
    [Cim_nnir.Shape_infer.Error] on graphs the (remaining) chip cannot run
    — use {!compile_robust} for a non-raising pipeline.

    [shape] is an opaque versioned fragment mixed into the program-tier key
    (see {!Ccache.prog_key}); {!compile_model} derives it from the bucket
    policy. *)

val compile_robust :
  ?config:Config.t -> Cim_arch.Chip.t -> Cim_nnir.Graph.t ->
  (result, Degrade.report) Stdlib.result
(** Never raises: {!recompile}'s ladder with level 0 only. A {!compile}
    that fails with any of the exceptions listed there is retried with
    {!Passes.serial_pipeline} — serial single-operator segments under
    greedy allocation, never cached — whose report opens with a
    [Serial_fallback] event reading [ladder level 0: <why>] and records
    every serial segment as a further [Serial_fallback] event. When the
    serial step fails too (an operator that does not fit even alone, a
    graph whose shapes disagree), returns [Error report] whose diagnostics
    say what failed at each step. Unlike {!recompile} it bumps no
    [compile.recompile.*] counter. *)

(** What an online recompile produced, and how hard it had to degrade. *)
type recompile_outcome = {
  rc_result : result;
  rc_level : int;
      (** ladder level that produced the plan: 0 = the given config,
          1 = node budget clamped to 32, 2 = near-greedy (node budget 1,
          no refinement), 3 = serial single-operator segments *)
  rc_attempts : int;   (** ladder levels actually tried *)
  rc_seconds : float;  (** total wall-clock across all attempts *)
}

val recompile :
  ?config:Config.t -> ?budget_seconds:float -> Cim_arch.Chip.t ->
  Cim_nnir.Graph.t -> (recompile_outcome, Degrade.report) Stdlib.result
(** The reusable recompile-around-faults entry point for runtime serving:
    compile under [config] (put the current fault map in [config.faults]),
    descending a fixed degradation ladder until some level yields a plan.
    Each level is an ordinary {!compile}, so a warm compilation cache makes
    repeated recompiles of previously-seen fault maps near-free; duplicate
    ladder configs are skipped. The last level is the serial step
    {!compile_robust} falls back to; when it plans, every failed level
    before it is a [Serial_fallback] event ([ladder level N: <why>]) on
    its report. With
    [budget_seconds], a spent wall-clock budget jumps straight to the
    cheapest (serial) level rather than giving up — the caller needs
    {e a} plan now, not the best one. Note that a wall-clock budget can
    make the {e chosen level} timing-dependent; leave it [None] (the
    default) where the byte-identical determinism contract matters, e.g.
    under {!Cim_sim.Fleet}'s plan prefetch. Never raises on a graph the
    compiler rejects: [Error report] when even serial compilation cannot
    fit the graph on the remaining arrays, with one diagnostic per failed
    level. Raises [Invalid_argument] only for a negative or non-finite
    [budget_seconds]. Emits
    [compile.recompile.total] / [compile.recompile.level<N>] counters on
    success. *)

val memory_mode_ratio : result -> float
(** Average over segments of (memory-mode arrays / chip arrays) — the
    metric of Fig. 16's last row. *)

(** End-to-end model cost with block reuse: transformer benchmarks compile
    one block and replicate it [n_layers] times (plus the LM head), as the
    paper does; CNNs compile whole. *)
type model_cost = {
  model : string;
  workload : Cim_models.Workload.t;  (** the workload as requested *)
  padded_workload : Cim_models.Workload.t;
      (** the workload actually compiled — the bucket-ceiling rebuild when a
          policy is active, [workload] itself otherwise. [total_cycles] and
          every [result] price this shape: the padded program is what
          executes, so the padding cost is in the Eq. 10 numbers, never
          hidden *)
  bucket_ceiling : int option;
      (** context length compiled at, when a bucket policy applied *)
  layer : result option;        (** the reused block, when block reuse applies *)
  whole : result option;        (** whole-graph compilation (CNNs) *)
  head : result option;         (** LM head (decoder/encoder output projection) *)
  total_cycles : float;
  mem_ratio : float;
  compile_seconds : float;
}

val compile_model :
  ?config:Config.t -> ?passes:Passes.pass list -> ?validate_each:bool ->
  ?on_pass:(Passes.pass -> Passes.state -> unit) ->
  Cim_arch.Chip.t -> Cim_models.Zoo.entry -> Cim_models.Workload.t -> model_cost
(** [passes] / [validate_each] / [on_pass] are forwarded to every
    underlying {!compile} (the block, the whole network and the LM head
    alike). With [config.buckets], sequence workloads (never CNNs) are rebuilt at
    their bucket ceiling before compilation: the cache keys carry a
    [shape.v1] fragment derived from the bucket (so every length inside a
    bucket shares the same program- and seg-tier entries), and a
    {!Cim_nnir.Shape_infer.dominates} check asserts the padded graph covers
    the actual shapes whenever padding occurred. This is the decode loop's
    one fast path: a decode step that crosses into a new bucket is an
    ordinary compile at the new ceiling, and with [config.cache] every
    other length inside a compiled bucket replays the program tier without
    solving a MILP. *)

val head_graph :
  Cim_models.Zoo.entry -> Cim_models.Workload.t -> Cim_nnir.Graph.t option
(** The LM-head projection graph compiled alongside the reused block;
    [None] for CNNs. Shared with the baseline compilers so every compiler
    prices the same end-to-end network. *)
