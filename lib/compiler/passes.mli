(** The nanopass pass manager: the compilation pipeline as a first-class
    list of named passes over an explicit state value, instead of phases
    hardwired inside [Cmswitch.compile].

    Every pass is a record of a [name], a [run] step over {!state}, and an
    optional per-pass validator (the racket nanopass discipline: each pass
    is paired with a checker so a broken pass is caught at its own
    boundary, with the failing pass named). Every [Cmswitch] entry point
    runs its pass list through one runner: {!default_pipeline} (or the
    caller's list) for a cold compile, a replay list for a cache hit and
    {!serial_pipeline} for the fallback. The CLI surfaces custom
    pipelines with [--passes], [--dump-after] and [--validate-each].

    The golden program MD5s and DP stats of [test/golden] pin what the
    default pipeline emits. *)

(** Immutable compilation context shared by every pass of one run. This is
    the decomposed form of [Cmswitch.Config] (the pass layer cannot see
    [Config] — [Cmswitch] depends on this module, not vice versa). *)
type env = {
  chip : Cim_arch.Chip.t;         (** the real chip placement runs on *)
  solve_chip : Cim_arch.Chip.t;
      (** what the solver plans against: the fault map's effective chip
          when compiling around faults, else [chip] itself *)
  faults : Cim_arch.Faultmap.t option;
  partition_fraction : float;
  seg_options : Segment.options;
  on_stage : Degrade.event -> unit;
      (** degradation-event sink (the driver accumulates the report) *)
}

(** The compilation-state value passes transform: each artifact starts
    [None] and is filled in by the pass that produces it. *)
type state = {
  env : env;
  graph : Cim_nnir.Graph.t;
  ops : Opinfo.t array option;                 (** extract *)
  segments : Plan.seg_plan list option;        (** segment / segment_serial *)
  dp_stats : Segment.stats option;
  places : Placement.seg_place list option;    (** place *)
  schedule : Plan.schedule option;             (** schedule *)
  program : Cim_metaop.Flow.program option;    (** codegen *)
  isa : Cim_metaop.Isa.image option;           (** lower_isa *)
  diagnostics : string list option;            (** check *)
}

type pass = {
  name : string;
  describe : string;   (** one-line summary shown by [--passes help] *)
  run : state -> state;
  validate : (state -> (unit, string) result) option;
      (** per-pass oracle, run only under [--validate-each] (or
          [?validate_each:true]); an [Error] raises {!Pass_error} naming
          this pass. Reuses {!Cim_metaop.Check} / structural invariants;
          callers may substitute heavier oracles (e.g. the functional
          simulator) by overriding this field. *)
}

exception Pass_error of { pass : string; reason : string }
(** A per-pass validator rejected the state [pass] produced. *)

val log_src : Logs.src
(** Log source ["cmswitch.passes"]: [Debug] traces each pass boundary. *)

val make_env :
  ?faults:Cim_arch.Faultmap.t -> ?on_stage:(Degrade.event -> unit) ->
  partition_fraction:float -> seg_options:Segment.options ->
  Cim_arch.Chip.t -> env
(** [solve_chip] is derived from [faults]
    ({!Cim_arch.Faultmap.effective_chip}). [on_stage] defaults to a no-op. *)

val init : env -> Cim_nnir.Graph.t -> state
(** The empty starting state. *)

(** {2 Artifact accessors}

    Raise [Failure] with a message naming the missing artifact and the
    pass that should have produced it — a mis-ordered custom pipeline
    fails with a diagnosis, not a [None] crash. *)

val ops_exn : state -> Opinfo.t array
val segments_exn : state -> Plan.seg_plan list
val dp_stats_exn : state -> Segment.stats
val places_exn : state -> Placement.seg_place list
val schedule_exn : state -> Plan.schedule
val program_exn : state -> Cim_metaop.Flow.program
val isa_exn : state -> Cim_metaop.Isa.image
val diagnostics_exn : state -> string list

val segs_tile : m:int -> Plan.seg_plan list -> bool
(** The segments cover operators [0..m-1] in order, each window non-empty
    and starting where the previous one ended. The tiling validator of the
    segmentation passes; the cache replay checks a cached segmentation
    with it too. *)

(** {2 The registry} *)

val p_extract : pass
(** CIM-operator extraction + greedy sub-operator partitioning (§4.3.1);
    emits the ["partition"] trace span. *)

val p_segment : pass
(** DP segmentation with per-window MIP allocation (Alg. 1), each window
    priced in dual-mode and in compute-only allocation ({!Segment.run});
    emits ["dp.segmentation"]. *)

val p_segment_serial : pass
(** Last-resort serial segmentation: one operator per segment under greedy
    allocation, no DP and no MIP; every segment fires a [Serial_fallback]
    event at [env.on_stage]. The fallback pipeline's replacement for
    {!p_segment}. *)

val p_place : pass
(** Physical array placement on the real chip; emits ["placement"]. *)

val p_schedule : pass
(** Roll the schedule up from the placed segments; emits ["schedule"]. *)

val p_codegen : pass
(** Meta-operator code generation (Fig. 13); emits ["codegen"]. *)

val p_check : pass
(** Static flow validation via {!Cim_metaop.Check}; diagnostics land in
    the state (and, through the driver, in the degradation report); emits
    ["flow.validate"]. *)

val p_lower_isa : pass
(** Lower the meta-operator program onto the MMIO command-stream ISA
    ({!Cim_metaop.Isa}): command FIFO words + DMA descriptors, parallel
    blocks flattened between PAR_BEGIN/PAR_END markers. Not in the
    default pipeline; append with [--passes default,lower_isa]. Emits
    ["lower_isa"]. *)

val registry : pass list
(** Every known pass, lookup table for {!find} / {!parse_list}. *)

val find : string -> pass option

val default_pipeline : pass list
(** [extract; segment; place; schedule; codegen; check]: one
    segmentation per graph. *)

val serial_pipeline : pass list
(** [extract; segment_serial; place; schedule; codegen; check] — the
    serial step of [Cmswitch.compile_robust] and of the recompile ladder
    (no DP). *)

val parse_list : string -> (pass list, string) result
(** Parse a [--passes] spec: comma-separated pass names; the token
    [default] expands to {!default_pipeline} in place (so
    ["default,lower_isa"] appends the ISA lowering). Unknown names are an
    [Error] listing the registry. *)

val fingerprint : pass list -> string
(** Canonical ["passes.v1[name;name;...]"] serialisation of the active
    pass list — the program-tier cache-key fragment ({!Ccache.prog_key}),
    so a reordered or customised pipeline can never replay a program
    cached under a different pipeline. *)

val default_fingerprint : string
(** [fingerprint default_pipeline]. *)

val run_pass : ?validate:bool -> pass -> state -> state
(** Run one pass: wraps [run] in a ["pass.<name>"] trace span, observes
    the [compile.pass.<name>.seconds] histogram, and (with
    [~validate:true]) runs the pass's validator, raising {!Pass_error} on
    rejection. *)

val run_pipeline :
  ?validate_each:bool -> ?on_pass:(pass -> state -> unit) ->
  pass list -> state -> state
(** Fold {!run_pass} over the list. [on_pass] observes the state after
    each pass (the CLI's [--dump-after] hook). *)

val describe_state : state -> string
(** Human-readable dump of which artifacts are present and their shapes
    (ops count, segment list, schedule totals, program size and MD5, ISA
    command count, diagnostics) — what [--dump-after PASS] prints. *)
