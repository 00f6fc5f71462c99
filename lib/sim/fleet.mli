(** Event-driven multi-chip fleet serving with a runtime failure model:
    the one request-level event loop. It replays a {!Serving} trace
    through [chips] identical chips behind a shared router, with a seeded
    fault {e schedule} delivered mid-run (arrays die, get stuck in one
    mode, or start failing switches at given cycles), and the runtime
    policies a production deployment needs to survive it —

    - {b recompile-around-faults}: when a fault lands on a chip, its
      in-flight request is aborted and retried (bounded exponential
      backoff) while the chip recompiles against its new fault map and is
      back after [recompile_cycles] of simulated downtime;
    - {b circuit breaker}: a chip that faults [breaker_threshold] times is
      pulled out of rotation for good and its queue re-routed;
    - {b SLO-aware shedding}: under an SLO, a request that can no longer be
      served in full within its latency target is degraded to a cheaper
      {e shed} tier (output truncated to [shed_output] tokens) {e before}
      any request is dropped outright.

    One chip with an empty schedule, [slo = Some d] and a [shed_output]
    at or above every request's output (e.g. [max_int]) is plain FCFS
    with deadline admission: the shed tier is off, a request whose
    predicted completion exceeds [arrival + d] is dropped on arrival, and
    every other request is served in full in arrival order. With
    [slo = None] nothing is dropped.

    Every offered request reaches exactly one terminal state — completed
    (full service), dropped (rejected at arrival), or shed (truncated
    service, or gave up after exhausting retries: the [starved] subset) —
    so [completed + dropped + shed = offered] always holds.

    Determinism: plans for every fault map a chip can pass through are
    prefetched in parallel and merged in schedule order; the event loop
    itself is a serial discrete-event simulation. With a deterministic
    planner, stats are byte-identical at any [jobs] count for the same
    seed, schedule, and trace. Recompile downtime is charged in simulated
    cycles ([recompile_cycles]), never wall-clock, for the same reason. *)

type fault_event = {
  at : float;           (** cycles since trace start *)
  chip : int;           (** fleet chip id, [0 <= chip < chips] *)
  coord : Cim_arch.Chip.coord;
  state : Cim_arch.Faultmap.fault option;
      (** new state for that array; [None] clears the fault (repair) *)
}

val schedule_to_string : fault_event list -> string
(** One event per line: [at=CYCLES chip=I array=X,Y fault=KIND] with [KIND]
    one of [dead], [stuck-compute], [stuck-memory], [transient:P], [clear]. *)

val schedule_of_string : string -> (fault_event list, string) result
(** Parse the {!schedule_to_string} format; blank lines and [#] comments
    are skipped. Errors name the offending line. *)

val random_schedule :
  Cim_util.Rng.t -> chip:Cim_arch.Chip.t -> chips:int -> n:int ->
  horizon:float -> fault_event list
(** [n] events at uniform times in [0, horizon), uniform over chips and
    arrays, biased towards [Dead] (1/2; stuck 1/4, transient 1/4), sorted
    by time. Deterministic in the RNG state. *)

type plan = {
  level : int;
      (** degradation-ladder level this plan was compiled at (0 = best);
          informational — the simulator only charges [profile] *)
  profile : Serving.cost_profile;
      (** {!run} prices each (prompt, tokens) pair once per chip while the
          plan is installed there, and reuses that price: so the profile is
          called at most once per pair, and must be pure *)
}

type planner = chip:int -> faults:Cim_arch.Faultmap.t -> plan option
(** Compile (or fetch from cache) a serving plan for one chip under one
    fault map; [None] means no plan exists (e.g. no flexible array
    survives) and the chip is out. Called once per (chip, fault-event
    prefix), possibly from pool workers — must be pure and deterministic
    for the fleet determinism contract to hold. *)

type config = {
  chips : int;               (** fleet size, >= 1 *)
  slo : float option;
      (** per-request latency target in cycles; [None] disables both
          admission drops and shedding-by-SLO *)
  shed_output : int;
      (** output tokens a shed request still gets; at or above every
          request's output, the shed tier is off *)
  max_retries : int;         (** fault-abort retries before starving *)
  backoff_base : float;      (** first retry delay, cycles *)
  backoff_cap : float;       (** retry delay ceiling, cycles *)
  breaker_threshold : int;   (** fault events before the breaker opens *)
  recompile_cycles : float;  (** simulated downtime per online recompile *)
  jobs : int;                (** plan-prefetch parallelism *)
}

val default_config : config
(** 2 chips, no SLO, 4-token shed tier, 3 retries, backoff 1k..64k cycles,
    breaker at 4 faults, 10k-cycle recompiles, [Pool.default_jobs ()]. *)

type stats = {
  offered : int;
  completed : int;           (** served in full *)
  dropped : int;             (** rejected at arrival (SLO admission, or no
                                 chip left in rotation) *)
  shed : int;                (** served truncated, or starved *)
  starved : int;             (** subset of [shed]: gave up after retries /
                                 eviction with no chip left; zero tokens *)
  retries : int;
  recompiles : int;
  breaker_opens : int;
  chips_out : int;           (** chips out of rotation at end of run *)
  slo_violations : int;      (** served requests that still missed the SLO *)
  makespan : float;
  mean_latency : float;      (** over served (completed + shed) requests *)
  p50_latency : float;
  p95_latency : float;
  p99_latency : float;       (** nearest-rank: the worst observed latency
                                 on traces under 100 served requests *)
  p999_latency : float;
  mean_ttft : float;
  p50_tpt : float;           (** median time-per-token: nearest-rank over
                                 every decode step of every served request *)
  p95_tpt : float;
  p99_tpt : float;
  tokens : int;
  tokens_per_megacycle : float;
  per_chip_served : int list;  (** requests served, by chip id *)
}

val run :
  ?config:config -> ?telemetry:Cim_obs.Telemetry.t ->
  ?snapshot_extra:(unit -> (string * float) list) ->
  chip:Cim_arch.Chip.t -> planner -> fault_event list ->
  Serving.request list -> stats
(** Simulate the fleet over the trace and fault schedule. Events sharing a
    timestamp fire faults-before-arrivals, then in insertion order. Also
    emits [serving.*] counters ([offered]/[completed]/[dropped]/[shed]/
    [starved]/[retries]/[recompiles]/[breaker_opens]/[tokens]/
    [slo_violations]), latency histograms, and per-chip labelled
    instruments ([serving.chip.served{chip="i"}], [.out], [.fault_hits])
    when metrics are enabled.

    With [telemetry], the run additionally records into the collector —
    all of it in simulated cycles, none of it read back by the event loop,
    so stats are structurally identical with and without a collector:
    - request-phase spans: [queue] / [retry_backoff] and terminal markers
      ([shed], [starved], [drop]) on the router lane; [prefill] / [decode]
      (partitioning each chip's busy time) and [recompile] on per-chip
      [chipN] lanes; [fault] / [breaker_open] / [offline] marks where they
      land;
    - a fleet-state snapshot into the collector's timeline every
      [snapshot_interval] cycles (throughput, queue depth, in-flight,
      chips out, breaker opens, SLO burn rate, ...), plus whatever
      [snapshot_extra] returns (e.g. the CLI adds plan-cache hit rate),
      with a forced final sample at the last event;
    - the ["slo"] error-budget summary when the collector has a budget.

    When tracing is enabled, the same spans and marks are mirrored onto
    the Chrome trace's {!Cim_obs.Trace.pid_fleet} process (router = tid 0,
    chip [i] = tid [i+1]).

    Raises [Invalid_argument] on an invalid config, a malformed request,
    or a fault event naming a chip outside [0, chips) or an array
    coordinate outside [chip]'s grid. *)
