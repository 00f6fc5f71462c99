(** Request-level serving simulation: drives a compiled model's cost
    profile with a trace of inference requests (prompt + generation
    lengths, arrival times) through a single CIM chip, FCFS. This is the
    system-level view behind the paper's LLM motivation: decode steps
    dominate wall-clock, and their bandwidth-bound nature is what dual-mode
    compilation accelerates. *)

type request = {
  arrival : float;   (** cycles since trace start *)
  prompt : int;      (** tokens pre-filled at once *)
  output : int;      (** tokens generated, one decode step each *)
}

type cost_profile = {
  prefill_cycles : int -> float;     (** prompt length -> cycles *)
  decode_cycles : int -> float;      (** kv length -> cycles per token *)
}

type stats = {
  completed : int;
  dropped : int;               (** requests rejected by deadline admission *)
  makespan : float;            (** cycles until the last request finishes *)
  mean_latency : float;        (** request arrival -> completion, cycles *)
  p95_latency : float;         (** nearest-rank: the worst observed latency
                                   on traces under 20 completed requests *)
  p99_latency : float;         (** nearest-rank tail latency *)
  mean_ttft : float;           (** time to first token, cycles *)
  p50_tpt : float;             (** median time-per-token: nearest-rank over
                                   every decode step of every admitted
                                   request, cycles *)
  p95_tpt : float;
  p99_tpt : float;
  tokens : int;
  tokens_per_megacycle : float;
}

val zero_stats : stats
(** All-zero statistics: what an empty trace (or a trace whose every
    request was dropped) reports. *)

(** Simulation knobs as one record, so new policies (batching windows,
    admission variants) extend a field instead of growing [run]'s optional
    argument list. *)
type config = {
  deadline : float option;
      (** per-request completion deadline in cycles (admission control);
          [None] admits everything *)
}

val default_config : config
(** No deadline. *)

val bucketed_profile :
  ceiling:(int -> int) ->
  prefill_cycles:(int -> float) ->
  decode_cycles:(int -> float) ->
  cost_profile
(** View a per-length cost model through a bucket policy: every length maps
    to [ceiling length] (which must be [>= length] — [Invalid_argument]
    otherwise) and each distinct ceiling is priced exactly once, memoised.
    [prefill_cycles] receives the bucketed prompt length; [decode_cycles]
    receives the bucketed KV length (the bucket ceiling of [kv_len + 1],
    minus one — buckets partition {e context} lengths). Pass
    [Cim_compiler.Bucket.ceiling] of the compile-side policy as [ceiling]
    so simulated costs price exactly the padded programs the compiler
    emits. *)

val interpolate : (int * float) list -> int -> float
(** Piecewise-linear interpolation through sample points (sorted
    internally, constant extrapolation outside). Duplicate-x samples are
    deduplicated by key, keeping the {e last} one given — never a
    zero-width bracket, never NaN. An empty sample list yields the
    constant-zero profile. *)

val run :
  ?config:config -> cost_profile -> request list -> stats
(** FCFS, no batching across requests: each request runs prefill then its
    decode steps with a growing KV length. An empty trace returns
    {!zero_stats}. [config] carries the simulation knobs. With
    [config.deadline] (cycles, must be positive), a request
    whose predicted completion would exceed arrival + deadline is dropped
    on arrival — it does not occupy the chip, counts in [dropped], and is
    excluded from every latency/throughput statistic; this is the degraded-
    throughput view of a chip slowed by faults. Raises [Invalid_argument]
    on a malformed request (non-positive prompt or negative output). *)

val poisson_trace :
  Cim_util.Rng.t -> n:int -> mean_gap:float -> prompt:int -> output:int ->
  request list
(** Synthetic open-loop trace: exponential inter-arrival gaps, fixed
    shape. *)

val bursty_trace :
  Cim_util.Rng.t -> n:int -> burst:int -> mean_gap:float -> intra_gap:float ->
  prompt:int -> output:int -> request list
(** Synthetic open-loop bursty trace: bursts of [burst] requests spaced
    [intra_gap] cycles apart inside the burst, with exponential
    (mean [mean_gap]) gaps between burst fronts — the adversarial arrival
    pattern for admission and shedding policies. Raises [Invalid_argument]
    on non-positive [n]/[burst] or negative [intra_gap]. *)
