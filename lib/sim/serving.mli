(** Request-level serving inputs: the request and cost-profile types a
    trace is made of, per-length cost views, and seeded synthetic traces.
    This is the system-level view behind the paper's LLM motivation: decode
    steps dominate wall-clock, and their bandwidth-bound nature is what
    dual-mode compilation accelerates.

    {!Fleet.run} is the one request-level event loop. With one chip, an
    empty fault schedule and the shed tier off it is FCFS with per-request
    deadline admission (see {!Fleet}). *)

type request = {
  arrival : float;   (** cycles since trace start *)
  prompt : int;      (** tokens pre-filled at once *)
  output : int;      (** tokens generated, one decode step each *)
}

type cost_profile = {
  prefill_cycles : int -> float;     (** prompt length -> cycles *)
  decode_cycles : int -> float;      (** kv length -> cycles per token *)
}

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

val poisson_trace :
  Cim_util.Rng.t -> n:int -> mean_gap:float -> prompt:int -> output:int ->
  request list
(** Synthetic open-loop trace: exponential inter-arrival gaps, fixed
    shape. The same trace as [bursty_trace ~burst:1 ~intra_gap:0.]. *)

val bursty_trace :
  Cim_util.Rng.t -> n:int -> burst:int -> mean_gap:float -> intra_gap:float ->
  prompt:int -> output:int -> request list
(** Synthetic open-loop bursty trace: bursts of [burst] requests spaced
    [intra_gap] cycles apart inside the burst, with exponential
    (mean [mean_gap]) gaps between burst fronts — the adversarial arrival
    pattern for admission and shedding policies. Raises [Invalid_argument]
    on non-positive [n]/[burst] or negative [intra_gap]. *)
