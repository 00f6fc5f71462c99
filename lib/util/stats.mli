(** Small statistics toolkit used by the benchmark harness and reports. *)

val mean : float list -> float
(** Arithmetic mean. Raises [Invalid_argument] on the empty list. *)

val geomean : float list -> float
(** Geometric mean of strictly positive values. Raises [Invalid_argument] on
    the empty list or if any value is [<= 0.]. *)

val stdev : float list -> float
(** Sample standard deviation (n-1 denominator); [0.] for singleton lists.
    Raises [Invalid_argument] on the empty list. *)

val minimum : float list -> float
val maximum : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0, 100], linear interpolation between
    order statistics (sorted under the total order [Float.compare]). Raises
    [Invalid_argument] on the empty list, if [p] is out of range or NaN, or
    if any sample is NaN — NaN has no rank, and letting it through would
    silently mis-sort the input. *)

val percentile_nearest_rank : float -> float list -> float
(** Nearest-rank percentile (the smallest sample with at least [p]% of the
    distribution at or below it) — never interpolates, so on a small sample
    a tail percentile reports an actual observation (p95 of fewer than 20
    samples is the maximum) instead of an optimistic blend of the two
    largest. Raises [Invalid_argument] on the empty list, [p] out of range
    or NaN, or any NaN sample (same rationale as {!percentile}). *)

val nearest_rank_counts : (float * int) list -> float -> float
(** [nearest_rank_counts counts] is [fun p -> percentile_nearest_rank p xs]
    for the [xs] that holds each [v] of [(v, k)] in [counts] [k] times,
    in order. [xs] is never built, and [counts] is sorted once, on the
    first application, so one sort serves every percentile of a sample.
    Raises [Invalid_argument] when [counts] is empty or holds a NaN value
    or a count below 1, and when [p] is out of range or NaN. *)

val median : float list -> float

val normalize_to_max : float list -> float list
(** Scale so the maximum becomes [1.]; the empty list maps to itself, and an
    all-zero list is returned unchanged. *)

val ratio : float -> float -> float
(** [ratio a b = a /. b], raising [Invalid_argument] when [b = 0.]. *)
