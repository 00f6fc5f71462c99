(** Hierarchical tracing with a Chrome trace-event exporter.

    Spans nest by lexical structure ({!with_span}) on the compiler track and
    by explicit timestamps on the simulator tracks; the export is the JSON
    object format of the Chrome trace-event specification, loadable in
    Perfetto or [chrome://tracing].

    Tracing is globally disabled by default: every recording entry point
    checks one boolean and returns immediately, so instrumented hot paths
    cost nothing observable in production runs (see the self-overhead guard
    in [test/t_obs.ml]).

    Three processes partition the timeline, each with its own clock:
    - pid {!pid_compiler} — wall-clock microseconds (spans of compilation
      passes);
    - pid {!pid_simulator} — simulated cycles (timing-model segments and
      per-array mode residency, the one trace of array modes);
    - pid {!pid_fleet} — fleet-serving cycles (per-request phase spans on
      per-chip lanes, fault/breaker instant markers).

    The event store can be bounded ({!set_capacity}): with a capacity set
    it behaves as a ring — the oldest events are evicted first, an
    eviction count is kept (and surfaced as the [trace.dropped] metrics
    counter), and the export reports it as ["droppedEvents"]. Metadata
    (track-name) events are never evicted. *)

type event
(** One recorded trace event (opaque; see {!with_buffer} / {!merge}). *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop all recorded events and zero the dropped-event count (the enabled
    flag and capacity are left as-is). *)

val set_capacity : int option -> unit
(** Bound the shared event store to the given number of events ([None] =
    unbounded, the default). When full, recording a new event evicts the
    oldest one (ring semantics) and increments both the internal dropped
    count and the [trace.dropped] metrics counter (when metrics are
    enabled). Setting a capacity below the current event count evicts
    immediately. Raises [Invalid_argument] on a non-positive capacity. *)

val get_capacity : unit -> int option

val dropped_count : unit -> int
(** Events evicted by the capacity cap since the last {!reset}. *)

val pid_compiler : int
val pid_simulator : int
val pid_fleet : int

val now_us : unit -> float
(** Microseconds since the trace module was initialised, clamped to be
    strictly increasing across calls {e from any domain} (stamps are
    published through an atomic CAS; consecutive acquisitions within one
    microsecond are spread 1 ns apart, so span intervals never degenerate
    and per-domain buffers merge onto one monotone timeline). *)

(** {2 Domain-safety}

    All recording entry points may be called from any domain. By default
    events land in the shared (mutex-guarded) list; a worker that wraps its
    work in {!with_buffer} records into a domain-local buffer instead, and
    the coordinator appends the buffers with {!merge} in an order of its
    choosing — [Segment.run] merges in task-submission order, so the event
    sequence is identical whatever the job count. *)

val with_buffer : (unit -> 'a) -> 'a * event list
(** Run [f] with this domain's recording redirected to a fresh local
    buffer; returns [f]'s value and the buffered events in recording
    order. Nestable; the previous destination is restored even when [f]
    raises (buffered events of a raising [f] are dropped with it). *)

val merge : event list -> unit
(** Append events captured by {!with_buffer} to the shared list, preserving
    their order. *)

val set_domain_tid : int -> unit
(** Set the Chrome-trace thread id spans from this domain are attributed
    to (default 1). Pool workers get distinct tids so parallel solves
    appear as parallel lanes in Perfetto. *)

val domain_tid : unit -> int

val with_span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a complete event on the compiler
    track; the event is recorded even if [f] raises. When tracing is
    disabled this is exactly [f ()]. *)

val instant :
  ?cat:string -> ?args:(string * Json.t) list -> ?pid:int -> ?tid:int ->
  ?ts:float -> string -> unit
(** A zero-duration marker; defaults to the compiler track at the current
    wall clock, with explicit coordinates available for synthetic clocks
    (the fleet simulator stamps fault/breaker markers in cycles). *)

val complete :
  ?cat:string -> ?args:(string * Json.t) list -> pid:int -> tid:int ->
  ts:float -> dur:float -> string -> unit
(** A complete event with explicit coordinates — used by the simulators,
    whose clocks are synthetic (cycles). *)

val counter : ?cat:string -> pid:int -> ts:float -> string -> (string * float) list -> unit
(** A counter-track sample (Chrome ["C"] event). *)

val name_process : pid:int -> string -> unit
val name_thread : pid:int -> tid:int -> string -> unit
(** Metadata events labelling tracks in the viewer. Idempotent per target:
    repeated names for the same (pid, tid) are recorded once. *)

val export : unit -> Json.t
(** The trace as [{"traceEvents": [...], "displayTimeUnit": "ms"}] (plus
    ["droppedEvents"] when the capacity cap evicted any). Events appear in
    recording order; span events carry [ph = "X"] with [ts]/[dur] so
    nesting is recovered by interval containment. *)

val write_file : string -> unit
(** [export] pretty-printed to a file. *)
