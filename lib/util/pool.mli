(** Dependency-free work pool on OCaml 5 domains.

    A pool owns [jobs] worker domains fed from a single FIFO task queue
    ([Mutex] + [Condition], stdlib only); the caller's domain only submits
    and awaits. With [jobs = 1] no domain is spawned and every task runs
    inline at submission, so a 1-job pool is behaviourally identical to
    calling the thunks directly — the serial baseline the determinism
    contract of [Segment.run] is stated against.

    Tasks are independent: a task must not await a future of the same pool
    (the caller's domain is the only consumer of futures, and workers never
    block on each other), which is what makes the pool deadlock-free by
    construction. Worker exceptions are captured with their backtraces and
    re-raised at {!await}, never swallowed. *)

type t

type 'a future

val default_jobs : unit -> int
(** The job count compiled against when the caller does not choose one:
    [CMSWITCH_JOBS] from the environment when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

val parse_jobs : string -> (int, string) result
(** Validate a user-supplied job count: a positive decimal integer. Used by
    the CLI [--jobs] flag and the [CMSWITCH_JOBS] environment override so
    both reject the same inputs ([0], negatives, garbage) the same way. *)

val create : ?name:string -> ?on_worker_start:(int -> unit) -> jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs] worker domains ([jobs = 1] spawns
    none). [on_worker_start i] runs first on worker [i] (0-based, on the
    worker's own domain) — used to label observability state per domain.
    Called from a pool worker, it spawns nothing and returns a 1-job pool
    whose tasks run inline on that worker, so nested parallel code (a
    [Segment.run] inside a parallel sweep, a simulation inside a fleet
    prefetch) runs serial and domain counts never multiply.
    Raises [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task. On a 1-job pool the task runs inline before [submit]
    returns. Raises [Invalid_argument] on a pool that has been shut down. *)

val await : 'a future -> 'a
(** Block until the task finished; returns its value or re-raises its
    exception with the worker's backtrace. Only the submitting domain may
    await (single-consumer futures). *)

val shutdown : t -> unit
(** Discard tasks not yet started (their futures raise [Failure] when
    awaited), wait for running ones, and join all worker domains.
    Idempotent. *)

val with_pool : ?name:string -> ?on_worker_start:(int -> unit) -> jobs:int ->
  (t -> 'a) -> 'a
(** [create] / run / [shutdown], shutdown guaranteed on exceptions. *)

val current_worker : unit -> int option
(** [Some i] when called from worker [i] of some pool, [None] on any other
    domain. {!create} reads it to run nested pools inline; code holding a
    pool reads it so the pool's own workers do not submit back into it. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Submit one task per element, await in order. Exceptions re-raise in
    list order: the first failing element wins, deterministically,
    whatever order the workers actually failed in. *)
