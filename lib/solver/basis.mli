(** Factorized basis of the revised simplex: an explicitly maintained
    [B^-1], updated in product form at every pivot and rebuilt from the
    basic columns (Gauss-Jordan with partial pivoting) when the update
    count crosses the refactorization threshold, so rounding drift cannot
    accumulate across a long pivot sequence. *)

type t

val create : int -> t
(** [create m] starts as the identity (the all-slack basis) on an [m]-row
    system. *)

val dim : t -> int

val reset : t -> unit
(** Back to the all-slack identity with a zero update count. Lets a
    workspace reuse one factorization across a whole branch-and-bound
    tree: cold starts reset, warm starts skip it because {!restore}
    overwrites the inverse wholesale. *)

val ftran : t -> float array -> float array
(** [ftran t a] is [B^-1 a] (forward transformation: entering column,
    basic values). *)

val ftran_into : t -> float array -> float array -> unit
(** [ftran_into t a dst] writes [B^-1 a] into [dst] — the allocation-free
    {!ftran} for the solver's per-solve hot path. [dst] must not alias
    [a] or the inverse. *)

val btran : t -> float array -> float array
(** [btran t c] is [c^T B^-1] (backward transformation: pricing vector). *)

val btran_into : t -> float array -> float array -> unit
(** [btran_into t c dst] writes [c^T B^-1] into [dst]; same aliasing rule
    as {!ftran_into}. *)

val row : t -> int -> float array
(** [row t r] is [e_r^T B^-1], the row of the inverse the dual simplex
    prices with. Returns the live row — read-only, and invalidated by the
    next {!pivot}/{!refactor}/{!restore} on [t]. *)

val pivot : t -> row:int -> w:float array -> unit
(** Product-form update replacing the basic variable of [row] by the
    column whose ftran is [w]. [w.(row)] is the pivot element; the caller
    guarantees it is bounded away from zero. *)

val updates_since_refactor : t -> int

val needs_refactor : t -> bool
(** True once 64 product-form updates have accumulated since the last
    refactorization. *)

val refactor : t -> col:(int -> float array) -> order:int array -> bool
(** Rebuild [B^-1] from scratch by inverting the matrix whose [i]-th
    column is [col order.(i)]. Returns [false] (leaving the factorization
    unusable) if the basis matrix is numerically singular; callers must
    then fall back to a cold start. Bumps the
    [solver.simplex.refactorizations] counter. *)

val export : t -> float array array
(** Deep copy of the current [B^-1], for embedding in a basis snapshot.
    Installing it back with {!restore} costs O(m^2) instead of the O(m^3)
    {!refactor} — the payoff that makes warm-started branch-and-bound
    re-solves cheap. *)

val restore : t -> float array array -> updates:int -> unit
(** Overwrite [B^-1] with an {!export}ed copy and set the update counter
    (so drift accumulated before the export still counts toward the next
    periodic refactorization). Only valid when the snapshot came from a
    basis of the same constraint matrix — the branch-and-bound contract,
    where children change bounds but never rows. *)
