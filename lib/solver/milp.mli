(** Branch-and-bound mixed-integer solver over the simplex LP relaxation —
    the role Gurobi plays in the paper (§4.3.2). Exact for the small models
    CMSwitch generates (a few dozen variables per network segment).

    Each child node differs from its parent by one tightened variable
    bound, so the parent's optimal basis stays dual-feasible for the child:
    with the default [Revised] backend every non-root node re-solve is
    warm-started from its parent's basis snapshot and repaired by a few
    dual-simplex pivots instead of a from-scratch solve
    ([solver.bb.warm_hits] counts them). Each stack entry also records
    its parent's LP objective — a bound on the whole subtree — so nodes
    whose bound has fallen inside the incumbent's gap by pop time are
    discarded without an LP solve at all ([solver.bb.bound_skips]).
    After the root relaxation seeds the rounding incumbent (deduped
    floor/ceil/round pinnings, skipped when the root is already
    integral), reduced-cost bound tightening shrinks integer boxes once
    for the whole tree ([solver.bb.rc_tightened]). The LP is validated
    once at the root; warm-started child re-solves skip the O(n.m)
    scan. *)

type kind = Continuous | Integer

type backend =
  | Revised  (** bounded-variable revised simplex ({!Lp}), warm-started *)
  | Dense
      (** dense tableau oracle ({!Lp_dense}); every node solves cold.
          Same branch-and-bound, so benches isolate the LP-core cost. *)

type result =
  | Optimal of Lp.solution
  | Infeasible
  | Unbounded
  | Node_limit of Lp.solution option
      (** Search truncated — by the node budget or by an LP-level
          [Iteration_limit]; carries the incumbent if one was found. *)

val solve :
  ?eps:float -> ?max_nodes:int -> ?gap:float -> ?backend:backend ->
  Lp.problem -> kinds:kind array -> result
(** [eps] is the integrality tolerance (default 1e-6); [max_nodes] bounds
    the branch-and-bound tree (default 100_000); [gap] is the relative
    optimality gap below which branches are pruned (default 1e-6). A
    relaxation that exceeds the LP solver's iteration cap truncates the
    search to [Node_limit] rather than raising. The root relaxation is rounded and
    re-solved to seed the incumbent, so pruning is effective from the
    first node. Maximisation, like {!Lp.solve}. Integer variables must
    have finite bounds or bounds implied by constraints; branching
    tightens variable bounds. *)
