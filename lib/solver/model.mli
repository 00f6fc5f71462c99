(** Gurobi-style model-building facade over {!Lp}/{!Milp}: named variables,
    linear expressions, incremental constraints. *)

type t
type var

type expr = (float * var) list
(** Linear combination; a constant term is passed separately. *)

val create : ?name:string -> unit -> t

val add_var :
  t -> ?lb:float -> ?ub:float -> ?integer:bool -> string -> var
(** Default bounds [0, infinity), continuous. *)

val var_name : var -> string

val add_le : t -> ?name:string -> expr -> float -> unit
(** [expr <= rhs]. *)

val add_ge : t -> ?name:string -> expr -> float -> unit
val add_eq : t -> ?name:string -> expr -> float -> unit

val maximize : t -> expr -> unit
val minimize : t -> expr -> unit

type outcome =
  | Optimal of float  (** objective value, in the user's sense (min or max) *)
  | Infeasible
  | Unbounded
  | Truncated of float option
      (** node or iteration budget exhausted; carries the incumbent
          objective when an integral solution was found in time *)

val solve : ?max_nodes:int -> ?gap:float -> t -> outcome
(** Branch-and-bound ({!Milp.solve}) over the bounded-variable revised
    simplex with warm-started re-solves. Pure-LP models (no integer
    variable) are validated and solved directly by {!Lp.solve}. *)

val to_problem : t -> Lp.problem * Milp.kind array
(** The assembled computational form: dense objective/rows (minimisation
    is negated into maximisation) plus the per-variable integrality kinds,
    in variable-creation order. Exposed so differential tests and solver
    benchmarks can replay the exact segment MILPs against both backends. *)

val value : t -> var -> float
(** Value in the last [Optimal]/[Truncated-with-incumbent] solution.
    Raises [Failure] when no solution is stored. *)

val int_value : t -> var -> int
(** Rounded [value]; the variable must be integer. *)

val n_vars : t -> int
val n_constraints : t -> int

val pp_stats : Format.formatter -> t -> unit
