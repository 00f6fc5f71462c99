(** Dense row-major float tensors used as the golden reference for functional
    simulation (the PyTorch substitute). *)

type t

val create : Shape.t -> float array -> t
(** Raises [Invalid_argument] when the data length differs from
    [Shape.numel]. The array is owned by the tensor afterwards. *)

val zeros : Shape.t -> t
val full : Shape.t -> float -> t
val init : Shape.t -> (int list -> float) -> t
(** [f] gets each element's multi-index, in row-major order. Building the
    index allocates per element, so this and {!get}/{!set} serve tests and
    one-off lookups; {!Ops} works on flat offsets. *)

val scalar : float -> t

val shape : t -> Shape.t
val numel : t -> int
val data : t -> float array
(** Direct access to the backing store (row-major). *)

val get : t -> int list -> float
val set : t -> int list -> float -> unit
val get_flat : t -> int -> float
val set_flat : t -> int -> float -> unit

val reshape : t -> Shape.t -> t
(** Shares the backing store; raises when element counts differ. *)

val copy : t -> t
val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
(** Element-wise; raises on shape mismatch (no broadcasting here). *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

val equal : ?eps:float -> t -> t -> bool
(** Shape equality plus element-wise [|a - b| <= eps] (default [1e-9]). *)

val max_abs_diff : t -> t -> float
(** Raises on shape mismatch. *)

val rand : Cim_util.Rng.t -> Shape.t -> lo:float -> hi:float -> t
val randn : Cim_util.Rng.t -> Shape.t -> mu:float -> sigma:float -> t

val to_string : ?max_elems:int -> t -> string
