(** CIM-operator extraction and greedy sub-operator partitioning (§4.3.1).

    The compiler works on the topologically sorted list of CIM-supportable
    operators (MatMul / Gemm / Conv). An operator whose stationary matrix
    needs more arrays than the partition cap is split along its output
    dimension into sub-operators that each fit, and the sub-operators are
    spliced into the sorted list in place of the original. *)

type t = {
  uid : int;                 (** dense index in the final (partitioned) order *)
  node_id : int;             (** source-graph node *)
  label : string;            (** node name, suffixed [#k/n] for sub-operators *)
  kind : Cim_models.Intensity.kind;
  macs : float;              (** MAC count of this (sub-)operator *)
  ai : float;                (** arithmetic intensity (MACs / byte of traffic,
                                 weights included — the paper's FLOPs/MemOP) *)
  in_bytes : int;            (** dynamic input bytes *)
  out_bytes : int;
  weight_bytes : int;        (** stationary-matrix bytes (also for dynamic
                                 stationary operands such as the K cache) *)
  stationary_rows : int;     (** K dimension mapped onto array rows *)
  stationary_cols : int;     (** output dimension mapped onto array columns *)
  replicas : int;            (** batched matmul / grouped conv: independent
                                 stationary matrices mapped side by side *)
  min_compute_arrays : int;  (** arrays needed to hold the stationary matrix *)
  out_lo : int;              (** output-feature slice covered, [out_lo,out_hi) *)
  out_hi : int;
  inputs : string list;      (** dynamic input tensor names *)
  output : string;
  deps : int list;           (** uids of CIM producers (transitively through
                                 non-CIM nodes) — the paper's w_{i,j} *)
}

exception Unsupported of string

val extract : Cim_arch.Chip.t -> ?partition_fraction:float -> Cim_nnir.Graph.t -> t array
(** [partition_fraction] (default 0.5) caps one sub-operator at that
    fraction of the chip's arrays. Raises [Unsupported] on malformed CIM
    nodes and [Invalid_argument] on a fraction outside (0, 1], NaN
    included. *)

val arrays_for : Cim_arch.Chip.t -> rows:int -> cols:int -> replicas:int -> int
(** Fig. 12: [ceil(rows/array_h) * ceil(cols/array_w) * replicas]. *)

val node_cim_ancestors : Cim_nnir.Graph.t -> (int, int list) Hashtbl.t
(** For every node (CIM or not), the ids of the CIM nodes it transitively
    depends on through non-CIM nodes. Used by code generation to anchor
    vector operators to segments. *)

val total_min_arrays : t array -> lo:int -> hi:int -> int
(** Sum of [min_compute_arrays] over the uid range [lo, hi] inclusive —
    the feasibility test of Alg. 1 line 9. *)
