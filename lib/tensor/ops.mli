(** Reference (float) implementations of every operator in the model zoo.
    These define functional correctness for the CIM simulator: the meta-op
    executor must match these up to quantisation error.

    Every op is a flat loop over row-major offsets. The hot kernels
    (matmul, im2col and the conv2d lowering built on them) dispatch on
    {!Kernels.backend}: the default [Bigarray] backend runs the
    cache-blocked unsafe loops of {!Kernels}, while [Boxed] keeps the seed
    loops in this module as the differential oracle. Both return bitwise
    identical tensors for every input (see kernels.mli for the contract);
    [test/t_kernels.ml] checks it exhaustively. Everything else (broadcast,
    permute, concat, pooling) is one loop that both backends share: one
    strided walker for broadcast and permute, blits for concat, direct
    window loops for pooling. Their per-element [int list] forms live in
    [test/t_tensor.ml] as the oracle, which requires bitwise equality. *)

val matmul : Tensor.t -> Tensor.t -> Tensor.t
(** [m;k] x [k;n] -> [m;n]; also accepts a leading batch dim on the left
    operand ([b;m;k] x [k;n]) and fully batched ([b;m;k] x [b;k;n]). *)

val add : Tensor.t -> Tensor.t -> Tensor.t
(** Broadcasting element-wise addition (numpy rules: rank padding on the
    left, size-1 axes repeat). *)

val mul : Tensor.t -> Tensor.t -> Tensor.t
(** Broadcasting element-wise (Hadamard) product. *)

val relu : Tensor.t -> Tensor.t
val gelu : Tensor.t -> Tensor.t
(** tanh-approximation GELU, as used by BERT/OPT. *)

val silu : Tensor.t -> Tensor.t
(** x * sigmoid(x), the LLaMA activation. *)

val softmax : Tensor.t -> Tensor.t
(** Along the last axis, numerically stabilised. *)

val layernorm : ?eps:float -> Tensor.t -> gamma:Tensor.t -> beta:Tensor.t -> Tensor.t
(** Along the last axis; [gamma]/[beta] are 1-d of that axis length. *)

val rmsnorm : ?eps:float -> Tensor.t -> gamma:Tensor.t -> Tensor.t

val transpose2d : Tensor.t -> Tensor.t
val permute : Tensor.t -> int list -> Tensor.t

val im2col :
  Tensor.t -> kh:int -> kw:int -> stride:int -> pad:int -> Tensor.t
(** NCHW input [n;c;h;w] -> patch matrix [n * oh * ow; c * kh * kw]; this is
    exactly the unrolling the paper uses to express convolution as MMM. *)

val conv2d :
  Tensor.t -> weight:Tensor.t -> ?bias:Tensor.t -> stride:int -> pad:int ->
  ?groups:int -> unit -> Tensor.t
(** Input [n;c;h;w], weight [oc; c/groups; kh; kw]. Implemented with im2col +
    matmul per group so the functional simulator and the reference share the
    MMM lowering. *)

val conv2d_with :
  matmul:(Tensor.t -> Tensor.t -> Tensor.t) ->
  Tensor.t -> weight:Tensor.t -> ?bias:Tensor.t -> stride:int -> pad:int ->
  ?groups:int -> unit -> Tensor.t
(** Same lowering with a caller-supplied matrix multiply — the CIM
    functional simulator passes the int8 array arithmetic here. *)

val clip : Tensor.t -> lo:float -> hi:float -> Tensor.t
(** Saturate every element into [lo, hi]; ReLU6 is [clip ~lo:0. ~hi:6.]. *)

val maxpool2d : Tensor.t -> k:int -> stride:int -> ?pad:int -> unit -> Tensor.t

val avgpool2d : Tensor.t -> k:int -> stride:int -> ?pad:int -> unit -> Tensor.t
(** Padding contributes zeros to the average (count-include-pad). *)

val avgpool_global : Tensor.t -> Tensor.t
(** [n;c;h;w] -> [n;c]. *)

val concat : Tensor.t -> Tensor.t -> axis:int -> Tensor.t
(** [a] then [b] along [axis]; every other dimension must agree. *)
