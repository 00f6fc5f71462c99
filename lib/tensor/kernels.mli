(** The fast kernel engine behind {!Ops} and {!Quant} (ROADMAP item 3).

    Two selectable backends compute the hot tensor kernels — 2-d matrix
    multiply (float and int8), im2col and the element-wise quantisation
    passes:

    - [Boxed] is the seed implementation: safe accesses over the plain
      OCaml arrays, naive loops. It is kept verbatim (in {!Ops} / {!Quant})
      as the differential oracle, exactly like [Lp_dense] next to the
      revised-simplex [Lp].
    - [Bigarray] is the engine in this module: the int8 path packs both
      operands into [Bigarray] int8 buffers (8x denser than the boxed
      [int array], one byte per element) and runs cache-blocked loops with
      unsafe accesses, accumulating in native OCaml ints — wider than the
      int32 a real CIM periphery carries, deliberately, so the result is
      {e exactly} the oracle's for any reduction depth; the float64 path
      runs the same cache-blocked unsafe loops directly over the unboxed
      OCaml float arrays (already flat binary64 storage — a copy into a
      Bigarray would only add O(mk + kn) traffic for zero layout gain).

    Identity contract: for every kernel and every input, both backends
    return {e bitwise identical} results. Integer arithmetic is exact, so
    blocking is free; the float kernels preserve the oracle's per-element
    accumulation order (ascending [p] for each [(i, j)], same zero skip),
    so blocking only reorders {e independent} dot products. The contract is
    what lets the compilation cache, the golden fixtures and the
    byte-identical parallel-simulation contract ignore the backend knob —
    and it is enforced by [test/t_kernels.ml]'s differential suite.

    Row parallelism: when a {!Cim_util.Pool} has been installed with
    {!set_pool}/{!with_pool} and the call site is the pool's submitting
    domain (never from inside a worker — {!Cim_util.Pool.current_worker}),
    large kernels split their output rows into one contiguous chunk per
    worker. Chunks write disjoint rows, every element is computed by
    exactly one task with the serial per-element order, so results stay
    bitwise identical at any job count. *)

type backend = Boxed | Bigarray

val backend_to_string : backend -> string

val backend_of_string : string -> (backend, string) result
(** Accepts ["boxed"] and ["bigarray"] (case-insensitive). *)

val default_backend : unit -> backend
(** [CMSWITCH_TENSOR_BACKEND] from the environment when set to a valid
    backend name, otherwise [Bigarray]. *)

val backend : unit -> backend
(** The process-wide backend {!Ops} and {!Quant} dispatch on. Initially
    {!default_backend}. *)

val set_backend : backend -> unit

val with_backend : backend -> (unit -> 'a) -> 'a
(** Run with the backend forced, restoring the previous one on exit (also
    on exceptions). The knob is global: scoping two different backends
    from two domains concurrently is a caller error. *)

val set_pool : Cim_util.Pool.t option -> unit
(** Install (or remove) the worker pool used for row-parallel kernels.
    Only the pool's submitting domain uses it; kernels called from inside
    any pool worker run serial. *)

val with_pool : Cim_util.Pool.t option -> (unit -> 'a) -> 'a
(** Scoped {!set_pool}, restoring the previous pool on exit. *)

val clamp_i8 : int -> int
(** Saturate to [-128, 127] (shared with {!Quant.clamp_i8}). *)

val matmul2d :
  float array -> int -> float array -> int -> m:int -> k:int -> n:int ->
  float array
(** [matmul2d a aoff b boff ~m ~k ~n] multiplies the [m*k] row-major block
    of [a] starting at [aoff] by the [k*n] block of [b] at [boff] into a
    fresh [m*n] array — bitwise identical to the boxed oracle loop. The
    offsets are how the batched {!Ops.matmul} cases index slices without
    per-batch copies. *)

val qmatmul2d : int array -> int array -> m:int -> k:int -> n:int -> int array
(** Int8 matmul with wide accumulation: operands are int8 {e values} (each
    in [-128, 127], as {!Quant.qtensor}). Returns the raw [m*n]
    accumulator array (feed it to {!Quant.requantize}); exactly equal to
    the boxed oracle's accumulators, by two routes. Wide calls (m >= 8)
    run on the float64 pipeline — every product is within ±2^14 and every
    accumulator within 2^14 * k < 2^53, so float arithmetic computes the
    integer dot products exactly while beating tagged-int arithmetic ~2x.
    Narrow (decode-shaped) calls, where converting the [k*n] operand would
    dominate, stream [b] from a dense int8 Bigarray pack with native-int
    accumulators instead. *)

val im2col :
  float array -> int -> c:int -> h:int -> w:int -> kh:int -> kw:int ->
  stride:int -> pad:int -> oh:int -> ow:int -> dst:float array ->
  dst_row0:int -> unit
(** [im2col src soff ...] unrolls one NCHW image (the [c*h*w] floats of
    [src] starting at [soff]) into patch rows
    [dst_row0 .. dst_row0 + oh*ow) of [dst] (row width [c*kh*kw]),
    zero-padding out-of-bounds taps — the same unrolling as the boxed
    {!Ops.im2col}, with unsafe accesses and contiguous inner-row copies. *)

val max_abs : float array -> float
(** Max absolute value, 0 on the empty array (chunk-parallel; max is
    order-independent, so exact). A NaN anywhere makes the result NaN, as
    the boxed oracle's [Float.max] fold does. *)

val quantize_values : float array -> scale:float -> int array
(** Element-wise [clamp_i8 (int_of_float (Float.round (x /. scale)))] —
    the boxed {!Quant.quantize} map, chunk-parallel. *)

val max_abs_int : int array -> int

val requantize_values : int array -> in_scale:float -> scale:float -> int array
(** Element-wise
    [clamp_i8 (int_of_float (Float.round (float v *. in_scale /. scale)))],
    chunk-parallel. *)
