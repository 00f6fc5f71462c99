(* Fast kernel engine. The correctness story lives in kernels.mli: both
   backends are bitwise identical on every kernel, which the blocked loops
   below guarantee by preserving the oracle's per-(i,j) ascending-p
   accumulation order (float) or by integer exactness (int8). *)

module BA = Stdlib.Bigarray
module Pool = Cim_util.Pool

type backend = Boxed | Bigarray

let backend_to_string = function Boxed -> "boxed" | Bigarray -> "bigarray"

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "boxed" -> Ok Boxed
  | "bigarray" -> Ok Bigarray
  | _ ->
    Error
      (Printf.sprintf "unknown tensor backend %S (expected boxed or bigarray)" s)

let default_backend () =
  match Sys.getenv_opt "CMSWITCH_TENSOR_BACKEND" with
  | None -> Bigarray
  | Some s -> ( match backend_of_string s with Ok b -> b | Error _ -> Bigarray)

let current : backend Atomic.t = Atomic.make (default_backend ())
let backend () = Atomic.get current
let set_backend b = Atomic.set current b

let with_backend b f =
  let prev = Atomic.get current in
  Atomic.set current b;
  Fun.protect ~finally:(fun () -> Atomic.set current prev) f

let pool_slot : Pool.t option Atomic.t = Atomic.make None
let set_pool p = Atomic.set pool_slot p

let with_pool p f =
  let prev = Atomic.get pool_slot in
  Atomic.set pool_slot p;
  Fun.protect ~finally:(fun () -> Atomic.set pool_slot prev) f

(* Below these sizes the submit/await round trip costs more than the win;
   macs counts fused multiply-adds, elems counts element-wise passes. *)
let par_threshold_macs = 1 lsl 21
let par_threshold_elems = 1 lsl 17

let usable_pool ~threshold ~work =
  if work < threshold then None
  else
    match Atomic.get pool_slot with
    | Some p when Pool.jobs p > 1 && Pool.current_worker () = None -> Some p
    | _ -> None

(* Run [f lo hi] over a partition of [0, n) into one contiguous chunk per
   worker (serial when no pool applies). Chunks write disjoint output rows,
   so the merged result is the serial result, bitwise. *)
let par_chunks ~threshold ~work n f =
  match usable_pool ~threshold ~work with
  | None -> if n > 0 then f 0 n
  | Some p ->
    let jobs = min (Pool.jobs p) n in
    if jobs <= 1 then (if n > 0 then f 0 n)
    else begin
      let chunk = ((n + jobs) - 1) / jobs in
      let futs =
        List.init jobs (fun t ->
            let lo = t * chunk in
            let hi = min n (lo + chunk) in
            Pool.submit p (fun () -> if lo < hi then f lo hi))
      in
      List.iter Pool.await futs
    end

(* Order-independent reduction: [seg lo hi] reduces a chunk, [merge] folds
   chunk results in submission order. Exact for max-style merges. *)
let par_reduce ~threshold ~work n ~init ~seg ~merge =
  match usable_pool ~threshold ~work with
  | None -> if n > 0 then seg 0 n else init
  | Some p ->
    let jobs = min (Pool.jobs p) n in
    if jobs <= 1 then (if n > 0 then seg 0 n else init)
    else begin
      let chunk = ((n + jobs) - 1) / jobs in
      let futs =
        List.init jobs (fun t ->
            let lo = t * chunk in
            let hi = min n (lo + chunk) in
            Pool.submit p (fun () -> if lo < hi then seg lo hi else init))
      in
      List.fold_left (fun acc fut -> merge acc (Pool.await fut)) init futs
    end

let clamp_i8 v = if v < -128 then -128 else if v > 127 then 127 else v

(* Loop scheme shared by both matmuls: p blocked by [kb] (outermost, so a
   [m x kb] panel of [a] stays in L2 and a [kb x jt] tile of [b] in L1),
   j register-tiled by [jt] — eight accumulators live in registers across
   the whole p block, giving eight independent FP add chains (the single
   acc of the naive loop is latency-bound on the dependent adds) and
   cutting the out-array traffic to one read-modify-write per block.

   Bitwise identity: for every (i, j) the additions into out.(i,j) happen
   for ascending p — within a block via its register, across blocks via
   the spill/reload — with the oracle's exact [av <> 0] skip (which is
   semantic for floats: skipping beats adding 0. * inf). That is the
   naive loop's exact FP op sequence, just scheduled better. *)
let kb = 256
let jt = 8

let matmul2d a aoff b boff ~m ~k ~n =
  let out = Array.make (m * n) 0. in
  let rows r0 r1 =
    let p0 = ref 0 in
    while !p0 < k do
      let phi = min k (!p0 + kb) in
      let jb = ref 0 in
      while !jb + jt <= n do
        let j0 = !jb in
        for i = r0 to r1 - 1 do
          let abase = aoff + (i * k) in
          let obase = (i * n) + j0 in
          let c0 = ref (Array.unsafe_get out obase)
          and c1 = ref (Array.unsafe_get out (obase + 1))
          and c2 = ref (Array.unsafe_get out (obase + 2))
          and c3 = ref (Array.unsafe_get out (obase + 3))
          and c4 = ref (Array.unsafe_get out (obase + 4))
          and c5 = ref (Array.unsafe_get out (obase + 5))
          and c6 = ref (Array.unsafe_get out (obase + 6))
          and c7 = ref (Array.unsafe_get out (obase + 7)) in
          for p = !p0 to phi - 1 do
            let av = Array.unsafe_get a (abase + p) in
            if av <> 0. then begin
              let bb = boff + (p * n) + j0 in
              c0 := !c0 +. (av *. Array.unsafe_get b bb);
              c1 := !c1 +. (av *. Array.unsafe_get b (bb + 1));
              c2 := !c2 +. (av *. Array.unsafe_get b (bb + 2));
              c3 := !c3 +. (av *. Array.unsafe_get b (bb + 3));
              c4 := !c4 +. (av *. Array.unsafe_get b (bb + 4));
              c5 := !c5 +. (av *. Array.unsafe_get b (bb + 5));
              c6 := !c6 +. (av *. Array.unsafe_get b (bb + 6));
              c7 := !c7 +. (av *. Array.unsafe_get b (bb + 7))
            end
          done;
          Array.unsafe_set out obase !c0;
          Array.unsafe_set out (obase + 1) !c1;
          Array.unsafe_set out (obase + 2) !c2;
          Array.unsafe_set out (obase + 3) !c3;
          Array.unsafe_set out (obase + 4) !c4;
          Array.unsafe_set out (obase + 5) !c5;
          Array.unsafe_set out (obase + 6) !c6;
          Array.unsafe_set out (obase + 7) !c7
        done;
        jb := j0 + jt
      done;
      (* remainder columns, one accumulator each *)
      for j = !jb to n - 1 do
        for i = r0 to r1 - 1 do
          let abase = aoff + (i * k) in
          let c = ref (Array.unsafe_get out ((i * n) + j)) in
          for p = !p0 to phi - 1 do
            let av = Array.unsafe_get a (abase + p) in
            if av <> 0. then
              c := !c +. (av *. Array.unsafe_get b (boff + (p * n) + j))
          done;
          Array.unsafe_set out ((i * n) + j) !c
        done
      done;
      p0 := phi
    done
  in
  par_chunks ~threshold:par_threshold_macs ~work:(m * k * n) m rows;
  out

let pack_i8 v len =
  let p = BA.Array1.create BA.int8_signed BA.c_layout len in
  for i = 0 to len - 1 do
    BA.Array1.unsafe_set p i (Array.unsafe_get v i)
  done;
  p

(* The int8 matmul runs in float64: every product is in [-2^14, 2^14] and
   the accumulator magnitude is bounded by 2^14 * k < 2^53 for any feasible
   k, so the float pipeline computes the integer dot products exactly —
   and float mul/add beats OCaml's tagged-int arithmetic by ~2x. Operands
   are converted once ([m*k + k*n] cvts, amortised over [m] rows); the
   zero-skip is dropped because all values are finite, so the adds it
   avoids contribute exactly 0. *)
let qmatmul2d_f a b ~m ~k ~n =
  let af = Array.make (m * k) 0. and bf = Array.make (k * n) 0. in
  for i = 0 to (m * k) - 1 do
    Array.unsafe_set af i (float_of_int (Array.unsafe_get a i))
  done;
  for i = 0 to (k * n) - 1 do
    Array.unsafe_set bf i (float_of_int (Array.unsafe_get b i))
  done;
  let out = Array.make (m * n) 0. in
  let rows r0 r1 =
    let p0 = ref 0 in
    while !p0 < k do
      let phi = min k (!p0 + kb) in
      let jb = ref 0 in
      while !jb + jt <= n do
        let j0 = !jb in
        for i = r0 to r1 - 1 do
          let abase = i * k in
          let obase = (i * n) + j0 in
          let c0 = ref (Array.unsafe_get out obase)
          and c1 = ref (Array.unsafe_get out (obase + 1))
          and c2 = ref (Array.unsafe_get out (obase + 2))
          and c3 = ref (Array.unsafe_get out (obase + 3))
          and c4 = ref (Array.unsafe_get out (obase + 4))
          and c5 = ref (Array.unsafe_get out (obase + 5))
          and c6 = ref (Array.unsafe_get out (obase + 6))
          and c7 = ref (Array.unsafe_get out (obase + 7)) in
          for p = !p0 to phi - 1 do
            let av = Array.unsafe_get af (abase + p) in
            let bb = (p * n) + j0 in
            c0 := !c0 +. (av *. Array.unsafe_get bf bb);
            c1 := !c1 +. (av *. Array.unsafe_get bf (bb + 1));
            c2 := !c2 +. (av *. Array.unsafe_get bf (bb + 2));
            c3 := !c3 +. (av *. Array.unsafe_get bf (bb + 3));
            c4 := !c4 +. (av *. Array.unsafe_get bf (bb + 4));
            c5 := !c5 +. (av *. Array.unsafe_get bf (bb + 5));
            c6 := !c6 +. (av *. Array.unsafe_get bf (bb + 6));
            c7 := !c7 +. (av *. Array.unsafe_get bf (bb + 7))
          done;
          Array.unsafe_set out obase !c0;
          Array.unsafe_set out (obase + 1) !c1;
          Array.unsafe_set out (obase + 2) !c2;
          Array.unsafe_set out (obase + 3) !c3;
          Array.unsafe_set out (obase + 4) !c4;
          Array.unsafe_set out (obase + 5) !c5;
          Array.unsafe_set out (obase + 6) !c6;
          Array.unsafe_set out (obase + 7) !c7
        done;
        jb := j0 + jt
      done;
      for j = !jb to n - 1 do
        for i = r0 to r1 - 1 do
          let abase = i * k in
          let c = ref (Array.unsafe_get out ((i * n) + j)) in
          for p = !p0 to phi - 1 do
            c :=
              !c
              +. (Array.unsafe_get af (abase + p)
                 *. Array.unsafe_get bf ((p * n) + j))
          done;
          Array.unsafe_set out ((i * n) + j) !c
        done
      done;
      p0 := phi
    done
  in
  par_chunks ~threshold:par_threshold_macs ~work:(m * k * n) m rows;
  Array.map int_of_float out

(* Few-row (decode-shaped) calls: the [k*n] operand conversion above would
   dominate, so stream [b] from a dense int8 Bigarray pack instead — 8x
   denser than the boxed int rows, and packing is one byte store per
   element. *)
let qmatmul2d_i8 a b ~m ~k ~n =
  let a8 = pack_i8 a (m * k) and b8 = pack_i8 b (k * n) in
  let out = Array.make (m * n) 0 in
  let rows r0 r1 =
    let p0 = ref 0 in
    while !p0 < k do
      let phi = min k (!p0 + kb) in
      let jb = ref 0 in
      while !jb + jt <= n do
        let j0 = !jb in
        for i = r0 to r1 - 1 do
          let abase = i * k in
          let obase = (i * n) + j0 in
          let c0 = ref (Array.unsafe_get out obase)
          and c1 = ref (Array.unsafe_get out (obase + 1))
          and c2 = ref (Array.unsafe_get out (obase + 2))
          and c3 = ref (Array.unsafe_get out (obase + 3))
          and c4 = ref (Array.unsafe_get out (obase + 4))
          and c5 = ref (Array.unsafe_get out (obase + 5))
          and c6 = ref (Array.unsafe_get out (obase + 6))
          and c7 = ref (Array.unsafe_get out (obase + 7)) in
          for p = !p0 to phi - 1 do
            let av = BA.Array1.unsafe_get a8 (abase + p) in
            if av <> 0 then begin
              let bb = (p * n) + j0 in
              c0 := !c0 + (av * BA.Array1.unsafe_get b8 bb);
              c1 := !c1 + (av * BA.Array1.unsafe_get b8 (bb + 1));
              c2 := !c2 + (av * BA.Array1.unsafe_get b8 (bb + 2));
              c3 := !c3 + (av * BA.Array1.unsafe_get b8 (bb + 3));
              c4 := !c4 + (av * BA.Array1.unsafe_get b8 (bb + 4));
              c5 := !c5 + (av * BA.Array1.unsafe_get b8 (bb + 5));
              c6 := !c6 + (av * BA.Array1.unsafe_get b8 (bb + 6));
              c7 := !c7 + (av * BA.Array1.unsafe_get b8 (bb + 7))
            end
          done;
          Array.unsafe_set out obase !c0;
          Array.unsafe_set out (obase + 1) !c1;
          Array.unsafe_set out (obase + 2) !c2;
          Array.unsafe_set out (obase + 3) !c3;
          Array.unsafe_set out (obase + 4) !c4;
          Array.unsafe_set out (obase + 5) !c5;
          Array.unsafe_set out (obase + 6) !c6;
          Array.unsafe_set out (obase + 7) !c7
        done;
        jb := j0 + jt
      done;
      for j = !jb to n - 1 do
        for i = r0 to r1 - 1 do
          let abase = i * k in
          let c = ref (Array.unsafe_get out ((i * n) + j)) in
          for p = !p0 to phi - 1 do
            let av = BA.Array1.unsafe_get a8 (abase + p) in
            if av <> 0 then c := !c + (av * BA.Array1.unsafe_get b8 ((p * n) + j))
          done;
          Array.unsafe_set out ((i * n) + j) !c
        done
      done;
      p0 := phi
    done
  in
  par_chunks ~threshold:par_threshold_macs ~work:(m * k * n) m rows;
  out

(* Both variants compute the same integers exactly; pick by whether the
   one-off operand conversion amortises over enough output rows. *)
let qmatmul2d a b ~m ~k ~n =
  if m >= 8 then qmatmul2d_f a b ~m ~k ~n else qmatmul2d_i8 a b ~m ~k ~n

let im2col src soff ~c ~h ~w ~kh ~kw ~stride ~pad ~oh ~ow ~dst ~dst_row0 =
  let cols = c * kh * kw in
  let khw = kh * kw in
  let row = ref dst_row0 in
  for oy = 0 to oh - 1 do
    let iy0 = (oy * stride) - pad in
    for ox = 0 to ow - 1 do
      let ix0 = (ox * stride) - pad in
      let base = !row * cols in
      for ci = 0 to c - 1 do
        let cbase = soff + (ci * h * w) in
        let dcbase = base + (ci * khw) in
        for ky = 0 to kh - 1 do
          let iy = iy0 + ky in
          let dbase = dcbase + (ky * kw) in
          if iy < 0 || iy >= h then Array.fill dst dbase kw 0.
          else begin
            let sbase = cbase + (iy * w) in
            if ix0 >= 0 && ix0 + kw <= w then
              Array.blit src (sbase + ix0) dst dbase kw
            else
              for kx = 0 to kw - 1 do
                let ix = ix0 + kx in
                Array.unsafe_set dst (dbase + kx)
                  (if ix < 0 || ix >= w then 0.
                   else Array.unsafe_get src (sbase + ix))
              done
          end
        done
      done;
      incr row
    done
  done

(* A NaN wins and stays, and a later NaN replaces it: the result of the
   oracle's [Float.max] fold, payload included. *)
let max_abs v =
  let len = Array.length v in
  let seg lo hi =
    let m = ref 0. in
    for i = lo to hi - 1 do
      let x = Float.abs (Array.unsafe_get v i) in
      if x > !m || Float.is_nan x then m := x
    done;
    !m
  in
  par_reduce ~threshold:par_threshold_elems ~work:len len ~init:0. ~seg
    ~merge:Float.max

let quantize_values v ~scale =
  let len = Array.length v in
  let out = Array.make len 0 in
  par_chunks ~threshold:par_threshold_elems ~work:len len (fun lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set out i
          (clamp_i8
             (int_of_float (Float.round (Array.unsafe_get v i /. scale))))
      done);
  out

let max_abs_int v =
  let len = Array.length v in
  let seg lo hi =
    let m = ref 0 in
    for i = lo to hi - 1 do
      let x = abs (Array.unsafe_get v i) in
      if x > !m then m := x
    done;
    !m
  in
  par_reduce ~threshold:par_threshold_elems ~work:len len ~init:0 ~seg
    ~merge:max

let requantize_values acc ~in_scale ~scale =
  let len = Array.length acc in
  let out = Array.make len 0 in
  par_chunks ~threshold:par_threshold_elems ~work:len len (fun lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set out i
          (clamp_i8
             (int_of_float
                (Float.round
                   (float_of_int (Array.unsafe_get acc i) *. in_scale /. scale))))
      done);
  out
