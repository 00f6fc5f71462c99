type t = { shape : Shape.t; data : float array }

let create shape data =
  if Array.length data <> Shape.numel shape then
    invalid_arg "Tensor.create: data length does not match shape";
  { shape; data }

let zeros shape = { shape; data = Array.make (Shape.numel shape) 0. }
let full shape v = { shape; data = Array.make (Shape.numel shape) v }

let init shape f =
  let n = Shape.numel shape in
  { shape; data = Array.init n (fun off -> f (Shape.unravel shape off)) }

let scalar v = { shape = Shape.scalar; data = [| v |] }

let shape t = t.shape
let numel t = Array.length t.data
let data t = t.data

let get t idx = t.data.(Shape.ravel t.shape idx)
let set t idx v = t.data.(Shape.ravel t.shape idx) <- v
let get_flat t i = t.data.(i)
let set_flat t i v = t.data.(i) <- v

let reshape t shape =
  if Shape.numel shape <> Array.length t.data then
    invalid_arg "Tensor.reshape: element count mismatch";
  { shape; data = t.data }

let copy t = { t with data = Array.copy t.data }
let map f t = { t with data = Array.map f t.data }

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Tensor.map2: shape mismatch";
  { a with data = Array.map2 f a.data b.data }

let fold f acc t = Array.fold_left f acc t.data

let max_abs_diff a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg "Tensor.max_abs_diff: shape mismatch";
  let m = ref 0. in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.data.(i)))) a.data;
  !m

let equal ?(eps = 1e-9) a b =
  Shape.equal a.shape b.shape && max_abs_diff a b <= eps

(* Array.init fills offsets in ascending order, so the draws land in
   row-major order. *)
let rand rng shape ~lo ~hi =
  let n = Shape.numel shape in
  { shape; data = Array.init n (fun _ -> lo +. Cim_util.Rng.float rng (hi -. lo)) }

let randn rng shape ~mu ~sigma =
  let n = Shape.numel shape in
  { shape; data = Array.init n (fun _ -> Cim_util.Rng.gaussian rng ~mu ~sigma) }
