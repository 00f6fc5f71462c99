(* The 2-d float kernel, oracle form: safe accesses, naive loop order. The
   fast backend (Kernels.matmul2d) must match it bitwise — see kernels.mli
   for why the blocked loops preserve this exact accumulation order. *)
let matmul2d_boxed da aoff db boff ~m ~k ~n =
  let out = Array.make (m * n) 0. in
  for i = 0 to m - 1 do
    for p = 0 to k - 1 do
      let av = da.(aoff + (i * k) + p) in
      if av <> 0. then
        for j = 0 to n - 1 do
          out.((i * n) + j) <- out.((i * n) + j) +. (av *. db.(boff + (p * n) + j))
        done
    done
  done;
  out

let matmul2d da aoff db boff ~m ~k ~n =
  match Kernels.backend () with
  | Kernels.Boxed -> matmul2d_boxed da aoff db boff ~m ~k ~n
  | Kernels.Bigarray -> Kernels.matmul2d da aoff db boff ~m ~k ~n

let matmul a b =
  let da = Tensor.data a and db = Tensor.data b in
  match (Tensor.shape a, Tensor.shape b) with
  | [ m; k ], [ k'; n ] when k = k' ->
    Tensor.create (Shape.of_list [ m; n ]) (matmul2d da 0 db 0 ~m ~k ~n)
  | [ bdim; m; k ], [ k'; n ] when k = k' ->
    (* batch slices are indexed with offsets, not copied per iteration *)
    let out = Tensor.zeros (Shape.of_list [ bdim; m; n ]) in
    for bi = 0 to bdim - 1 do
      let r = matmul2d da (bi * m * k) db 0 ~m ~k ~n in
      Array.blit r 0 (Tensor.data out) (bi * m * n) (m * n)
    done;
    out
  | [ bdim; m; k ], [ bdim'; k'; n ] when k = k' && bdim = bdim' ->
    let out = Tensor.zeros (Shape.of_list [ bdim; m; n ]) in
    for bi = 0 to bdim - 1 do
      let r = matmul2d da (bi * m * k) db (bi * k * n) ~m ~k ~n in
      Array.blit r 0 (Tensor.data out) (bi * m * n) (m * n)
    done;
    out
  | sa, sb ->
    invalid_arg
      (Printf.sprintf "Ops.matmul: incompatible shapes %s x %s"
         (Shape.to_string sa) (Shape.to_string sb))

(* Visit every element of a row-major output of [dims] in ascending offset
   order as [f o ia ib]: [ia] and [ib] are offsets into two sources that
   step by [sa.(ax)] and [sb.(ax)] along output axis [ax] (0 repeats a
   broadcast axis). Broadcast and permute share it. *)
let walk dims sa sb f =
  let r = Array.length dims and o = ref 0 in
  let rec go ax ia ib =
    if ax = r then begin
      f !o ia ib;
      incr o
    end
    else
      for i = 0 to dims.(ax) - 1 do
        go (ax + 1) (ia + (i * sa.(ax))) (ib + (i * sb.(ax)))
      done
  in
  go 0 0 0

let broadcast_op name f a b =
  let sa = Tensor.shape a and sb = Tensor.shape b in
  if Shape.equal sa sb then Tensor.map2 f a b
  else
    match Shape.broadcast sa sb with
    | None ->
      invalid_arg
        (Printf.sprintf "Ops.%s: shapes %s and %s do not broadcast" name
           (Shape.to_string sa) (Shape.to_string sb))
    | Some shape ->
      let r = Shape.rank shape in
      (* per-output-axis source strides: rank-padded axes and size-1 axes
         stay put *)
      let strides s =
        let pad = r - Shape.rank s and st = Shape.strides s in
        Array.init r (fun ax ->
            if ax < pad || List.nth s (ax - pad) = 1 then 0 else st.(ax - pad))
      in
      let da = Tensor.data a and db = Tensor.data b in
      let out = Array.create_float (Shape.numel shape) in
      walk (Array.of_list shape) (strides sa) (strides sb) (fun o ia ib ->
          out.(o) <- f da.(ia) db.(ib));
      Tensor.create shape out

let add a b = broadcast_op "add" ( +. ) a b
let mul a b = broadcast_op "mul" ( *. ) a b
let relu = Tensor.map (fun x -> Float.max 0. x)

let gelu =
  let c = sqrt (2. /. Float.pi) in
  Tensor.map (fun x -> 0.5 *. x *. (1. +. tanh (c *. (x +. (0.044715 *. x *. x *. x)))))

let silu = Tensor.map (fun x -> x /. (1. +. exp (-.x)))

(* Apply [f row] to each contiguous slice along the last axis. *)
let along_last_axis t f =
  let shape = Tensor.shape t in
  let d = Shape.dim shape (-1) in
  let rows = Shape.numel shape / d in
  let out = Tensor.zeros shape in
  let src = Tensor.data t and dst = Tensor.data out in
  let row = Array.make d 0. in
  for r = 0 to rows - 1 do
    Array.blit src (r * d) row 0 d;
    let res = f row in
    Array.blit res 0 dst (r * d) d
  done;
  out

let softmax t =
  along_last_axis t (fun row ->
      let m = Array.fold_left Float.max neg_infinity row in
      let exps = Array.map (fun x -> exp (x -. m)) row in
      let s = Array.fold_left ( +. ) 0. exps in
      Array.map (fun e -> e /. s) exps)

let layernorm ?(eps = 1e-5) t ~gamma ~beta =
  let d = Shape.dim (Tensor.shape t) (-1) in
  if Tensor.numel gamma <> d || Tensor.numel beta <> d then
    invalid_arg "Ops.layernorm: gamma/beta length mismatch";
  let g = Tensor.data gamma and b = Tensor.data beta in
  along_last_axis t (fun row ->
      let mu = Array.fold_left ( +. ) 0. row /. float_of_int d in
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.)) 0. row
        /. float_of_int d
      in
      let denom = sqrt (var +. eps) in
      Array.mapi (fun i x -> ((x -. mu) /. denom *. g.(i)) +. b.(i)) row)

let rmsnorm ?(eps = 1e-5) t ~gamma =
  let d = Shape.dim (Tensor.shape t) (-1) in
  if Tensor.numel gamma <> d then invalid_arg "Ops.rmsnorm: gamma length mismatch";
  let g = Tensor.data gamma in
  along_last_axis t (fun row ->
      let ms = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. row /. float_of_int d in
      let denom = sqrt (ms +. eps) in
      Array.mapi (fun i x -> x /. denom *. g.(i)) row)

let permute t perm =
  let shape = Tensor.shape t in
  let r = Shape.rank shape in
  if List.sort compare perm <> List.init r Fun.id then
    invalid_arg "Ops.permute: not a permutation of axes";
  let out_shape = Shape.of_list (List.map (fun i -> Shape.dim shape i) perm) in
  let st = Shape.strides shape in
  let src_st = Array.of_list (List.map (fun i -> st.(i)) perm) in
  let src = Tensor.data t in
  let out = Array.create_float (Shape.numel out_shape) in
  walk (Array.of_list out_shape) src_st src_st (fun o i _ -> out.(o) <- src.(i));
  Tensor.create out_shape out

let transpose2d t =
  match Tensor.shape t with
  | [ _; _ ] -> permute t [ 1; 0 ]
  | s -> invalid_arg ("Ops.transpose2d: expected rank 2, got " ^ Shape.to_string s)

let out_dim h k stride pad = ((h + (2 * pad) - k) / stride) + 1

let im2col_boxed src ~n ~c ~h ~w ~kh ~kw ~stride ~pad ~oh ~ow ~dst =
  let cols = c * kh * kw in
  let row = ref 0 in
  for ni = 0 to n - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let base = !row * cols in
        for ci = 0 to c - 1 do
          for ky = 0 to kh - 1 do
            for kx = 0 to kw - 1 do
              let iy = (oy * stride) + ky - pad and ix = (ox * stride) + kx - pad in
              let v =
                if iy < 0 || iy >= h || ix < 0 || ix >= w then 0.
                else src.((((ni * c) + ci) * h * w) + (iy * w) + ix)
              in
              dst.(base + (ci * kh * kw) + (ky * kw) + kx) <- v
            done
          done
        done;
        incr row
      done
    done
  done

let im2col t ~kh ~kw ~stride ~pad =
  match Tensor.shape t with
  | [ n; c; h; w ] ->
    let oh = out_dim h kh stride pad and ow = out_dim w kw stride pad in
    let cols = c * kh * kw in
    let out = Tensor.zeros (Shape.of_list [ n * oh * ow; cols ]) in
    let src = Tensor.data t and dst = Tensor.data out in
    (match Kernels.backend () with
    | Kernels.Boxed -> im2col_boxed src ~n ~c ~h ~w ~kh ~kw ~stride ~pad ~oh ~ow ~dst
    | Kernels.Bigarray ->
      for ni = 0 to n - 1 do
        Kernels.im2col src (ni * c * h * w) ~c ~h ~w ~kh ~kw ~stride ~pad ~oh ~ow
          ~dst ~dst_row0:(ni * oh * ow)
      done);
    out
  | s -> invalid_arg ("Ops.im2col: expected NCHW, got " ^ Shape.to_string s)

(* The group slicing / weight gather / scatter around the matmul is pure
   data movement, so both backends share these blit-based loops. *)
let conv2d_with ~matmul:mm t ~weight ?bias ~stride ~pad ?(groups = 1) () =
  match (Tensor.shape t, Tensor.shape weight) with
  | [ n; c; h; w ], [ oc; cg; kh; kw ] when c = cg * groups && oc mod groups = 0 ->
    let oh = out_dim h kh stride pad and ow = out_dim w kw stride pad in
    let ocg = oc / groups in
    let khw = kh * kw in
    let chw = c * h * w
    and ghw = cg * h * w in
    let out = Tensor.zeros (Shape.of_list [ n; oc; oh; ow ]) in
    let dst = Tensor.data out and src = Tensor.data t in
    let wd = Tensor.data weight in
    for g = 0 to groups - 1 do
      (* slice the input channels of this group: one blit per image *)
      let sub = Tensor.zeros (Shape.of_list [ n; cg; h; w ]) in
      let sd = Tensor.data sub in
      for ni = 0 to n - 1 do
        Array.blit src ((ni * chw) + (g * ghw)) sd (ni * ghw) ghw
      done;
      let patches = im2col sub ~kh ~kw ~stride ~pad in
      (* weight rows for this group: [ocg; cg*kh*kw] transposed to [cg*kh*kw; ocg] *)
      let wmat = Tensor.zeros (Shape.of_list [ cg * khw; ocg ]) in
      let wm = Tensor.data wmat in
      for oi = 0 to ocg - 1 do
        let wbase = ((g * ocg) + oi) * cg * khw in
        for ki = 0 to (cg * khw) - 1 do
          wm.((ki * ocg) + oi) <- wd.(wbase + ki)
        done
      done;
      let res = mm patches wmat in
      (* res is [n*oh*ow; ocg]; scatter back to NCHW *)
      let rd = Tensor.data res in
      for ni = 0 to n - 1 do
        for oi = 0 to ocg - 1 do
          let obase = ((ni * oc) + (g * ocg) + oi) * oh * ow in
          for oy = 0 to oh - 1 do
            let rbase = (((ni * oh) + oy) * ow * ocg) + oi in
            for ox = 0 to ow - 1 do
              dst.(obase + (oy * ow) + ox) <- rd.(rbase + (ox * ocg))
            done
          done
        done
      done
    done;
    (match bias with
    | None -> ()
    | Some b ->
      if Tensor.numel b <> oc then invalid_arg "Ops.conv2d: bias length mismatch";
      let bd = Tensor.data b in
      for ni = 0 to n - 1 do
        for ci = 0 to oc - 1 do
          let base = ((ni * oc) + ci) * oh * ow in
          let bv = bd.(ci) in
          for i = 0 to (oh * ow) - 1 do
            dst.(base + i) <- dst.(base + i) +. bv
          done
        done
      done);
    out
  | si, sw ->
    invalid_arg
      (Printf.sprintf "Ops.conv2d: incompatible shapes %s (w %s, groups %d)"
         (Shape.to_string si) (Shape.to_string sw) groups)

let conv2d t ~weight ?bias ~stride ~pad ?groups () =
  conv2d_with ~matmul t ~weight ?bias ~stride ~pad ?groups ()

let clip t ~lo ~hi =
  if hi < lo then invalid_arg "Ops.clip: hi < lo";
  Tensor.map (fun x -> Float.min hi (Float.max lo x)) t

(* Fold the in-bounds taps of every k x k window of an NCHW tensor, ky
   outer and kx inner, with [tap], starting from [init]. *)
let pool2d name t ~k ~stride ~pad ~init ~tap ~finish =
  match Tensor.shape t with
  | [ n; c; h; w ] ->
    let oh = out_dim h k stride pad and ow = out_dim w k stride pad in
    let shape = Shape.of_list [ n; c; oh; ow ] in
    let src = Tensor.data t in
    let out = Array.create_float (Shape.numel shape) in
    for plane = 0 to (n * c) - 1 do
      let sbase = plane * h * w and obase = plane * oh * ow in
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let acc = ref init in
          for ky = 0 to k - 1 do
            let iy = (oy * stride) + ky - pad in
            if iy >= 0 && iy < h then
              for kx = 0 to k - 1 do
                let ix = (ox * stride) + kx - pad in
                if ix >= 0 && ix < w then acc := tap !acc src.(sbase + (iy * w) + ix)
              done
          done;
          out.(obase + (oy * ow) + ox) <- finish !acc
        done
      done
    done;
    Tensor.create shape out
  | s -> invalid_arg (Printf.sprintf "Ops.%s: expected NCHW, got %s" name (Shape.to_string s))

let maxpool2d t ~k ~stride ?(pad = 0) () =
  pool2d "maxpool2d" t ~k ~stride ~pad ~init:neg_infinity ~tap:Float.max ~finish:Fun.id

let avgpool2d t ~k ~stride ?(pad = 0) () =
  let taps = float_of_int (k * k) in
  pool2d "avgpool2d" t ~k ~stride ~pad ~init:0. ~tap:( +. ) ~finish:(fun s -> s /. taps)

let avgpool_global t =
  match Tensor.shape t with
  | [ n; c; h; w ] ->
    let hw = h * w and src = Tensor.data t in
    Tensor.create (Shape.of_list [ n; c ])
      (Array.init (n * c) (fun plane ->
           let s = ref 0. in
           for i = plane * hw to ((plane + 1) * hw) - 1 do
             s := !s +. src.(i)
           done;
           !s /. float_of_int hw))
  | s -> invalid_arg ("Ops.avgpool_global: expected NCHW, got " ^ Shape.to_string s)

(* One blit per outer row from each operand: a row is the operand's
   extent along [axis] times everything after it. *)
let concat a b ~axis =
  match Shape.concat_dim (Tensor.shape a) (Tensor.shape b) ~axis with
  | None -> invalid_arg "Ops.concat: incompatible shapes"
  | Some shape ->
    let row t = Shape.numel (List.filteri (fun i _ -> i >= axis) (Tensor.shape t)) in
    let ra = row a and rb = row b in
    let out = Array.create_float (Shape.numel shape) in
    for o = 0 to (Shape.numel shape / (ra + rb)) - 1 do
      Array.blit (Tensor.data a) (o * ra) out (o * (ra + rb)) ra;
      Array.blit (Tensor.data b) (o * rb) out ((o * (ra + rb)) + ra) rb
    done;
    Tensor.create shape out
