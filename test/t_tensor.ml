(* Tests for the tensor substrate: reference operators against
   hand-computed values and independent naive implementations, numerical
   invariants as properties, and the int8 quantisation error bound. *)

module Shape = Cim_tensor.Shape
module Tensor = Cim_tensor.Tensor
module Ops = Cim_tensor.Ops
module Quant = Cim_tensor.Quant
module Rng = Cim_util.Rng

let t_of shape data = Tensor.create (Shape.of_list shape) data

let check_tensor ?(eps = 1e-6) name expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s (max diff %g)" name (Tensor.max_abs_diff expected got))
    true
    (Tensor.equal ~eps expected got)

(* --- creation / access --- *)

let test_create () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Tensor.create: data length does not match shape")
    (fun () -> ignore (t_of [ 2; 2 ] [| 1.; 2.; 3. |]));
  let t = Tensor.zeros (Shape.of_list [ 2; 3 ]) in
  Alcotest.(check int) "numel" 6 (Tensor.numel t);
  Tensor.set t [ 1; 2 ] 9.;
  Alcotest.(check (float 0.)) "set/get" 9. (Tensor.get t [ 1; 2 ]);
  Alcotest.(check (float 0.)) "get_flat" 9. (Tensor.get_flat t 5)

let test_reshape_shares () =
  let t = t_of [ 2; 2 ] [| 1.; 2.; 3.; 4. |] in
  let r = Tensor.reshape t (Shape.of_list [ 4 ]) in
  Tensor.set_flat r 0 7.;
  Alcotest.(check (float 0.)) "shared storage" 7. (Tensor.get t [ 0; 0 ]);
  let c = Tensor.copy t in
  Tensor.set_flat c 0 1.;
  Alcotest.(check (float 0.)) "copy is independent" 7. (Tensor.get t [ 0; 0 ])

(* --- matmul --- *)

let test_matmul_2d () =
  let a = t_of [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = t_of [ 3; 2 ] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  check_tensor "2d matmul" (t_of [ 2; 2 ] [| 58.; 64.; 139.; 154. |]) (Ops.matmul a b)

let test_matmul_batched () =
  let a = t_of [ 2; 1; 2 ] [| 1.; 2.; 3.; 4. |] in
  let b = t_of [ 2; 2 ] [| 1.; 0.; 0.; 1. |] in
  check_tensor "batched x shared" a (Ops.matmul a b);
  let b2 = t_of [ 2; 2; 2 ] [| 1.; 0.; 0.; 1.; 2.; 0.; 0.; 2. |] in
  check_tensor "fully batched"
    (t_of [ 2; 1; 2 ] [| 1.; 2.; 6.; 8. |])
    (Ops.matmul a b2)

let test_matmul_bad_shapes () =
  Alcotest.check_raises "incompatible"
    (Invalid_argument "Ops.matmul: incompatible shapes 2x3 x 2x2") (fun () ->
      ignore (Ops.matmul (Tensor.zeros (Shape.of_list [ 2; 3 ]))
                (Tensor.zeros (Shape.of_list [ 2; 2 ]))))

(* --- element-wise / broadcasting --- *)

let test_add_broadcast () =
  let a = t_of [ 2; 2 ] [| 1.; 2.; 3.; 4. |] in
  let bias = t_of [ 2 ] [| 10.; 20. |] in
  check_tensor "row broadcast" (t_of [ 2; 2 ] [| 11.; 22.; 13.; 24. |]) (Ops.add a bias);
  check_tensor "mul scalar-ish"
    (t_of [ 2; 2 ] [| 10.; 40.; 30.; 80. |])
    (Ops.mul a (t_of [ 2 ] [| 10.; 20. |]))

let test_activations () =
  let x = t_of [ 4 ] [| -1.; 0.; 1.; 2. |] in
  check_tensor "relu" (t_of [ 4 ] [| 0.; 0.; 1.; 2. |]) (Ops.relu x);
  (* gelu(0) = 0, gelu(large) ~ identity, silu(0) = 0 *)
  let g = Ops.gelu x in
  Alcotest.(check (float 1e-9)) "gelu 0" 0. (Tensor.get g [ 1 ]);
  Alcotest.(check bool) "gelu 2 near 2" true (Float.abs (Tensor.get g [ 3 ] -. 1.954) < 0.01);
  Alcotest.(check (float 1e-9)) "silu 0" 0. (Tensor.get (Ops.silu x) [ 1 ])

(* --- softmax / norms --- *)

let rng = Rng.create 11

let prop_softmax_normalised =
  QCheck.Test.make ~name:"softmax rows sum to 1 and are positive" ~count:100
    QCheck.(pair (int_range 1 5) (int_range 1 8))
    (fun (rows, cols) ->
      let t = Tensor.rand rng (Shape.of_list [ rows; cols ]) ~lo:(-5.) ~hi:5. in
      let s = Ops.softmax t in
      let ok = ref true in
      for r = 0 to rows - 1 do
        let sum = ref 0. in
        for c = 0 to cols - 1 do
          let v = Tensor.get s [ r; c ] in
          if v < 0. then ok := false;
          sum := !sum +. v
        done;
        if Float.abs (!sum -. 1.) > 1e-9 then ok := false
      done;
      !ok)

let test_softmax_stability () =
  (* very large logits must not overflow *)
  let t = t_of [ 1; 2 ] [| 1e30; 1e30 |] in
  check_tensor "softmax huge" (t_of [ 1; 2 ] [| 0.5; 0.5 |]) (Ops.softmax t)

let test_layernorm () =
  let x = t_of [ 1; 4 ] [| 1.; 2.; 3.; 4. |] in
  let gamma = t_of [ 4 ] [| 1.; 1.; 1.; 1. |] in
  let beta = Tensor.zeros (Shape.of_list [ 4 ]) in
  let y = Ops.layernorm x ~gamma ~beta in
  let mean = Tensor.fold ( +. ) 0. y /. 4. in
  Alcotest.(check (float 1e-6)) "normalised mean" 0. mean;
  let var = Tensor.fold (fun acc v -> acc +. (v *. v)) 0. y /. 4. in
  Alcotest.(check bool) "unit variance" true (Float.abs (var -. 1.) < 1e-3)

let test_rmsnorm () =
  let x = t_of [ 1; 2 ] [| 3.; 4. |] in
  let gamma = t_of [ 2 ] [| 1.; 1. |] in
  let y = Ops.rmsnorm x ~gamma in
  (* rms = sqrt((9+16)/2) = 3.5355 *)
  Alcotest.(check (float 1e-3)) "rmsnorm" (3. /. 3.5355) (Tensor.get y [ 0; 0 ])

(* --- transpose / permute --- *)

let test_transpose () =
  let a = t_of [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  check_tensor "transpose2d" (t_of [ 3; 2 ] [| 1.; 4.; 2.; 5.; 3.; 6. |])
    (Ops.transpose2d a);
  check_tensor "permute = transpose" (Ops.transpose2d a) (Ops.permute a [ 1; 0 ]);
  let t = Tensor.rand rng (Shape.of_list [ 2; 3; 4 ]) ~lo:0. ~hi:1. in
  check_tensor "double permute is id" t (Ops.permute (Ops.permute t [ 2; 0; 1 ]) [ 1; 2; 0 ])

(* --- convolution: reference (im2col) vs naive direct loop --- *)

let naive_conv x w ~stride ~pad ~groups =
  match (Tensor.shape x, Tensor.shape w) with
  | [ n; _c; h; wd ], [ oc; cg; kh; kw ] ->
    let oh = ((h + (2 * pad) - kh) / stride) + 1 in
    let ow = ((wd + (2 * pad) - kw) / stride) + 1 in
    let ocg = oc / groups in
    Tensor.init (Shape.of_list [ n; oc; oh; ow ]) (fun idx ->
        match idx with
        | [ ni; oi; oy; ox ] ->
          let g = oi / ocg in
          let acc = ref 0. in
          for ci = 0 to cg - 1 do
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let iy = (oy * stride) + ky - pad and ix = (ox * stride) + kx - pad in
                if iy >= 0 && iy < h && ix >= 0 && ix < wd then
                  acc :=
                    !acc
                    +. Tensor.get x [ ni; (g * cg) + ci; iy; ix ]
                       *. Tensor.get w [ oi; ci; ky; kx ]
              done
            done
          done;
          !acc
        | _ -> assert false)
  | _ -> assert false

let prop_conv_matches_naive =
  QCheck.Test.make ~name:"im2col conv = naive direct conv" ~count:40
    QCheck.(quad (int_range 1 2) (int_range 1 2) (int_range 1 2) (int_range 0 1))
    (fun (n, groups, stride, pad) ->
      let cg = 2 and ocg = 2 and h = 5 and k = 3 in
      let c = cg * groups and oc = ocg * groups in
      let x = Tensor.rand rng (Shape.of_list [ n; c; h; h ]) ~lo:(-1.) ~hi:1. in
      let w = Tensor.rand rng (Shape.of_list [ oc; cg; k; k ]) ~lo:(-1.) ~hi:1. in
      let got = Ops.conv2d x ~weight:w ~stride ~pad ~groups () in
      let expect = naive_conv x w ~stride ~pad ~groups in
      Tensor.equal ~eps:1e-6 got expect)

let test_conv_bias () =
  let x = Tensor.full (Shape.of_list [ 1; 1; 2; 2 ]) 1. in
  let w = Tensor.full (Shape.of_list [ 1; 1; 1; 1 ]) 2. in
  let bias = t_of [ 1 ] [| 0.5 |] in
  check_tensor "conv bias"
    (Tensor.full (Shape.of_list [ 1; 1; 2; 2 ]) 2.5)
    (Ops.conv2d x ~weight:w ~bias ~stride:1 ~pad:0 ())

let test_im2col_shape () =
  let x = Tensor.zeros (Shape.of_list [ 2; 3; 8; 8 ]) in
  let p = Ops.im2col x ~kh:3 ~kw:3 ~stride:2 ~pad:1 in
  Alcotest.(check (list int)) "patch matrix" [ 2 * 4 * 4; 3 * 9 ] (Tensor.shape p)

(* --- pooling --- *)

let test_maxpool () =
  let x = t_of [ 1; 1; 2; 2 ] [| 1.; 2.; 3.; 4. |] in
  check_tensor "maxpool" (t_of [ 1; 1; 1; 1 ] [| 4. |]) (Ops.maxpool2d x ~k:2 ~stride:2 ());
  check_tensor "avgpool" (t_of [ 1; 1; 1; 1 ] [| 2.5 |]) (Ops.avgpool2d x ~k:2 ~stride:2 ());
  let g = Ops.avgpool_global (t_of [ 1; 2; 1; 2 ] [| 1.; 3.; 10.; 20. |]) in
  check_tensor "global avg" (t_of [ 1; 2 ] [| 2.; 15. |]) g

let test_clip () =
  let x = t_of [ 4 ] [| -3.; 0.5; 6.; 9. |] in
  check_tensor "relu6" (t_of [ 4 ] [| 0.; 0.5; 6.; 6. |]) (Ops.clip x ~lo:0. ~hi:6.);
  Alcotest.check_raises "clip bounds" (Invalid_argument "Ops.clip: hi < lo")
    (fun () -> ignore (Ops.clip x ~lo:1. ~hi:0.))

(* --- per-element oracles ---
   Each oracle builds every output element from its multi-index, the
   plainest statement of the op. Ops and Exec compute with flat loops over
   offsets, but every output element must still be the same float
   operation on the same operands, so the properties demand equal bits. *)

let bits_equal a b =
  Shape.equal (Tensor.shape a) (Tensor.shape b)
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       (Tensor.data a) (Tensor.data b)

let oracle_broadcast f a b =
  let shape = Option.get (Shape.broadcast (Tensor.shape a) (Tensor.shape b)) in
  let rank = Shape.rank shape in
  let pad s = List.init (rank - Shape.rank s) (fun _ -> 1) @ s in
  let sa = pad (Tensor.shape a) and sb = pad (Tensor.shape b) in
  let a = Tensor.reshape a (Shape.of_list sa) and b = Tensor.reshape b (Shape.of_list sb) in
  Tensor.init shape (fun idx ->
      let clip s = List.map2 (fun i d -> if d = 1 then 0 else i) idx s in
      f (Tensor.get a (clip sa)) (Tensor.get b (clip sb)))

let oracle_permute t perm =
  let shape = Tensor.shape t in
  let src = Array.make (Shape.rank shape) 0 in
  Tensor.init (List.map (fun i -> Shape.dim shape i) perm) (fun idx ->
      List.iteri (fun out_axis in_axis -> src.(in_axis) <- List.nth idx out_axis) perm;
      Tensor.get t (Array.to_list src))

let oracle_concat a b ~axis =
  let shape = Option.get (Shape.concat_dim (Tensor.shape a) (Tensor.shape b) ~axis) in
  let da = Shape.dim (Tensor.shape a) axis in
  Tensor.init shape (fun idx ->
      if List.nth idx axis < da then Tensor.get a idx
      else Tensor.get b (List.mapi (fun ax j -> if ax = axis then j - da else j) idx))

let oracle_pool ~max t ~k ~stride ~pad =
  match Tensor.shape t with
  | [ n; c; h; w ] ->
    let o d = ((d + (2 * pad) - k) / stride) + 1 in
    Tensor.init [ n; c; o h; o w ] (function
      | [ ni; ci; oy; ox ] ->
        let acc = ref (if max then neg_infinity else 0.) in
        for ky = 0 to k - 1 do
          for kx = 0 to k - 1 do
            let iy = (oy * stride) + ky - pad and ix = (ox * stride) + kx - pad in
            if iy >= 0 && iy < h && ix >= 0 && ix < w then begin
              let v = Tensor.get t [ ni; ci; iy; ix ] in
              acc := if max then Float.max !acc v else !acc +. v
            end
          done
        done;
        if max then !acc else !acc /. float_of_int (k * k)
      | _ -> assert false)
  | _ -> assert false

let oracle_global t =
  match Tensor.shape t with
  | [ n; c; h; w ] ->
    Tensor.init [ n; c ] (function
      | [ ni; ci ] ->
        let s = ref 0. in
        for yi = 0 to h - 1 do
          for xi = 0 to w - 1 do
            s := !s +. Tensor.get t [ ni; ci; yi; xi ]
          done
        done;
        !s /. float_of_int (h * w)
      | _ -> assert false)
  | _ -> assert false

let oracle_embedding ids w =
  let d = Shape.dim (Tensor.shape w) 1 in
  Tensor.init (Tensor.shape ids @ [ d ]) (fun idx ->
      let rev = List.rev idx in
      let row = int_of_float (Tensor.get ids (List.rev (List.tl rev))) in
      Tensor.get w [ row; List.hd rev ])

(* Values include the IEEE specials, so a reordered or re-associated
   operation would show up as different bits. *)
let gen_tensor shape =
  let open QCheck.Gen in
  let one =
    frequency
      [ (8, float_range (-4.) 4.);
        (1, oneofl [ nan; infinity; neg_infinity; -0.; 0.; 1e300; -1e-300 ]) ]
  in
  map (fun l -> Tensor.create shape (Array.of_list l)) (list_repeat (Shape.numel shape) one)

let gen_dims ~lo ~hi =
  QCheck.Gen.(list_size (int_range lo hi) (int_range 1 4))

let print_shapes shapes = String.concat " , " (List.map Shape.to_string shapes)

(* A broadcastable pair: each side keeps a suffix of the output's axes
   (rank padding, down to a scalar) and turns any kept axis into 1. *)
let gen_broadcast_pair =
  let open QCheck.Gen in
  let* out = gen_dims ~lo:0 ~hi:4 in
  let side =
    let* rank = int_range 0 (List.length out) in
    let kept = List.filteri (fun i _ -> i >= List.length out - rank) out in
    flatten_l (List.map (fun d -> oneofl [ d; d; 1 ]) kept)
  in
  let* sa = side in
  let* sb = side in
  let* a = gen_tensor sa in
  let* b = gen_tensor sb in
  return (a, b)

let prop_broadcast_oracle =
  QCheck.Test.make ~name:"broadcast add/mul = per-element oracle, bitwise" ~count:300
    (QCheck.make gen_broadcast_pair
       ~print:(fun (a, b) -> print_shapes [ Tensor.shape a; Tensor.shape b ]))
    (fun (a, b) ->
      bits_equal (oracle_broadcast ( +. ) a b) (Ops.add a b)
      && bits_equal (oracle_broadcast ( +. ) b a) (Ops.add b a)
      && bits_equal (oracle_broadcast ( *. ) a b) (Ops.mul a b))

let prop_permute_oracle =
  QCheck.Test.make ~name:"permute = per-element oracle, bitwise" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* dims = gen_dims ~lo:1 ~hi:4 in
         let* perm = shuffle_l (List.init (List.length dims) Fun.id) in
         let* t = gen_tensor dims in
         return (t, perm))
       ~print:(fun (t, perm) ->
         Printf.sprintf "%s perm [%s]" (Shape.to_string (Tensor.shape t))
           (String.concat ";" (List.map string_of_int perm))))
    (fun (t, perm) -> bits_equal (oracle_permute t perm) (Ops.permute t perm))

(* one base shape; a and b differ from it along each axis in turn *)
let gen_concat_cases =
  let open QCheck.Gen in
  let* dims = gen_dims ~lo:1 ~hi:4 in
  let* xa = int_range 1 3 in
  let* xb = int_range 1 3 in
  flatten_l
    (List.mapi
       (fun axis _ ->
         let at x = List.mapi (fun i d -> if i = axis then x else d) dims in
         map2 (fun a b -> (axis, a, b)) (gen_tensor (at xa)) (gen_tensor (at xb)))
       dims)

let prop_concat_oracle =
  QCheck.Test.make ~name:"concat on every axis = per-element oracle, bitwise" ~count:100
    (QCheck.make gen_concat_cases ~print:(fun cases ->
         String.concat "; "
           (List.map
              (fun (axis, a, b) ->
                Printf.sprintf "axis %d: %s" axis (print_shapes [ Tensor.shape a; Tensor.shape b ]))
              cases)))
    (List.for_all (fun (axis, a, b) ->
         bits_equal (oracle_concat a b ~axis) (Ops.concat a b ~axis)))

let gen_pool =
  let open QCheck.Gen in
  let* k = int_range 1 3 in
  let* stride = int_range 1 3 in
  let* pad = int_range 0 2 in
  let* n = int_range 1 2 in
  let* c = int_range 1 3 in
  let* h = int_range (max 1 (k - (2 * pad))) 7 in
  let* w = int_range (max 1 (k - (2 * pad))) 7 in
  let* t = gen_tensor [ n; c; h; w ] in
  return (t, k, stride, pad)

let prop_pool_oracle =
  QCheck.Test.make ~name:"max/avg pooling = per-element oracle, bitwise" ~count:150
    (QCheck.make gen_pool ~print:(fun (t, k, stride, pad) ->
         Printf.sprintf "%s k=%d s=%d p=%d" (Shape.to_string (Tensor.shape t)) k stride pad))
    (fun (t, k, stride, pad) ->
      bits_equal (oracle_pool ~max:true t ~k ~stride ~pad) (Ops.maxpool2d t ~k ~stride ~pad ())
      && bits_equal (oracle_pool ~max:false t ~k ~stride ~pad)
           (Ops.avgpool2d t ~k ~stride ~pad ()))

let prop_global_pool_oracle =
  QCheck.Test.make ~name:"global average pooling = per-element oracle, bitwise" ~count:100
    (QCheck.make
       QCheck.Gen.(
         map4 (fun n c h w -> [ n; c; h; w ]) (int_range 1 2) (int_range 1 3) (int_range 1 6)
           (int_range 1 6)
         >>= gen_tensor)
       ~print:(fun t -> Shape.to_string (Tensor.shape t)))
    (fun t -> bits_equal (oracle_global t) (Ops.avgpool_global t))

let prop_embedding_oracle =
  let nd =
    { Cim_nnir.Graph.id = 0; name = "emb"; op = Cim_nnir.Op.Embedding;
      inputs = [ "ids"; "w" ]; outputs = [ "y" ]; attrs = [] }
  in
  QCheck.Test.make ~name:"Embedding gather = per-element oracle, bitwise" ~count:100
    (QCheck.make
       QCheck.Gen.(
         let* vocab = int_range 1 6 in
         let* d = int_range 1 5 in
         let* ids_shape = gen_dims ~lo:0 ~hi:2 in
         let* ids = list_repeat (Shape.numel ids_shape) (int_range 0 (vocab - 1)) in
         let* w = gen_tensor [ vocab; d ] in
         return (Tensor.create ids_shape (Array.of_list (List.map float_of_int ids)), w))
       ~print:(fun (ids, w) -> print_shapes [ Tensor.shape ids; Tensor.shape w ]))
    (fun (ids, w) ->
      bits_equal (oracle_embedding ids w) (Cim_nnir.Exec.eval_node nd [ ids; w ]))

(* --- quantisation --- *)

let prop_quant_roundtrip_bounded =
  QCheck.Test.make ~name:"int8 round-trip error <= scale/2" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 64) (float_range (-10.) 10.))
    (fun xs ->
      let t = t_of [ List.length xs ] (Array.of_list xs) in
      let q = Quant.quantize t in
      Quant.quant_error t <= (q.Quant.scale /. 2.) +. 1e-9)

let test_quant_zero () =
  let t = Tensor.zeros (Shape.of_list [ 3 ]) in
  let q = Quant.quantize t in
  Alcotest.(check (float 0.)) "zero scale defaults to 1" 1. q.Quant.scale;
  check_tensor "zeros round-trip" t (Quant.dequantize q)

let test_quant_matmul_close () =
  let a = Tensor.rand rng (Shape.of_list [ 4; 8 ]) ~lo:(-1.) ~hi:1. in
  let b = Tensor.rand rng (Shape.of_list [ 8; 4 ]) ~lo:(-1.) ~hi:1. in
  let exact = Ops.matmul a b in
  let approx = Quant.dequantize (Quant.matmul (Quant.quantize a) (Quant.quantize b)) in
  let scale = Tensor.fold (fun acc v -> Float.max acc (Float.abs v)) 0. exact in
  Alcotest.(check bool) "int8 matmul within 5% of float" true
    (Tensor.max_abs_diff exact approx <= 0.05 *. scale)

let test_clamp () =
  Alcotest.(check int) "clamp low" (-128) (Quant.clamp_i8 (-1000));
  Alcotest.(check int) "clamp high" 127 (Quant.clamp_i8 1000);
  Alcotest.(check int) "clamp pass" 5 (Quant.clamp_i8 5)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  ( "tensor",
    [
      Alcotest.test_case "create/access" `Quick test_create;
      Alcotest.test_case "reshape shares storage" `Quick test_reshape_shares;
      Alcotest.test_case "matmul 2d" `Quick test_matmul_2d;
      Alcotest.test_case "matmul batched" `Quick test_matmul_batched;
      Alcotest.test_case "matmul bad shapes" `Quick test_matmul_bad_shapes;
      Alcotest.test_case "add/mul broadcast" `Quick test_add_broadcast;
      Alcotest.test_case "activations" `Quick test_activations;
      qtest prop_softmax_normalised;
      Alcotest.test_case "softmax stability" `Quick test_softmax_stability;
      Alcotest.test_case "layernorm" `Quick test_layernorm;
      Alcotest.test_case "rmsnorm" `Quick test_rmsnorm;
      Alcotest.test_case "transpose/permute" `Quick test_transpose;
      qtest prop_conv_matches_naive;
      Alcotest.test_case "conv bias" `Quick test_conv_bias;
      Alcotest.test_case "im2col shape" `Quick test_im2col_shape;
      Alcotest.test_case "pooling" `Quick test_maxpool;
      Alcotest.test_case "clip/relu6" `Quick test_clip;
      qtest prop_broadcast_oracle;
      qtest prop_permute_oracle;
      qtest prop_concat_oracle;
      qtest prop_pool_oracle;
      qtest prop_global_pool_oracle;
      qtest prop_embedding_oracle;
      qtest prop_quant_roundtrip_bounded;
      Alcotest.test_case "quant zeros" `Quick test_quant_zero;
      Alcotest.test_case "quant matmul accuracy" `Quick test_quant_matmul_close;
      Alcotest.test_case "clamp_i8" `Quick test_clamp;
    ] )
