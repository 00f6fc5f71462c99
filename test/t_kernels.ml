(* Differential tests for the Bigarray kernel engine: the boxed seed loops
   in Ops/Quant are the oracle, and the fast backend must reproduce them
   bit for bit — exact integer equality on the quantized path, identical
   float bits on the float path (the determinism contract in kernels.mli).
   Also covers the batched-matmul offset indexing, the quantisation
   rounding/clamp edges, NaN and infinite inputs, and the functional
   simulator's byte-identity across backends and job counts (in-process
   and against a golden fixture; refresh with CMSWITCH_UPDATE_GOLDEN=1
   dune runtest). *)

module Kernels = Cim_tensor.Kernels
module Tensor = Cim_tensor.Tensor
module Shape = Cim_tensor.Shape
module Ops = Cim_tensor.Ops
module Quant = Cim_tensor.Quant
module Rng = Cim_util.Rng
module Functional = Cim_sim.Functional
module Cmswitch = Cim_compiler.Cmswitch

let chip = Cim_arch.Config.dynaplasia

(* ---- generators ---------------------------------------------------------- *)

(* Shape dims are >= 1 (Shape rejects zero dims); 1 is the degenerate
   extreme. Values mix smooth, exact-integer and zero entries so the
   zero-skip branch and both int8 code paths (narrow m < 8 and wide) get
   exercised. *)
let gen_values n =
  let open QCheck.Gen in
  let* style = int_range 0 2 in
  let gen_one =
    match style with
    | 0 -> float_range (-2.) 2.
    | 1 -> map float_of_int (int_range (-3) 3)
    | _ ->
      let* z = int_range 0 2 in
      if z = 0 then return 0. else float_range (-1.) 1.
  in
  let rec go acc i = if i = 0 then return acc else
      let* x = gen_one in
      go (x :: acc) (i - 1)
  in
  map Array.of_list (go [] n)

type mm_case = {
  batch : int option * bool;  (* batch dim, right operand batched too *)
  m : int; k : int; n : int;
  av : float array; bv : float array;
}

let gen_mm =
  let open QCheck.Gen in
  let* m = int_range 1 12 in
  let* k = int_range 1 20 in
  let* n = int_range 1 20 in
  let* kind = int_range 0 2 in
  let* bd = int_range 1 3 in
  let batch = if kind = 0 then (None, false) else (Some bd, kind = 2) in
  let asize = match batch with None, _ -> m * k | Some b, _ -> b * m * k in
  let bsize = match batch with _, true -> bd * k * n | _ -> k * n in
  let* av = gen_values asize in
  let* bv = gen_values bsize in
  return { batch; m; k; n; av; bv }

let print_mm c =
  let b = match c.batch with None, _ -> "2d" | Some b, r -> Printf.sprintf "b=%d%s" b (if r then " both" else "") in
  Printf.sprintf "%s m=%d k=%d n=%d" b c.m c.k c.n

let tensors_of c =
  let ash, bsh =
    match c.batch with
    | None, _ -> ([ c.m; c.k ], [ c.k; c.n ])
    | Some b, false -> ([ b; c.m; c.k ], [ c.k; c.n ])
    | Some b, true -> ([ b; c.m; c.k ], [ b; c.k; c.n ])
  in
  ( Tensor.create (Shape.of_list ash) c.av,
    Tensor.create (Shape.of_list bsh) c.bv )

let float_bits_equal x y =
  Array.length x = Array.length y
  && (let ok = ref true in
      Array.iteri
        (fun i v ->
          if Int64.bits_of_float v <> Int64.bits_of_float (Array.unsafe_get y i)
          then ok := false)
        x;
      !ok)

let both f = (Kernels.with_backend Kernels.Boxed f, Kernels.with_backend Kernels.Bigarray f)

(* ---- float matmul -------------------------------------------------------- *)

let matmul_bits_equal c =
  let a, b = tensors_of c in
  let boxed, big = both (fun () -> Ops.matmul a b) in
  float_bits_equal (Tensor.data boxed) (Tensor.data big)

(* The random draws keep k <= 20, inside one of the float kernel's
   256-wide p-blocks. These fixed inputs have k > 256, so every
   accumulator is spilled to the output and reloaded across p-blocks
   (n = 11 covers the 8-wide tile and the remainder columns); the last is
   big enough for the row-parallel path, which runs under a 2-worker pool. *)
let wide_k_cases () =
  let rand = Random.State.make [| 16 |] in
  let case batch m k n =
    let bsz = match batch with Some b, _ -> b | None, _ -> 1 in
    let bbsz = match batch with Some b, true -> b | _ -> 1 in
    let av = QCheck.Gen.generate1 ~rand (gen_values (bsz * m * k)) in
    let bv = QCheck.Gen.generate1 ~rand (gen_values (bbsz * k * n)) in
    { batch; m; k; n; av; bv }
  in
  [ (false, case (None, false) 3 600 11);
    (false, case (Some 2, true) 3 600 11);
    (true, case (None, false) 8 520 520) ]

let matmul_differential =
  let name, speed, property =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"matmul: Bigarray bitwise-equals boxed oracle"
         ~count:120
         (QCheck.make ~print:print_mm gen_mm)
         (fun c ->
           if not (matmul_bits_equal c) then
             QCheck.Test.fail_reportf "float bits diverge on %s" (print_mm c);
           true))
  in
  let wide () =
    List.iter
      (fun (pooled, c) ->
        let same =
          if pooled then
            Cim_util.Pool.with_pool ~jobs:2 (fun p ->
                Kernels.with_pool (Some p) (fun () -> matmul_bits_equal c))
          else matmul_bits_equal c
        in
        if not same then Alcotest.failf "float bits diverge on %s" (print_mm c))
      (wide_k_cases ())
  in
  (name, speed, fun () -> wide (); property ())

(* ---- int8 matmul --------------------------------------------------------- *)

type qmm_case = { qm : int; qk : int; qn : int; qa : int array; qb : int array }

let gen_qvalues n =
  let open QCheck.Gen in
  (* full int8 range incl. the saturation boundaries -128 and 127 *)
  let* style = int_range 0 1 in
  let one = if style = 0 then int_range (-128) 127 else oneofl [ -128; -127; -1; 0; 1; 127 ] in
  let rec go acc i = if i = 0 then return acc else
      let* x = one in go (x :: acc) (i - 1)
  in
  map Array.of_list (go [] n)

let gen_qmm =
  let open QCheck.Gen in
  (* m from 1 (narrow int8-Bigarray route) past 8 (float64 route) *)
  let* qm = int_range 1 16 in
  let* qk = int_range 1 24 in
  let* qn = int_range 1 24 in
  let* qa = gen_qvalues (qm * qk) in
  let* qb = gen_qvalues (qk * qn) in
  return { qm; qk; qn; qa; qb }

let print_qmm c = Printf.sprintf "m=%d k=%d n=%d" c.qm c.qk c.qn

let qmatmul_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"qmatmul: Bigarray accumulators exactly equal oracle"
       ~count:120
       (QCheck.make ~print:print_qmm gen_qmm)
       (fun c ->
         (* oracle: the seed triple loop over native ints *)
         let expect = Array.make (c.qm * c.qn) 0 in
         for i = 0 to c.qm - 1 do
           for j = 0 to c.qn - 1 do
             let acc = ref 0 in
             for p = 0 to c.qk - 1 do
               acc := !acc + (c.qa.((i * c.qk) + p) * c.qb.((p * c.qn) + j))
             done;
             expect.((i * c.qn) + j) <- !acc
           done
         done;
         let got = Kernels.qmatmul2d c.qa c.qb ~m:c.qm ~k:c.qk ~n:c.qn in
         if got <> expect then
           QCheck.Test.fail_reportf "accumulators diverge on %s" (print_qmm c);
         (* and through Quant.matmul, requantisation included *)
         let mk v m n =
           { Quant.values = v; scale = 0.05; shape = Shape.of_list [ m; n ] }
         in
         let qa = mk c.qa c.qm c.qk and qb = mk c.qb c.qk c.qn in
         let boxed, big = both (fun () -> Quant.matmul qa qb) in
         boxed.Quant.values = big.Quant.values
         && Int64.bits_of_float boxed.Quant.scale = Int64.bits_of_float big.Quant.scale))

(* ---- conv2d / im2col ----------------------------------------------------- *)

type conv_case = {
  cn : int; cc : int; ch : int; cw : int;
  coc : int; ckh : int; ckw : int;
  stride : int; pad : int; groups : int;
  cx : float array; cwt : float array; cb : float array option;
}

let gen_conv =
  let open QCheck.Gen in
  let* groups = oneofl [ 1; 1; 2 ] in
  let* cpg = int_range 1 3 in
  let* opg = int_range 1 3 in
  let cc = cpg * groups and coc = opg * groups in
  let* cn = int_range 1 2 in
  let* ckh = int_range 1 3 in
  let* ckw = int_range 1 3 in
  let* stride = int_range 1 3 in
  let* pad = int_range 0 2 in
  (* keep the output at least 1x1: h + 2p >= kh *)
  let* ch = int_range (max 1 (ckh - (2 * pad))) 7 in
  let* cw = int_range (max 1 (ckw - (2 * pad))) 7 in
  let* cx = gen_values (cn * cc * ch * cw) in
  let* cwt = gen_values (coc * cpg * ckh * ckw) in
  let* with_bias = bool in
  let* cb = if with_bias then map Option.some (gen_values coc) else return None in
  return { cn; cc; ch; cw; coc; ckh; ckw; stride; pad; groups; cx; cwt; cb }

let print_conv c =
  Printf.sprintf "n=%d c=%d h=%d w=%d oc=%d k=%dx%d s=%d p=%d g=%d bias=%b"
    c.cn c.cc c.ch c.cw c.coc c.ckh c.ckw c.stride c.pad c.groups
    (c.cb <> None)

let conv_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"conv2d: Bigarray bitwise-equals boxed oracle"
       ~count:60
       (QCheck.make ~print:print_conv gen_conv)
       (fun c ->
         let x = Tensor.create (Shape.of_list [ c.cn; c.cc; c.ch; c.cw ]) c.cx in
         let w =
           Tensor.create
             (Shape.of_list [ c.coc; c.cc / c.groups; c.ckh; c.ckw ])
             c.cwt
         in
         let bias = Option.map (fun b -> Tensor.create (Shape.of_list [ c.coc ]) b) c.cb in
         let run () =
           Ops.conv2d x ~weight:w ?bias ~stride:c.stride ~pad:c.pad
             ~groups:c.groups ()
         in
         let boxed, big = both run in
         if not (float_bits_equal (Tensor.data boxed) (Tensor.data big)) then
           QCheck.Test.fail_reportf "conv bits diverge on %s" (print_conv c);
         true))

let im2col_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"im2col: Bigarray bitwise-equals boxed oracle"
       ~count:30
       (QCheck.make ~print:print_conv gen_conv)
       (fun c ->
         let x = Tensor.create (Shape.of_list [ c.cn; c.cc; c.ch; c.cw ]) c.cx in
         let run () = Ops.im2col x ~kh:c.ckh ~kw:c.ckw ~stride:c.stride ~pad:c.pad in
         let boxed, big = both run in
         float_bits_equal (Tensor.data boxed) (Tensor.data big)))

(* ---- batched matmul = looped 2-d (offset-indexing regression) ------------- *)

let test_batched_vs_looped () =
  let rng = Rng.create 5 in
  let bd = 3 and m = 5 and k = 7 and n = 4 in
  let a = Tensor.rand rng (Shape.of_list [ bd; m; k ]) ~lo:(-1.) ~hi:1. in
  let b = Tensor.rand rng (Shape.of_list [ k; n ]) ~lo:(-1.) ~hi:1. in
  let b3 = Tensor.rand rng (Shape.of_list [ bd; k; n ]) ~lo:(-1.) ~hi:1. in
  List.iter
    (fun backend ->
      Kernels.with_backend backend (fun () ->
          let slice t i rows cols =
            Tensor.create (Shape.of_list [ rows; cols ])
              (Array.sub (Tensor.data t) (i * rows * cols) (rows * cols))
          in
          let batched = Ops.matmul a b in
          let batched2 = Ops.matmul a b3 in
          for bi = 0 to bd - 1 do
            let looped = Ops.matmul (slice a bi m k) b in
            Alcotest.(check bool)
              (Printf.sprintf "%s: half-batched slice %d"
                 (Kernels.backend_to_string backend) bi)
              true
              (float_bits_equal (Tensor.data looped)
                 (Array.sub (Tensor.data batched) (bi * m * n) (m * n)));
            let looped2 = Ops.matmul (slice a bi m k) (slice b3 bi k n) in
            Alcotest.(check bool)
              (Printf.sprintf "%s: fully-batched slice %d"
                 (Kernels.backend_to_string backend) bi)
              true
              (float_bits_equal (Tensor.data looped2)
                 (Array.sub (Tensor.data batched2) (bi * m * n) (m * n)))
          done))
    [ Kernels.Boxed; Kernels.Bigarray ]

(* ---- quantisation edges --------------------------------------------------- *)

let test_quant_edges () =
  (* clamp saturates at the int8 boundaries *)
  Alcotest.(check int) "clamp 127" 127 (Kernels.clamp_i8 127);
  Alcotest.(check int) "clamp 128" 127 (Kernels.clamp_i8 128);
  Alcotest.(check int) "clamp -128" (-128) (Kernels.clamp_i8 (-128));
  Alcotest.(check int) "clamp -129" (-128) (Kernels.clamp_i8 (-129));
  (* symmetric quantisation maps +-max to +-127 exactly *)
  let t = Tensor.create (Shape.of_list [ 3 ]) [| 1.0; -1.0; 0.5 |] in
  List.iter
    (fun backend ->
      Kernels.with_backend backend (fun () ->
          let q = Quant.quantize t in
          Alcotest.(check (array int))
            (Kernels.backend_to_string backend ^ ": boundary values")
            [| 127; -127; 64 |] q.Quant.values))
    [ Kernels.Boxed; Kernels.Bigarray ];
  (* rounding ties go away from zero (Float.round), identically on both
     backends: with scale = 1, +-0.5 and +-2.5 are exact ties *)
  let ties = [| 0.5; -0.5; 2.5; -2.5; 1.49; -1.49 |] in
  let expect = [| 1; -1; 3; -3; 1; -1 |] in
  List.iter
    (fun backend ->
      Kernels.with_backend backend (fun () ->
          Alcotest.(check (array int))
            (Kernels.backend_to_string backend ^ ": ties away from zero")
            expect
            (Kernels.quantize_values ties ~scale:1.)))
    [ Kernels.Boxed; Kernels.Bigarray ];
  (* all-zero tensor quantises to scale 1, not NaN *)
  let z = Quant.quantize (Tensor.zeros (Shape.of_list [ 4 ])) in
  Alcotest.(check (float 0.)) "zero tensor scale" 1.0 z.Quant.scale;
  (* zero / negative in_scale must be rejected, not silently NaN *)
  List.iter
    (fun s ->
      match Quant.requantize [| 1; 2 |] (Shape.of_list [ 2 ]) ~in_scale:s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "requantize accepted in_scale=%g" s)
    [ 0.; -1. ];
  (* requantised accumulators saturate into [-128, 127] *)
  let q = Quant.requantize [| 1000; -1000; 0 |] (Shape.of_list [ 3 ]) ~in_scale:1. in
  Alcotest.(check (array int)) "requantize saturation bounds" [| 127; -127; 0 |]
    q.Quant.values

let test_backend_of_string () =
  Alcotest.(check bool) "boxed" true (Kernels.backend_of_string "Boxed" = Ok Kernels.Boxed);
  Alcotest.(check bool) "bigarray" true
    (Kernels.backend_of_string " bigarray " = Ok Kernels.Bigarray);
  Alcotest.(check bool) "junk rejected" true
    (match Kernels.backend_of_string "vulkan" with Error _ -> true | Ok _ -> false)

(* ---- functional simulator byte-identity ----------------------------------- *)

let sim_cases () =
  let rng = Rng.create 31 in
  let mlp = Cim_models.Mlp.build ~rng ~batch:2 ~dims:[ 64; 128; 32 ] () in
  let mlp_x = Tensor.rand rng (Shape.of_list [ 2; 64 ]) ~lo:(-1.) ~hi:1. in
  let cnn = Cim_models.Cnn.tiny_cnn ~rng ~batch:2 () in
  let cnn_x = Tensor.rand rng (Shape.of_list [ 2; 2; 8; 8 ]) ~lo:(-1.) ~hi:1. in
  (* tiny-transformer blocks: Transpose, Softmax, LayerNorm, GELU and the
     residual Adds on both; the decode block also Concats its KV cache *)
  let block w =
    let module Transformer = Cim_models.Transformer in
    let g =
      Cim_nnir.Graph.with_random_values rng
        (Transformer.build_layer (Transformer.tiny ()) w ~layer_index:0)
    in
    let inputs =
      List.map
        (fun (n, sh) -> (n, Tensor.rand rng sh ~lo:(-1.) ~hi:1.))
        g.Cim_nnir.Graph.graph_inputs
    in
    (g, inputs)
  in
  let decode, decode_in = block (Cim_models.Workload.decode 5) in
  let prefill, prefill_in = block (Cim_models.Workload.prefill 4) in
  (* biased Gemms: each adds an [n] bias to an [m; n] product, the
     broadcasting Add *)
  let biased =
    let module B = Cim_nnir.Builder in
    let b = B.create "mlp-bias" in
    let x = B.input b "x" (Shape.of_list [ 3; 16 ]) in
    let h = B.relu b (B.linear ~value_rng:rng b x ~in_dim:16 ~out_dim:24 ~prefix:"fc1") in
    B.finish b ~outputs:[ B.linear ~value_rng:rng b h ~in_dim:24 ~out_dim:8 ~prefix:"fc2" ]
  in
  let biased_x = Tensor.rand rng (Shape.of_list [ 3; 16 ]) ~lo:(-1.) ~hi:1. in
  [ ("mlp", mlp, [ ("x", mlp_x) ]); ("tiny-cnn", cnn, [ ("image", cnn_x) ]);
    ("tiny-decode", decode, decode_in); ("tiny-prefill", prefill, prefill_in);
    ("mlp-bias", biased, [ ("x", biased_x) ]) ]

let sim_digests () =
  List.map
    (fun (name, g, inputs) ->
      let r = Cmswitch.compile chip g in
      let digest ~jobs ~backend =
        Functional.digest
          (Functional.run chip ~jobs ~backend g r.Cmswitch.program ~inputs)
      in
      let d_big1 = digest ~jobs:1 ~backend:Kernels.Bigarray in
      let d_big4 = digest ~jobs:4 ~backend:Kernels.Bigarray in
      let d_box1 = digest ~jobs:1 ~backend:Kernels.Boxed in
      let d_box4 = digest ~jobs:4 ~backend:Kernels.Boxed in
      Alcotest.(check string) (name ^ ": bigarray jobs=4 = jobs=1") d_big1 d_big4;
      Alcotest.(check string) (name ^ ": boxed jobs=4 = jobs=1") d_box1 d_box4;
      Alcotest.(check string) (name ^ ": boxed = bigarray") d_big1 d_box1;
      (name, [ (Kernels.Boxed, d_box1); (Kernels.Bigarray, d_big1) ]))
    (sim_cases ())

let test_sim_byte_identity () = ignore (sim_digests ())

(* golden fixture: one digest line per (model, backend) so any drift in the
   kernels, the quantised pipeline or the digest itself is caught against
   version control, per backend *)
let golden_dir () =
  List.find_opt Sys.file_exists [ "../../../test/golden"; "test/golden"; "golden" ]

let golden_path () =
  Filename.concat (Option.value (golden_dir ()) ~default:"golden") "functional_sim.txt"

let render_digests ds =
  String.concat ""
    (List.concat_map
       (fun (name, per_backend) ->
         List.map
           (fun (b, d) ->
             Printf.sprintf "%s %s %s\n" name (Kernels.backend_to_string b) d)
           per_backend)
       ds)

let test_sim_golden () =
  let rendered = render_digests (sim_digests ()) in
  let path = golden_path () in
  if Sys.getenv_opt "CMSWITCH_UPDATE_GOLDEN" = Some "1" then begin
    let oc = open_out path in
    output_string oc rendered;
    close_out oc;
    Printf.printf "golden fixture refreshed: %s\n" path
  end
  else begin
    if not (Sys.file_exists path) then
      Alcotest.failf "missing fixture %s — run CMSWITCH_UPDATE_GOLDEN=1 dune runtest" path;
    let ic = open_in path in
    let expected =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    if expected <> rendered then
      Printf.printf
        "golden mismatch for %s: if the change is intentional, refresh with \
         CMSWITCH_UPDATE_GOLDEN=1 dune runtest\n"
        path;
    Alcotest.(check string) "functional-sim digests match fixture" expected rendered
  end

(* ---- non-finite inputs ----------------------------------------------------- *)

let specials = [ ("nan", Float.nan); ("+inf", Float.infinity); ("-inf", Float.neg_infinity) ]

let test_quant_non_finite () =
  List.iter
    (fun (label, x) ->
      let t = Tensor.create (Shape.of_list [ 4 ]) [| 0.5; x; -1.; 0.25 |] in
      let boxed, big = both (fun () -> Quant.quantize t) in
      Alcotest.(check (array int)) (label ^ ": values agree") boxed.Quant.values big.Quant.values;
      Alcotest.(check int64) (label ^ ": scale bits agree")
        (Int64.bits_of_float boxed.Quant.scale) (Int64.bits_of_float big.Quant.scale);
      (* x / scale is NaN for every element: a NaN scale, or inf / inf *)
      Alcotest.(check (array int)) (label ^ ": all zero") [| 0; 0; 0; 0 |] big.Quant.values;
      Alcotest.(check bool) (label ^ ": scale is NaN exactly for a NaN input")
        (Float.is_nan x) (Float.is_nan big.Quant.scale))
    specials;
  (* the chunk-parallel reduction keeps a NaN from any chunk *)
  let v = Array.init (1 lsl 18) (fun i -> float_of_int (i mod 7)) in
  v.(100_000) <- Float.nan;
  let m =
    Cim_util.Pool.with_pool ~jobs:2 (fun p ->
        Kernels.with_pool (Some p) (fun () -> Kernels.max_abs v))
  in
  Alcotest.(check bool) "parallel max_abs propagates NaN" true (Float.is_nan m)

(* The mlp case with one non-finite input: both backends must agree, and a
   NaN (which poisons a quantisation scale) must surface as the simulator's
   own error, naming the node. *)
let test_sim_non_finite () =
  let g, x =
    match sim_cases () with
    | ("mlp", g, [ ("x", x) ]) :: _ -> (g, x)
    | _ -> assert false
  in
  let program = (Cmswitch.compile chip g).Cmswitch.program in
  List.iter
    (fun (label, v) ->
      let data = Array.copy (Tensor.data x) in
      data.(3) <- v;
      let inputs = [ ("x", Tensor.create (Tensor.shape x) data) ] in
      let run backend =
        match Functional.run chip ~jobs:1 ~backend g program ~inputs with
        | rep -> Ok (Functional.digest rep)
        | exception Functional.Error m -> Error m
      in
      let boxed = run Kernels.Boxed and big = run Kernels.Bigarray in
      Alcotest.(check (result string string)) (label ^ ": backends agree") boxed big;
      match big with
      | Error m when Float.is_nan v ->
        Alcotest.(check bool) (label ^ ": error names the node: " ^ m) true
          (String.starts_with ~prefix:"node " m)
      | Error m -> Alcotest.failf "%s: unexpected error %s" label m
      | Ok _ -> if Float.is_nan v then Alcotest.failf "%s: run succeeded" label)
    specials

let suite =
  ( "kernels",
    [ matmul_differential;
      qmatmul_differential;
      conv_differential;
      im2col_differential;
      Alcotest.test_case "batched matmul = looped 2-d" `Quick test_batched_vs_looped;
      Alcotest.test_case "quantisation edges" `Quick test_quant_edges;
      Alcotest.test_case "quantisation of NaN and inf" `Quick test_quant_non_finite;
      Alcotest.test_case "backend_of_string" `Quick test_backend_of_string;
      Alcotest.test_case "functional sim byte-identity" `Quick test_sim_byte_identity;
      Alcotest.test_case "functional sim golden digests" `Quick test_sim_golden;
      Alcotest.test_case "functional sim on NaN and inf" `Quick test_sim_non_finite ] )
