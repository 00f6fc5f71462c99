(* Tests for the graph IR: validation, topological sorting, shape
   inference per operator, the builder DSL, the textual round-trip and the
   reference executor. *)

module Graph = Cim_nnir.Graph
module Op = Cim_nnir.Op
module Attr = Cim_nnir.Attr
module B = Cim_nnir.Builder
module Shape_infer = Cim_nnir.Shape_infer
module Text = Cim_nnir.Text
module Exec = Cim_nnir.Exec
module Shape = Cim_tensor.Shape
module Tensor = Cim_tensor.Tensor
module Ops = Cim_tensor.Ops
module Rng = Cim_util.Rng

let node id name op inputs outputs attrs =
  { Graph.id; name; op; inputs; outputs; attrs }

let mk ?(inputs = [ ("x", [ 1; 4 ]) ]) ?(inits = []) ~nodes ~outputs () =
  Graph.create ~name:"t" ~nodes ~inputs ~outputs
    ~initializers:
      (List.map
         (fun (n, s) -> { Graph.init_name = n; init_shape = s; value = None })
         inits)

(* --- validation --- *)

let expect_invalid name f =
  match f () with
  | exception Graph.Invalid _ -> ()
  | _ -> Alcotest.failf "%s: expected Graph.Invalid" name

let test_validation () =
  expect_invalid "undefined input" (fun () ->
      mk ~nodes:[ node 0 "r" Op.Relu [ "nope" ] [ "y" ] [] ] ~outputs:[ "y" ] ());
  expect_invalid "double definition" (fun () ->
      mk
        ~nodes:
          [ node 0 "a" Op.Relu [ "x" ] [ "y" ] []; node 1 "b" Op.Relu [ "x" ] [ "y" ] [] ]
        ~outputs:[ "y" ] ());
  expect_invalid "duplicate node id" (fun () ->
      mk
        ~nodes:
          [ node 0 "a" Op.Relu [ "x" ] [ "y" ] []; node 0 "b" Op.Relu [ "y" ] [ "z" ] [] ]
        ~outputs:[ "z" ] ());
  expect_invalid "undefined output" (fun () ->
      mk ~nodes:[ node 0 "a" Op.Relu [ "x" ] [ "y" ] [] ] ~outputs:[ "zz" ] ());
  (* a cycle cannot even be written in SSA with distinct names unless nodes
     consume each other's outputs *)
  expect_invalid "cycle" (fun () ->
      mk
        ~nodes:
          [ node 0 "a" Op.Add [ "x"; "w" ] [ "v" ] [];
            node 1 "b" Op.Add [ "v"; "x" ] [ "w" ] [] ]
        ~outputs:[ "w" ] ())

let test_topo_sort () =
  (* give nodes out of order; create must sort them *)
  let g =
    mk
      ~nodes:
        [ node 1 "second" Op.Relu [ "mid" ] [ "out" ] [];
          node 0 "first" Op.Relu [ "x" ] [ "mid" ] [] ]
      ~outputs:[ "out" ] ()
  in
  Alcotest.(check (list string)) "sorted order" [ "first"; "second" ]
    (List.map (fun (n : Graph.node) -> n.Graph.name) g.Graph.nodes);
  Alcotest.(check bool) "depends" true (Graph.depends g 0 1);
  Alcotest.(check bool) "not depends" false (Graph.depends g 1 0)

let test_accessors () =
  let g =
    mk
      ~inits:[ ("w", [ 4; 4 ]) ]
      ~nodes:[ node 0 "g" Op.Gemm [ "x"; "w" ] [ "y" ] [] ]
      ~outputs:[ "y" ] ()
  in
  Alcotest.(check bool) "is_initializer" true (Graph.is_initializer g "w");
  Alcotest.(check bool) "input is not initializer" false (Graph.is_initializer g "x");
  Alcotest.(check (option (list int))) "initializer_shape" (Some [ 4; 4 ])
    (Graph.initializer_shape g "w");
  Alcotest.(check int) "param_count" 16 (Graph.param_count g);
  Alcotest.(check (option string)) "producer" (Some "g")
    (Option.map (fun (n : Graph.node) -> n.Graph.name) (Graph.producer g "y"));
  Alcotest.(check int) "consumers of x" 1 (List.length (Graph.consumers g "x"));
  Alcotest.(check int) "cim nodes" 1 (List.length (Graph.cim_nodes g))

(* --- shape inference --- *)

let infer_one op attrs ins = Shape_infer.output_shape op attrs ins

let test_shapes_matmul_gemm () =
  Alcotest.(check (list (list int))) "matmul" [ [ 2; 5 ] ]
    (infer_one Op.Mat_mul [] [ [ 2; 3 ]; [ 3; 5 ] ]);
  Alcotest.(check (list (list int))) "batched" [ [ 7; 2; 5 ] ]
    (infer_one Op.Mat_mul [] [ [ 7; 2; 3 ]; [ 7; 3; 5 ] ]);
  Alcotest.(check (list (list int))) "gemm with bias" [ [ 2; 5 ] ]
    (infer_one Op.Gemm [] [ [ 2; 3 ]; [ 3; 5 ]; [ 5 ] ]);
  Alcotest.check_raises "bad matmul"
    (Shape_infer.Error "MatMul: incompatible 2x3 x 4x5") (fun () ->
      ignore (infer_one Op.Mat_mul [] [ [ 2; 3 ]; [ 4; 5 ] ]))

let test_shapes_conv_pool () =
  let attrs = [ ("stride", Attr.Int 2); ("pad", Attr.Int 3); ("groups", Attr.Int 1) ] in
  Alcotest.(check (list (list int))) "conv stem" [ [ 1; 64; 112; 112 ] ]
    (infer_one Op.Conv attrs [ [ 1; 3; 224; 224 ]; [ 64; 3; 7; 7 ] ]);
  let pool = [ ("k", Attr.Int 2); ("stride", Attr.Int 2) ] in
  Alcotest.(check (list (list int))) "maxpool" [ [ 1; 8; 4; 4 ] ]
    (infer_one Op.Max_pool pool [ [ 1; 8; 8; 8 ] ]);
  Alcotest.(check (list (list int))) "gap" [ [ 2; 16 ] ]
    (infer_one Op.Global_avg_pool [] [ [ 2; 16; 7; 7 ] ]);
  Alcotest.(check (list (list int))) "avgpool" [ [ 1; 8; 4; 4 ] ]
    (infer_one Op.Avg_pool [ ("k", Attr.Int 2); ("stride", Attr.Int 2) ] [ [ 1; 8; 8; 8 ] ]);
  Alcotest.(check (list (list int))) "clip keeps shape" [ [ 3; 5 ] ]
    (infer_one Op.Clip [ ("min", Attr.Float 0.); ("max", Attr.Float 6.) ] [ [ 3; 5 ] ])

let test_shapes_reshape_transpose () =
  Alcotest.(check (list (list int))) "reshape -1" [ [ 2; 12 ] ]
    (infer_one Op.Reshape [ ("shape", Attr.Ints [ 2; -1 ]) ] [ [ 2; 3; 4 ] ]);
  Alcotest.check_raises "reshape bad count"
    (Shape_infer.Error "Reshape: element count mismatch (2x3x4 -> 5x5)")
    (fun () ->
      ignore (infer_one Op.Reshape [ ("shape", Attr.Ints [ 5; 5 ]) ] [ [ 2; 3; 4 ] ]));
  Alcotest.(check (list (list int))) "transpose" [ [ 4; 2; 3 ] ]
    (infer_one Op.Transpose [ ("perm", Attr.Ints [ 2; 0; 1 ]) ] [ [ 2; 3; 4 ] ]);
  Alcotest.(check (list (list int))) "concat" [ [ 2; 7 ] ]
    (infer_one Op.Concat [ ("axis", Attr.Int 1) ] [ [ 2; 3 ]; [ 2; 4 ] ])

let test_shapes_misc () =
  Alcotest.(check (list (list int))) "add broadcast" [ [ 2; 3 ] ]
    (infer_one Op.Add [] [ [ 2; 3 ]; [ 3 ] ]);
  Alcotest.(check (list (list int))) "layernorm" [ [ 2; 8 ] ]
    (infer_one Op.Layer_norm [] [ [ 2; 8 ]; [ 8 ]; [ 8 ] ]);
  Alcotest.(check (list (list int))) "embedding" [ [ 5; 16 ] ]
    (infer_one Op.Embedding [] [ [ 5 ]; [ 100; 16 ] ])

let test_infer_whole_graph () =
  let g = Cim_models.Cnn.tiny_cnn ~batch:2 () in
  let shapes = Shape_infer.infer g in
  List.iter
    (fun o ->
      Alcotest.(check (list int)) "output shape" [ 2; 10 ] (Hashtbl.find shapes o))
    g.Graph.graph_outputs

(* --- builder --- *)

let test_builder_fresh_names () =
  let b = B.create "g" in
  let _ = B.input b "x" (Shape.of_list [ 1; 4 ]) in
  let w1 = B.weight b "w" (Shape.of_list [ 4; 4 ]) in
  let w2 = B.weight b "w" (Shape.of_list [ 4; 4 ]) in
  Alcotest.(check bool) "fresh weight names" true (w1 <> w2);
  Alcotest.check_raises "input name collision"
    (Invalid_argument "Builder.input: name taken: x") (fun () ->
      ignore (B.input b "x" (Shape.of_list [ 1 ])))

let test_builder_graph () =
  let rng = Rng.create 3 in
  let g = Cim_models.Mlp.build ~rng ~batch:2 ~dims:[ 4; 8; 3 ] () in
  Alcotest.(check int) "two gemms one relu" 3 (Graph.node_count g);
  Alcotest.(check int) "params" ((4 * 8) + (8 * 3)) (Graph.param_count g);
  (* every initializer carries a value *)
  List.iter
    (fun (i : Graph.initializer_) ->
      Alcotest.(check bool) "value attached" true (i.Graph.value <> None))
    g.Graph.initializers

(* --- text round trip --- *)

let strip_values (g : Graph.t) =
  Graph.create ~name:g.Graph.graph_name ~nodes:g.Graph.nodes
    ~inputs:g.Graph.graph_inputs ~outputs:g.Graph.graph_outputs
    ~initializers:
      (List.map (fun i -> { i with Graph.value = None }) g.Graph.initializers)

(* every zoo CNN (MobileNetV2's Clip prints max=0x1.8p+2), quoted names
   carrying escapes and non-ASCII bytes, and negative float attributes *)
let test_text_roundtrip_models () =
  let zoo_cnns =
    List.filter_map
      (fun (e : Cim_models.Zoo.entry) ->
        if e.Cim_models.Zoo.family = Cim_models.Zoo.Cnn then
          Some (e.Cim_models.Zoo.build (Cim_models.Workload.prefill ~batch:1 1))
        else None)
      Cim_models.Zoo.all
  in
  let names =
    Graph.create ~name:"出力"
      ~nodes:
        [ node 0 "a\tb" Op.Relu [ "x" ] [ "y" ] [ ("note", Attr.Str "q\"\\") ];
          node 1 "出力" Op.Clip [ "y" ] [ "z" ]
            [ ("min", Attr.Float neg_infinity); ("max", Attr.Float (-2.5)) ] ]
      ~inputs:[ ("x", [ 1; 4 ]) ] ~outputs:[ "z" ] ~initializers:[]
  in
  List.iter
    (fun g ->
      let s = Text.to_string g in
      let g2 = Text.of_string s in
      Alcotest.(check string) "same rendering" s (Text.to_string g2))
    ([
       strip_values (Cim_models.Cnn.tiny_cnn ~batch:1 ());
       Cim_models.Transformer.build_layer (Cim_models.Transformer.tiny ())
         (Cim_models.Workload.prefill ~batch:1 4) ~layer_index:0;
       names;
     ]
    @ zoo_cnns);
  let g2 = Text.of_string (Text.to_string names) in
  Alcotest.(check string) "graph name" "出力" g2.Graph.graph_name;
  Alcotest.(check (list string)) "node names" [ "a\tb"; "出力" ]
    (List.map (fun (n : Graph.node) -> n.Graph.name) g2.Graph.nodes)

let test_text_parse_errors () =
  let bad s =
    match Text.of_string s with
    | exception Text.Parse_error _ -> ()
    | exception Graph.Invalid _ -> ()
    | _ -> Alcotest.failf "expected parse failure: %s" s
  in
  bad "nonsense";
  bad "graph \"g\" { input x 0x3 }";
  bad "graph \"g\" { node 0 \"n\" Bogus (x) -> (y) { } }";
  bad "graph \"g\" { output y }";
  bad "graph \"g\" { node 99999999999999999999 \"n\" Relu (x) -> (y) { } }"

(* random small graphs: chains of unary ops over a 2-d input *)
let gen_chain =
  QCheck.Gen.(
    list_size (int_range 1 6) (oneofl [ Op.Relu; Op.Gelu; Op.Silu; Op.Softmax ]))

let arb_chain = QCheck.make gen_chain

let prop_text_roundtrip_random =
  QCheck.Test.make ~name:"text round-trip on random chains" ~count:100 arb_chain
    (fun ops ->
      let nodes =
        List.mapi
          (fun i op ->
            let src = if i = 0 then "x" else Printf.sprintf "t%d" i in
            node i (Printf.sprintf "n%d" i) op [ src ] [ Printf.sprintf "t%d" (i + 1) ] [])
          ops
      in
      let g =
        mk ~inputs:[ ("x", [ 2; 3 ]) ] ~nodes
          ~outputs:[ Printf.sprintf "t%d" (List.length ops) ]
          ()
      in
      Text.to_string (Text.of_string (Text.to_string g)) = Text.to_string g)

(* --- executor --- *)

let test_exec_mlp () =
  let rng = Rng.create 5 in
  let g = Cim_models.Mlp.build ~rng ~batch:1 ~dims:[ 3; 4; 2 ] () in
  let x = Tensor.rand rng (Shape.of_list [ 1; 3 ]) ~lo:(-1.) ~hi:1. in
  let outs = Exec.run_outputs g [ ("x", x) ] in
  (* recompute by hand *)
  let wv name = Option.get (Graph.initializer_value g name) in
  let expected = Ops.matmul (Ops.relu (Ops.matmul x (wv "fc1_w"))) (wv "fc2_w") in
  match outs with
  | [ (_, got) ] ->
    Alcotest.(check bool) "exec matches manual" true (Tensor.equal ~eps:1e-6 expected got)
  | _ -> Alcotest.fail "expected one output"

let test_exec_missing_input () =
  let g = Cim_models.Mlp.build ~rng:(Rng.create 1) ~batch:1 ~dims:[ 3; 2 ] () in
  Alcotest.check_raises "missing input" (Exec.Error "missing graph input x")
    (fun () -> ignore (Exec.run g []))

let test_exec_missing_weights () =
  let g = Cim_models.Cnn.tiny_cnn ~batch:1 () in
  (* no rng -> no values *)
  let x = Tensor.zeros (Shape.of_list [ 1; 2; 8; 8 ]) in
  match Exec.run g [ ("image", x) ] with
  | exception Exec.Error _ -> ()
  | _ -> Alcotest.fail "expected Exec.Error for valueless initializers"

let test_exec_tiny_transformer_shapes () =
  (* the tiny transformer has no weight values, but shape inference must
     accept both prefill and decode graph variants *)
  let cfg = Cim_models.Transformer.tiny () in
  List.iter
    (fun w ->
      let g = Cim_models.Transformer.build cfg w in
      let shapes = Shape_infer.infer g in
      let bt = w.Cim_models.Workload.batch * Cim_models.Workload.tokens_this_step w in
      List.iter
        (fun o ->
          Alcotest.(check (list int)) "logit shape" [ bt; 50 ] (Hashtbl.find shapes o))
        g.Graph.graph_outputs)
    [ Cim_models.Workload.prefill ~batch:2 4; Cim_models.Workload.decode ~batch:2 3 ]

let qtest = QCheck_alcotest.to_alcotest

let suite =
  ( "nnir",
    [
      Alcotest.test_case "graph validation" `Quick test_validation;
      Alcotest.test_case "topological sort" `Quick test_topo_sort;
      Alcotest.test_case "accessors" `Quick test_accessors;
      Alcotest.test_case "shapes: matmul/gemm" `Quick test_shapes_matmul_gemm;
      Alcotest.test_case "shapes: conv/pool" `Quick test_shapes_conv_pool;
      Alcotest.test_case "shapes: reshape/transpose/concat" `Quick test_shapes_reshape_transpose;
      Alcotest.test_case "shapes: misc" `Quick test_shapes_misc;
      Alcotest.test_case "whole-graph inference" `Quick test_infer_whole_graph;
      Alcotest.test_case "builder fresh names" `Quick test_builder_fresh_names;
      Alcotest.test_case "builder mlp" `Quick test_builder_graph;
      Alcotest.test_case "text round-trip on models" `Quick test_text_roundtrip_models;
      Alcotest.test_case "text parse errors" `Quick test_text_parse_errors;
      qtest prop_text_roundtrip_random;
      Alcotest.test_case "exec mlp vs manual" `Quick test_exec_mlp;
      Alcotest.test_case "exec missing input" `Quick test_exec_missing_input;
      Alcotest.test_case "exec valueless weights" `Quick test_exec_missing_weights;
      Alcotest.test_case "tiny transformer shapes" `Quick test_exec_tiny_transformer_shapes;
    ] )
