(* Tests for the simulator: the per-array state machine's legality checks,
   functional simulation against the float reference (the §5.1
   PyTorch-comparison step), and timing-simulator consistency with the
   compiler's own cost roll-up. *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Mode = Cim_arch.Mode
module Flow = Cim_metaop.Flow
module Machine = Cim_sim.Machine
module Functional = Cim_sim.Functional
module Timing = Cim_sim.Timing
module Cmswitch = Cim_compiler.Cmswitch
module Plan = Cim_compiler.Plan
module Tensor = Cim_tensor.Tensor
module Shape = Cim_tensor.Shape
module Rng = Cim_util.Rng

let chip = Config.dynaplasia
let c x y = { Chip.x; y }

(* --- machine --- *)

let test_machine_switching () =
  let m = Machine.create chip () in
  Alcotest.(check bool) "starts in memory mode" true (Machine.mode m (c 0 0) = Mode.Memory);
  Machine.switch m Mode.To_compute (c 0 0);
  Alcotest.(check bool) "switched" true (Machine.mode m (c 0 0) = Mode.Compute);
  (match Machine.switch m Mode.To_compute (c 0 0) with
  | exception Machine.Fault _ -> ()
  | () -> Alcotest.fail "redundant switch must fault");
  Alcotest.(check (pair int int)) "switch counts" (1, 0) (Machine.switch_counts m)

let test_machine_weights_and_data () =
  let m = Machine.create chip () in
  (* weights into a memory-mode array: fault *)
  (match Machine.write_weights m (c 1 0) ~node_id:0 ~lo:0 ~hi:4 with
  | exception Machine.Fault _ -> ()
  | () -> Alcotest.fail "weight write in memory mode must fault");
  Machine.switch m Mode.To_compute (c 1 0);
  Machine.write_weights m (c 1 0) ~node_id:0 ~lo:0 ~hi:4;
  Machine.check_compute m (c 1 0) ~node_id:0;
  (* wrong node's weights *)
  (match Machine.check_compute m (c 1 0) ~node_id:9 with
  | exception Machine.Fault _ -> ()
  | () -> Alcotest.fail "stale weights must fault");
  (* data staging needs memory mode *)
  (match Machine.stage_data m (c 1 0) "x" with
  | exception Machine.Fault _ -> ()
  | () -> Alcotest.fail "stage into compute array must fault");
  Machine.stage_data m (c 2 0) "x";
  Machine.check_memory m (c 2 0);
  (* switching away drops staged data but keeps weights *)
  Machine.switch m Mode.To_compute (c 2 0);
  Alcotest.(check bool) "data cleared" true (Machine.content m (c 2 0) = Machine.Empty);
  Machine.switch m Mode.To_memory (c 1 0);
  Alcotest.(check bool) "weights survive" true
    (match Machine.content m (c 1 0) with Machine.Weights _ -> true | _ -> false)

(* --- functional simulation of compiled models --- *)

let functional_check ?(tol = 0.05) name graph inputs =
  let r = Cmswitch.compile chip graph in
  Alcotest.(check bool) (name ^ " flow valid") true
    (Flow.validate chip r.Cmswitch.program = Ok ());
  let rep = Functional.run chip graph r.Cmswitch.program ~inputs in
  Alcotest.(check bool)
    (Printf.sprintf "%s matches reference (rel err %.4f)" name
       rep.Functional.max_rel_err)
    true
    (rep.Functional.max_rel_err < tol);
  rep

let test_functional_mlp () =
  let rng = Rng.create 21 in
  let g = Cim_models.Mlp.build ~rng ~batch:2 ~dims:[ 64; 128; 32 ] () in
  let x = Tensor.rand rng (Shape.of_list [ 2; 64 ]) ~lo:(-1.) ~hi:1. in
  let rep = functional_check "mlp" g [ ("x", x) ] in
  Alcotest.(check bool) "computed both gemms" true (rep.Functional.compute_instrs >= 2)

let test_functional_cnn () =
  let rng = Rng.create 22 in
  let g = Cim_models.Cnn.tiny_cnn ~rng ~batch:2 () in
  let x = Tensor.rand rng (Shape.of_list [ 2; 2; 8; 8 ]) ~lo:(-1.) ~hi:1. in
  ignore (functional_check "tiny-cnn" g [ ("image", x) ])

(* grouped and depthwise convolutions: the partitioner slices a grouped
   conv's output in per-group columns (oc / groups), so the simulator must
   view the channel axis as [groups; oc / groups] when it publishes slices
   and checks their coverage *)
let test_functional_grouped_conv () =
  let module B = Cim_nnir.Builder in
  let rng = Rng.create 27 in
  let b = B.create "grouped" in
  let x = B.input b "x" (Shape.of_list [ 2; 4; 6; 6 ]) in
  let conv x ~in_c ~out_c ~groups ~prefix =
    let wshape = Shape.of_list [ out_c; in_c / groups; 3; 3 ] in
    let value = Tensor.rand rng wshape ~lo:(-0.3) ~hi:0.3 in
    B.conv ~name:prefix b x (B.weight ~value b (prefix ^ "_w") wshape) ~stride:1
      ~pad:1 ~groups ()
  in
  let h = B.relu b (conv x ~in_c:4 ~out_c:8 ~groups:2 ~prefix:"grouped") in
  let y = conv h ~in_c:8 ~out_c:8 ~groups:8 ~prefix:"depthwise" in
  let g = B.finish b ~outputs:[ y ] in
  let x = Tensor.rand rng (Shape.of_list [ 2; 4; 6; 6 ]) ~lo:(-1.) ~hi:1. in
  let rep = functional_check "grouped conv" g [ ("x", x) ] in
  Alcotest.(check int) "both convs computed" 2 rep.Functional.compute_instrs

(* hand-built attention block with weights, exercising dynamic matmuls,
   softmax interleaving and the per-head batched layout *)
let attention_graph rng ~seq ~d ~heads =
  let module B = Cim_nnir.Builder in
  let dh = d / heads in
  let b = B.create "attn" in
  let x = B.input b "x" (Shape.of_list [ seq; d ]) in
  let q = B.linear ~bias:false ~value_rng:rng b x ~in_dim:d ~out_dim:d ~prefix:"q" in
  let k = B.linear ~bias:false ~value_rng:rng b x ~in_dim:d ~out_dim:d ~prefix:"k" in
  let v = B.linear ~bias:false ~value_rng:rng b x ~in_dim:d ~out_dim:d ~prefix:"v" in
  let head y =
    let y = B.reshape b y [ seq; heads; dh ] in
    let y = B.transpose b y [ 1; 0; 2 ] in
    y
  in
  let q3 = head q and k3 = head k and v3 = head v in
  let kt = B.transpose b k3 [ 0; 2; 1 ] in
  let scores = B.matmul b q3 kt in
  let probs = B.softmax b scores in
  let ctx = B.matmul b probs v3 in
  let ctx = B.reshape b (B.transpose b ctx [ 1; 0; 2 ]) [ seq; d ] in
  let out = B.linear ~bias:false ~value_rng:rng b ctx ~in_dim:d ~out_dim:d ~prefix:"o" in
  B.finish b ~outputs:[ out ]

let test_functional_attention () =
  let rng = Rng.create 23 in
  let g = attention_graph rng ~seq:4 ~d:8 ~heads:2 in
  let x = Tensor.rand rng (Shape.of_list [ 4; 8 ]) ~lo:(-1.) ~hi:1. in
  (* attention chains several quantised matmuls; allow a looser budget *)
  ignore (functional_check ~tol:0.25 "attention" g [ ("x", x) ])

let test_functional_sliced_gemm () =
  (* a weight matrix wide enough to partition into several column slices:
     exercises the coverage tracking and slice assembly *)
  let rng = Rng.create 24 in
  let g = Cim_models.Mlp.build ~rng ~batch:1 ~dims:[ 32; 3000 ] () in
  let r = Cmswitch.compile chip g in
  let sliced =
    Array.length r.Cmswitch.ops > 1
    && Array.for_all (fun (o : Cim_compiler.Opinfo.t) -> o.Cim_compiler.Opinfo.node_id = 0)
         r.Cmswitch.ops
  in
  Alcotest.(check bool) "operator was partitioned" true sliced;
  let x = Tensor.rand rng (Shape.of_list [ 1; 32 ]) ~lo:(-1.) ~hi:1. in
  ignore (functional_check "sliced gemm" g [ ("x", x) ])

let test_functional_rejects_broken_program () =
  let rng = Rng.create 25 in
  let g = Cim_models.Mlp.build ~rng ~batch:1 ~dims:[ 8; 8 ] () in
  let r = Cmswitch.compile chip g in
  (* strip the switches: computing on memory-mode arrays must fault *)
  let broken =
    { r.Cmswitch.program with
      Flow.instrs =
        List.filter
          (function Flow.Switch _ -> false | _ -> true)
          r.Cmswitch.program.Flow.instrs }
  in
  let x = Tensor.rand rng (Shape.of_list [ 1; 8 ]) ~lo:(-1.) ~hi:1. in
  match Functional.run chip g broken ~inputs:[ ("x", x) ] with
  | exception Machine.Fault _ -> ()
  | exception Functional.Error _ -> ()
  | _ -> Alcotest.fail "expected a fault on the unswitched program"

let test_functional_missing_slice () =
  let rng = Rng.create 26 in
  let g = Cim_models.Mlp.build ~rng ~batch:1 ~dims:[ 32; 3000 ] () in
  let r = Cmswitch.compile chip g in
  (* drop one compute instruction: coverage check must complain *)
  let dropped = ref false in
  let rec drop (i : Flow.instr) =
    match i with
    | Flow.Parallel is ->
      [ Flow.Parallel
          (List.concat_map
             (fun x ->
               match x with
               | Flow.Compute _ when not !dropped ->
                 dropped := true;
                 []
               | other -> drop other)
             is) ]
    | other -> [ other ]
  in
  let broken =
    { r.Cmswitch.program with
      Flow.instrs = List.concat_map drop r.Cmswitch.program.Flow.instrs }
  in
  Alcotest.(check bool) "dropped one" true !dropped;
  let x = Tensor.rand rng (Shape.of_list [ 1; 32 ]) ~lo:(-1.) ~hi:1. in
  match Functional.run chip g broken ~inputs:[ ("x", x) ] with
  | exception Functional.Error _ -> ()
  | _ -> Alcotest.fail "expected a coverage error"

(* --- timing --- *)

let test_timing_matches_schedule () =
  List.iter
    (fun g ->
      let r = Cmswitch.compile chip g in
      let t = Timing.run chip r.Cmswitch.program in
      let sim = t.Timing.cycles.Timing.total in
      let total = r.Cmswitch.schedule.Plan.total_cycles in
      let wb = r.Cmswitch.schedule.Plan.writeback in
      let eps = 1e-6 *. Float.max 1. total in
      Alcotest.(check bool)
        (Printf.sprintf "timing (%g) ~ schedule (%g, wb estimate %g)" sim total wb)
        true
        (sim <= total +. eps && total <= sim +. wb +. eps);
      Alcotest.(check int) "segment count" (List.length r.Cmswitch.places)
        t.Timing.segments)
    [
      Cim_models.Mlp.build ~batch:1 ~dims:[ 512; 1024; 256 ] ();
      Cim_models.Cnn.tiny_cnn ~batch:1 ();
      Cim_models.Transformer.build_layer Cim_models.Transformer.bert_large
        (Cim_models.Workload.prefill ~batch:1 32)
        ~layer_index:0;
    ]

let test_timing_writeback_semantics () =
  (* a dirty store into memory arrays followed by a switch of those arrays
     must charge a write-back *)
  let p =
    { Flow.source = "wb";
      instrs =
        [
          Flow.Store
            { tensor = "t"; src = Flow.Buffer; dst = Flow.Mem_arrays [ c 0 0 ];
              bytes = 640 };
          Flow.Switch { target = Mode.To_compute; arrays = [ c 0 0 ] };
        ] }
  in
  let t = Timing.run chip p in
  Alcotest.(check (float 1e-9)) "flush charged" 10. t.Timing.cycles.Timing.writeback;
  (* clean load displaced -> free *)
  let p2 =
    { Flow.source = "clean";
      instrs =
        [
          Flow.Load
            { tensor = "t"; src = Flow.Main_memory; dst = Flow.Mem_arrays [ c 0 0 ];
              bytes = 640 };
          Flow.Switch { target = Mode.To_compute; arrays = [ c 0 0 ] };
        ] }
  in
  let t2 = Timing.run chip p2 in
  Alcotest.(check (float 0.)) "clean copy free" 0. t2.Timing.cycles.Timing.writeback

let test_timing_empty () =
  let t = Timing.run chip { Flow.source = "empty"; instrs = [] } in
  Alcotest.(check (float 0.)) "empty program" 0. t.Timing.cycles.Timing.total;
  Alcotest.(check (float 0.)) "no switch share" 0. t.Timing.switch_share

let suite =
  ( "sim",
    [
      Alcotest.test_case "machine switching" `Quick test_machine_switching;
      Alcotest.test_case "machine weights/data" `Quick test_machine_weights_and_data;
      Alcotest.test_case "functional: mlp" `Quick test_functional_mlp;
      Alcotest.test_case "functional: tiny cnn" `Quick test_functional_cnn;
      Alcotest.test_case "functional: attention" `Quick test_functional_attention;
      Alcotest.test_case "functional: sliced gemm" `Quick test_functional_sliced_gemm;
      Alcotest.test_case "functional: grouped conv" `Quick test_functional_grouped_conv;
      Alcotest.test_case "functional: faults on broken program" `Quick
        test_functional_rejects_broken_program;
      Alcotest.test_case "functional: missing slice detected" `Quick
        test_functional_missing_slice;
      Alcotest.test_case "timing = schedule" `Slow test_timing_matches_schedule;
      Alcotest.test_case "timing write-back semantics" `Quick test_timing_writeback_semantics;
      Alcotest.test_case "timing empty program" `Quick test_timing_empty;
    ] )
