(* Tests for the simulator: the per-array state machine's legality checks,
   functional simulation against the float reference (the §5.1
   PyTorch-comparison step), and timing-simulator consistency with the
   compiler's own cost roll-up. *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Mode = Cim_arch.Mode
module Faultmap = Cim_arch.Faultmap
module Flow = Cim_metaop.Flow
module Check = Cim_metaop.Check
module Machine = Cim_sim.Machine
module Functional = Cim_sim.Functional
module Timing = Cim_sim.Timing
module Cmswitch = Cim_compiler.Cmswitch
module Plan = Cim_compiler.Plan
module Tensor = Cim_tensor.Tensor
module Shape = Cim_tensor.Shape
module Rng = Cim_util.Rng
module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo

let chip = Config.dynaplasia
let c x y = { Chip.x; y }

(* --- machine --- *)

let sl = { Flow.lo = 0; hi = 4 }
let switch target cs = Flow.Switch { target; arrays = cs }

let write c node_id =
  Flow.Write_weights
    { label = "w"; node_id; arrays = [ c ]; slice = sl; bytes = 16; in_place = false }

let load ~src ~dst = Flow.Load { tensor = "in"; src; dst; bytes = 4 }
let store ~src ~dst = Flow.Store { tensor = "in"; src; dst; bytes = 4 }

let compute ?(mem = []) arrays node_id =
  Flow.Compute
    { label = "m"; node_id; arrays; mem_arrays = mem; inputs = [ "in" ]; output = "out";
      slice = sl; macs = 16.; ai = 1. }

let exec = Machine.exec

let expect_fault m what i =
  match exec m i with
  | exception Machine.Fault _ -> ()
  | () -> Alcotest.fail (what ^ " must fault")

let test_machine_switching () =
  let m = Machine.create chip () in
  Alcotest.(check bool) "starts in memory mode" true (Machine.mode m (c 0 0) = Mode.Memory);
  exec m (switch Mode.To_compute [ c 0 0 ]);
  Alcotest.(check bool) "switched" true (Machine.mode m (c 0 0) = Mode.Compute);
  expect_fault m "redundant switch" (switch Mode.To_compute [ c 0 0 ]);
  Alcotest.(check (pair int int)) "switch counts" (1, 0) (Machine.switch_counts m)

let test_machine_weights_and_data () =
  let m = Machine.create chip () in
  let at c = Flow.Mem_arrays [ c ] in
  expect_fault m "weight write in memory mode" (write (c 1 0) 0);
  exec m (switch Mode.To_compute [ c 1 0 ]);
  exec m (write (c 1 0) 0);
  exec m (compute [ c 1 0 ] 0);
  expect_fault m "compute with another node's weights" (compute [ c 1 0 ] 9);
  (* every array a load or store reads from or writes to needs memory mode *)
  expect_fault m "load into a compute array" (load ~src:Flow.Main_memory ~dst:(at (c 1 0)));
  expect_fault m "load from a compute array" (load ~src:(at (c 1 0)) ~dst:Flow.Buffer);
  expect_fault m "store into a compute array" (store ~src:Flow.Buffer ~dst:(at (c 1 0)));
  expect_fault m "store from a compute array" (store ~src:(at (c 1 0)) ~dst:Flow.Main_memory);
  expect_fault m "memory operand in a compute array" (compute ~mem:[ c 1 0 ] [ c 1 0 ] 0);
  exec m (load ~src:Flow.Main_memory ~dst:(at (c 2 0)));
  exec m (store ~src:(at (c 2 0)) ~dst:Flow.Main_memory);
  (* weights survive a switch and are lost when a load writes into the
     array: after a load and a TOC the array holds no weights *)
  exec m (switch Mode.To_compute [ c 2 0 ]);
  exec m (write (c 2 0) 5);
  exec m (switch Mode.To_memory [ c 2 0 ]);
  Alcotest.(check (option int)) "weights survive TOM" (Some 5) (Machine.weights m (c 2 0));
  exec m (load ~src:Flow.Main_memory ~dst:(at (c 2 0)));
  exec m (switch Mode.To_compute [ c 2 0 ]);
  Alcotest.(check (option int)) "load then TOC: no weights" None (Machine.weights m (c 2 0));
  expect_fault m "compute after the load" (compute [ c 2 0 ] 5);
  exec m (switch Mode.To_memory [ c 1 0 ]);
  Alcotest.(check (option int)) "weights survive" (Some 0) (Machine.weights m (c 1 0))

(* Random top-level programs on a chip of at most 3x3 arrays: switches,
   weight writes, loads, stores and computes over its arrays and three
   coordinates off the grid (x = grid_cols, x = -1, and the cell just past
   the last array), naming tensors the program never defines. With
   no fault map and with a dead-and-stuck one, Check's first diagnostic is
   at the instruction where Machine, driven through the instruction entry
   the functional simulator uses, first faults, and ends with the fault's
   text; Check finds nothing exactly when Machine runs every instruction. *)
let gen_agreement =
  let open QCheck.Gen in
  let* n_arrays = int_range 1 9 in
  let chip = Config.scaled Config.dynaplasia ~n_arrays in
  let coord =
    frequency
      [ (6, map (Chip.coord_of_index chip) (int_bound (n_arrays - 1)));
        (1, oneofl
              [ c chip.Chip.grid_cols 0; c (-1) 0;
                c (n_arrays mod chip.Chip.grid_cols) (n_arrays / chip.Chip.grid_cols) ]) ]
  in
  let coords = list_size (int_range 1 2) coord in
  let node = int_bound 1 in
  let loc =
    frequency
      [ (1, return Flow.Main_memory); (1, return Flow.Buffer);
        (2, map (fun cs -> Flow.Mem_arrays cs) coords) ]
  in
  let instr =
    frequency
      [ (3, map2 switch (oneofl [ Mode.To_compute; Mode.To_memory ]) coords);
        (2, map2 write coord node);
        (1, map2 (fun src dst -> load ~src ~dst) loc loc);
        (1, map2 (fun src dst -> store ~src ~dst) loc loc);
        (2, map3 (fun mem arrays node_id -> compute ~mem arrays node_id)
              (list_size (int_bound 1) coord) coords node) ]
  in
  let fault =
    frequency
      [ (4, return None); (2, return (Some Faultmap.Dead));
        (1, return (Some (Faultmap.Stuck_mode Mode.Memory)));
        (1, return (Some (Faultmap.Stuck_mode Mode.Compute))) ]
  in
  let* faults = list_repeat n_arrays fault in
  let+ instrs = list_size (int_range 1 12) instr in
  let fm =
    Faultmap.of_list chip
      (List.concat
         (List.mapi
            (fun i f -> Option.to_list (Option.map (fun f -> (Chip.coord_of_index chip i, f)) f))
            faults))
  in
  (chip, fm, { Flow.source = "agree"; instrs })

let machine_fault chip ?faults p =
  let m = Machine.create chip ?faults () in
  let rec go k = function
    | [] -> None
    | i :: rest -> (
      match Machine.exec m i with
      | () -> go (k + 1) rest
      | exception Machine.Fault v -> Some (k, v))
  in
  go 0 p.Flow.instrs

let prop_check_machine_agree =
  let print (chip, fm, p) =
    Format.asprintf "%s, %a@.%s" chip.Chip.name Faultmap.pp fm (Flow.to_string p)
  in
  let shrink (chip, fm, p) =
    QCheck.Iter.map
      (fun instrs -> (chip, fm, { p with Flow.instrs }))
      (QCheck.Shrink.list p.Flow.instrs)
  in
  QCheck.Test.make ~name:"check and machine agree" ~count:1000
    (QCheck.make ~print ~shrink gen_agreement)
    (fun (chip, fm, p) ->
      List.for_all
        (fun faults ->
          let check =
            match Check.run chip ?faults p with
            | [] -> None
            | d :: _ -> Some (d.Check.instr, d.Check.message)
          in
          match (check, machine_fault chip ?faults p) with
          | None, None -> true
          | Some (i, msg), Some (k, v) when i = k && String.ends_with ~suffix:(": " ^ v) msg ->
            true
          | _, machine ->
            let show = function None -> "runs" | Some (i, m) -> Printf.sprintf "%d: %s" i m in
            QCheck.Test.fail_reportf "faults %b: check %s, machine %s" (faults <> None)
              (show check) (show machine))
        [ None; Some fm ])

(* --- functional simulation of compiled models --- *)

let functional_check ?(tol = 0.05) name graph inputs =
  let r = Cmswitch.compile chip graph in
  Alcotest.(check bool) (name ^ " flow valid") true
    (Check.is_valid (Check.run chip r.Cmswitch.program));
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

(* A compute slice outside its node's output width, past it or overhanging
   it, is an Error naming the node and the slice, not an exception of the
   copy and not a silent clip. Check cannot reject it: it does not see the
   graph. *)
let test_functional_slice_outside_width () =
  let rng = Rng.create 22 in
  let g = Cim_models.Cnn.tiny_cnn ~rng ~batch:2 () in
  let x = Tensor.rand rng (Shape.of_list [ 2; 2; 8; 8 ]) ~lo:(-1.) ~hi:1. in
  let p = (Cmswitch.compile chip g).Cmswitch.program in
  let first = ref None in
  let rec move slice = function
    | Flow.Compute c when !first = None ->
      first := Some (c.node_id, c.slice);
      Flow.Compute { c with slice }
    | Flow.Parallel is -> Flow.Parallel (List.map (move slice) is)
    | i -> i
  in
  List.iter
    (fun (lo, hi) ->
      first := None;
      let moved = { p with Flow.instrs = List.map (move { Flow.lo; hi }) p.Flow.instrs } in
      Alcotest.(check (option (pair int (pair int int)))) "node 0's [0,4) moved"
        (Some (0, (0, 4)))
        (Option.map (fun (n, sl) -> (n, (sl.Flow.lo, sl.Flow.hi))) !first);
      Alcotest.(check bool) "Check accepts the move" true
        (Check.is_valid (Check.run chip moved));
      let want = Printf.sprintf "node 0: slice [%d,%d)" lo hi in
      match Functional.run chip g moved ~inputs:[ ("image", x) ] with
      | exception Functional.Error m ->
        Alcotest.(check bool) (m ^ " names " ^ want) true (String.starts_with ~prefix:want m)
      | exception e -> Alcotest.failf "[%d,%d) raised %s" lo hi (Printexc.to_string e)
      | _ -> Alcotest.failf "slice [%d,%d) accepted" lo hi)
    [ (5, 6); (0, 5); (0, 1000) ]

(* the entry check runs before the interpreter: a nested block is an
   Error *)
let test_functional_nested_block () =
  let rng = Rng.create 27 in
  let g = Cim_models.Mlp.build ~rng ~batch:1 ~dims:[ 8; 8 ] () in
  let p = { Flow.source = "nested"; instrs = [ Flow.Parallel [ Flow.Parallel [] ] ] } in
  let x = Tensor.rand rng (Shape.of_list [ 1; 8 ]) ~lo:(-1.) ~hi:1. in
  match Functional.run chip g p ~inputs:[ ("x", x) ] with
  | exception Functional.Error _ -> ()
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "nested block accepted"

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

(* Every number the simulators price for three DynaPlasia programs, as hex
   floats: the cycle breakdown, the energy breakdown and the EDP. A
   refactor of the pricing walk must leave each bit where it is. *)
let priced_pins =
  [ ( "resnet18", Workload.prefill ~batch:1 1,
      [ ("compute", "0x1.1b5ae071c62e2p+14"); ("switch", "0x1.1dp+8");
        ("rewrite", "0x1.65p+13"); ("writeback", "0x0p+0");
        ("total", "0x1.d24ee071c62e2p+14"); ("mac_uj", "0x1.224071b5240eap+5");
        ("operand_uj", "0x1.067a7f3cf7015p+7"); ("weight_uj", "0x1.75b9a5a89b952p+4");
        ("switch_uj", "0x1.758e219652bd4p-10"); ("static_uj", "0x1.7dffe626513f9p+0");
        ("total_uj", "0x1.80be8af2b0e55p+7"); ("edp_uj_ms", "0x1.6f6e30f370cb9p+2") ] );
    ( "llama2-7b", Workload.decode ~batch:1 64,
      [ ("compute", "0x1.19326c5f5e842p+17"); ("switch", "0x1.4p+8");
        ("rewrite", "0x1.017p+17"); ("writeback", "0x0p+0");
        ("total", "0x1.0da1362faf421p+18"); ("mac_uj", "0x1.03b8c7315764p+2");
        ("operand_uj", "0x1.1f1852f7f498cp+8"); ("weight_uj", "0x1.94c016052502fp+8");
        ("switch_uj", "0x1.a36e2eb1c432dp-10"); ("static_uj", "0x1.b9c2e823872e7p+3");
        ("total_uj", "0x1.62dae61b436fap+9"); ("edp_uj_ms", "0x1.87e73484758cfp+7") ] );
    ( "opt-13b", Workload.decode ~batch:1 2047,
      [ ("compute", "0x1.4864a3fb3d01dp+17"); ("switch", "0x1.ap+8");
        ("rewrite", "0x1.613p+18"); ("writeback", "0x0p+0");
        ("total", "0x1.02e528fecf407p+19"); ("mac_uj", "0x1.ad7f29abcaf3ep+2");
        ("operand_uj", "0x1.a5e137d955715p+14"); ("weight_uj", "0x1.3a92a30553261p+9");
        ("switch_uj", "0x1.10a137f38c543p-9"); ("static_uj", "0x1.a82c7fc99eed8p+4");
        ("total_uj", "0x1.b03ab2254f9edp+14"); ("edp_uj_ms", "0x1.ca59d27eb00cfp+13") ] ) ]

let test_priced_pins () =
  List.iter
    (fun (key, w, want) ->
      let e = Option.get (Zoo.find key) in
      let g = match e.Zoo.family with Zoo.Cnn -> e.Zoo.build w | _ -> (Option.get e.Zoo.layer) w in
      let p = (Cmswitch.compile chip g).Cmswitch.program in
      let t = Timing.run chip p in
      let c = t.Timing.cycles and b = t.Timing.energy in
      let got =
        [ ("compute", c.Timing.compute); ("switch", c.Timing.switch);
          ("rewrite", c.Timing.rewrite); ("writeback", c.Timing.writeback);
          ("total", c.Timing.total); ("mac_uj", b.Timing.mac_uj);
          ("operand_uj", b.Timing.operand_uj); ("weight_uj", b.Timing.weight_uj);
          ("switch_uj", b.Timing.switch_uj); ("static_uj", b.Timing.static_uj);
          ("total_uj", b.Timing.total_uj); ("edp_uj_ms", t.Timing.edp_uj_ms) ]
      in
      Alcotest.(check (list (pair string string)))
        key want
        (List.map (fun (n, v) -> (n, Printf.sprintf "%h" v)) got))
    priced_pins

let suite =
  ( "sim",
    [
      Alcotest.test_case "machine switching" `Quick test_machine_switching;
      Alcotest.test_case "machine weights/data" `Quick test_machine_weights_and_data;
      QCheck_alcotest.to_alcotest prop_check_machine_agree;
      Alcotest.test_case "functional: mlp" `Quick test_functional_mlp;
      Alcotest.test_case "functional: tiny cnn" `Quick test_functional_cnn;
      Alcotest.test_case "functional: attention" `Quick test_functional_attention;
      Alcotest.test_case "functional: sliced gemm" `Quick test_functional_sliced_gemm;
      Alcotest.test_case "functional: grouped conv" `Quick test_functional_grouped_conv;
      Alcotest.test_case "functional: faults on broken program" `Quick
        test_functional_rejects_broken_program;
      Alcotest.test_case "functional: missing slice detected" `Quick
        test_functional_missing_slice;
      Alcotest.test_case "functional: slice outside its output width" `Quick
        test_functional_slice_outside_width;
      Alcotest.test_case "functional: nested block is an Error" `Quick
        test_functional_nested_block;
      Alcotest.test_case "timing = schedule" `Slow test_timing_matches_schedule;
      Alcotest.test_case "timing write-back semantics" `Quick test_timing_writeback_semantics;
      Alcotest.test_case "timing empty program" `Quick test_timing_empty;
      Alcotest.test_case "priced cycles and energy pinned" `Quick test_priced_pins;
    ] )
