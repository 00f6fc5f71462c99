(* Tests for the fault-injection and graceful-degradation subsystem: the
   fault map, compiling around dead arrays, the MILP -> incumbent -> greedy
   -> serial fallback ladder, transient-switch retries in the machine, the
   static flow validator, and deadline-aware serving. *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Mode = Cim_arch.Mode
module Faultmap = Cim_arch.Faultmap
module Flow = Cim_metaop.Flow
module Check = Cim_metaop.Check
module Alloc = Cim_compiler.Alloc
module Segment = Cim_compiler.Segment
module Degrade = Cim_compiler.Degrade
module Cmswitch = Cim_compiler.Cmswitch
module Plan = Cim_compiler.Plan
module Machine = Cim_sim.Machine
module Functional = Cim_sim.Functional
module Timing = Cim_sim.Timing
module Serving = Cim_sim.Serving
module Fleet = Cim_sim.Fleet
module Scenario = Cim_serve.Scenario
module Tensor = Cim_tensor.Tensor
module Shape = Cim_tensor.Shape
module Rng = Cim_util.Rng

let chip = Config.dynaplasia
let c x y = { Chip.x; y }
let with_faults fm = Cmswitch.Config.(with_faults (Some fm) default)

(* substring test for fault-message assertions (Str is not linked here) *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- fault map --- *)

let test_faultmap_inject () =
  let fm = Faultmap.inject chip ~seed:42 ~dead_rate:0.1 () in
  let fm' = Faultmap.inject chip ~seed:42 ~dead_rate:0.1 () in
  Alcotest.(check bool) "deterministic in the seed" true
    (Faultmap.faults fm = Faultmap.faults fm');
  let dead = chip.Chip.n_arrays - Faultmap.healthy_count fm in
  Alcotest.(check bool) "some arrays died at 10%" true (dead > 0);
  Alcotest.(check bool) "not all arrays died at 10%" true
    (dead < chip.Chip.n_arrays / 2);
  Alcotest.(check int) "dead-only: healthy = flexible"
    (Faultmap.healthy_count fm) (Faultmap.flexible_count fm);
  Alcotest.(check int) "fault count consistent" dead (Faultmap.fault_count fm);
  let eff = Faultmap.effective_chip fm in
  Alcotest.(check int) "effective capacity = flexible pool"
    (Faultmap.flexible_count fm) eff.Chip.n_arrays

let test_faultmap_states () =
  let fm =
    Faultmap.of_list chip
      [ (c 0 0, Faultmap.Dead);
        (c 1 0, Faultmap.Stuck_mode Mode.Compute);
        (c 2 0, Faultmap.Transient_switch_failure 0.25) ]
  in
  Alcotest.(check bool) "dead" true (Faultmap.is_dead fm 0);
  Alcotest.(check bool) "dead unusable either way" false
    (Faultmap.usable fm 0 ~target:Mode.Memory
    || Faultmap.usable fm 0 ~target:Mode.Compute);
  Alcotest.(check bool) "stuck serves its mode" true
    (Faultmap.usable fm 1 ~target:Mode.Compute);
  Alcotest.(check bool) "stuck refuses the other mode" false
    (Faultmap.usable fm 1 ~target:Mode.Memory);
  Alcotest.(check bool) "stuck is not switchable" false (Faultmap.switchable fm 1);
  Alcotest.(check bool) "transient stays usable and switchable" true
    (Faultmap.usable fm 2 ~target:Mode.Compute && Faultmap.switchable fm 2);
  Alcotest.(check (float 1e-9)) "transient probability" 0.25
    (Faultmap.transient_prob fm 2);
  Alcotest.(check int) "flexible excludes dead and stuck"
    (chip.Chip.n_arrays - 2) (Faultmap.flexible_count fm);
  (* rates out of range / probability out of range *)
  (match Faultmap.inject chip ~seed:0 ~dead_rate:0.9 ~stuck_rate:0.9 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rates summing past 1 must be rejected");
  match Faultmap.of_list chip [ (c 0 0, Faultmap.Transient_switch_failure 1.5) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "transient probability past 1 must be rejected"

(* --- compiling around dead arrays (the tentpole acceptance case) --- *)

let dead_coords fm =
  List.filter_map
    (fun (coord, f) -> if f = Faultmap.Dead then Some coord else None)
    (Faultmap.faults fm)

let assert_no_dead_placement name fm (r : Cmswitch.result) =
  let dead = dead_coords fm in
  List.iter
    (fun (sp : Cim_compiler.Placement.seg_place) ->
      List.iter
        (fun (op : Cim_compiler.Placement.op_place) ->
          List.iter
            (fun coord ->
              if List.mem coord dead then
                Alcotest.failf "%s: dead array (%d,%d) was placed" name
                  coord.Chip.x coord.Chip.y)
            (op.Cim_compiler.Placement.compute
            @ op.Cim_compiler.Placement.mem_in
            @ op.Cim_compiler.Placement.mem_out))
        sp.Cim_compiler.Placement.ops)
    r.Cmswitch.places

(* compile with ~10% dead arrays, validate the flow, and diff the degraded
   plan's int8 execution against the float reference *)
let degraded_functional_check ?(tol = 0.05) name graph inputs =
  let fm = Faultmap.inject chip ~seed:42 ~dead_rate:0.1 () in
  let r = Cmswitch.compile ~config:(with_faults fm) chip graph in
  Alcotest.(check bool) (name ^ " passes the flow validator") true
    (Check.is_valid (Check.run chip ~faults:fm r.Cmswitch.program));
  Alcotest.(check bool) (name ^ " report says degraded") true
    (Degrade.degraded r.Cmswitch.degradation);
  Alcotest.(check int) (name ^ " healthy pool recorded")
    (Faultmap.flexible_count fm)
    r.Cmswitch.degradation.Degrade.healthy_arrays;
  Alcotest.(check bool) (name ^ " no validator diagnostics") true
    (r.Cmswitch.degradation.Degrade.diagnostics = []);
  assert_no_dead_placement name fm r;
  let rep = Functional.run chip ~faults:fm graph r.Cmswitch.program ~inputs in
  Alcotest.(check bool)
    (Printf.sprintf "%s matches reference under faults (rel err %.4f)" name
       rep.Functional.max_rel_err)
    true
    (rep.Functional.max_rel_err < tol)

let test_degraded_mlp () =
  let rng = Rng.create 31 in
  let g = Cim_models.Mlp.build ~rng ~batch:2 ~dims:[ 64; 128; 32 ] () in
  let x = Tensor.rand rng (Shape.of_list [ 2; 64 ]) ~lo:(-1.) ~hi:1. in
  degraded_functional_check "mlp" g [ ("x", x) ]

let test_degraded_cnn () =
  let rng = Rng.create 32 in
  let g = Cim_models.Cnn.tiny_cnn ~rng ~batch:2 () in
  let x = Tensor.rand rng (Shape.of_list [ 2; 2; 8; 8 ]) ~lo:(-1.) ~hi:1. in
  degraded_functional_check "tiny-cnn" g [ ("image", x) ]

let attention_graph rng ~seq ~d ~heads =
  let module B = Cim_nnir.Builder in
  let dh = d / heads in
  let b = B.create "attn" in
  let x = B.input b "x" (Shape.of_list [ seq; d ]) in
  let q = B.linear ~bias:false ~value_rng:rng b x ~in_dim:d ~out_dim:d ~prefix:"q" in
  let k = B.linear ~bias:false ~value_rng:rng b x ~in_dim:d ~out_dim:d ~prefix:"k" in
  let v = B.linear ~bias:false ~value_rng:rng b x ~in_dim:d ~out_dim:d ~prefix:"v" in
  let head y = B.transpose b (B.reshape b y [ seq; heads; dh ]) [ 1; 0; 2 ] in
  let q3 = head q and k3 = head k and v3 = head v in
  let scores = B.matmul b q3 (B.transpose b k3 [ 0; 2; 1 ]) in
  let ctx = B.matmul b (B.softmax b scores) v3 in
  let ctx = B.reshape b (B.transpose b ctx [ 1; 0; 2 ]) [ seq; d ] in
  let out = B.linear ~bias:false ~value_rng:rng b ctx ~in_dim:d ~out_dim:d ~prefix:"o" in
  B.finish b ~outputs:[ out ]

let test_degraded_attention () =
  let rng = Rng.create 33 in
  let g = attention_graph rng ~seq:4 ~d:8 ~heads:2 in
  let x = Tensor.rand rng (Shape.of_list [ 4; 8 ]) ~lo:(-1.) ~hi:1. in
  degraded_functional_check ~tol:0.25 "attention" g [ ("x", x) ]

let test_degraded_stuck_arrays () =
  (* stuck arrays shrink the flexible pool but stay placeable in their own
     mode; the validator must accept the result *)
  let fm =
    Faultmap.of_list chip
      [ (c 0 0, Faultmap.Stuck_mode Mode.Memory);
        (c 1 0, Faultmap.Stuck_mode Mode.Compute);
        (c 2 0, Faultmap.Dead) ]
  in
  let rng = Rng.create 34 in
  let g = Cim_models.Mlp.build ~rng ~batch:1 ~dims:[ 64; 128; 32 ] () in
  let r = Cmswitch.compile ~config:(with_faults fm) chip g in
  Alcotest.(check bool) "validator accepts stuck placement" true
    (Check.is_valid (Check.run chip ~faults:fm r.Cmswitch.program));
  let x = Tensor.rand rng (Shape.of_list [ 1; 64 ]) ~lo:(-1.) ~hi:1. in
  let rep = Functional.run chip ~faults:fm g r.Cmswitch.program ~inputs:[ ("x", x) ] in
  Alcotest.(check bool) "machine accepts stuck placement" true
    (rep.Functional.max_rel_err < 0.05)

(* --- degradation ladder --- *)

let mlp_graph () = Cim_models.Mlp.build ~batch:1 ~dims:[ 512; 1024; 256 ] ()
let small_mlp () = Cim_models.Mlp.build ~batch:1 ~dims:[ 64; 128; 32 ] ()

let config_with_max_nodes n = Cmswitch.Config.(with_milp_max_nodes n default)

let test_node_limit_incumbent_plan () =
  (* max_nodes = 1: the MIP truncates at the root; the pipeline must still
     produce a plan plus a non-empty degradation report, not an exception *)
  let r = Cmswitch.compile ~config:(config_with_max_nodes 1) chip (mlp_graph ()) in
  Alcotest.(check bool) "schedule produced" true
    (r.Cmswitch.schedule.Plan.total_cycles > 0.);
  Alcotest.(check bool) "degradation events recorded" true
    (r.Cmswitch.degradation.Degrade.events <> []);
  Alcotest.(check bool) "report counts as degraded" true
    (Degrade.degraded r.Cmswitch.degradation);
  List.iter
    (fun (e : Degrade.event) ->
      Alcotest.(check bool) "stage is a solver fallback" true
        (e.Degrade.stage = Degrade.Milp_incumbent
        || e.Degrade.stage = Degrade.Greedy_fallback))
    r.Cmswitch.degradation.Degrade.events

let test_zero_budget_greedy_fallback () =
  (* max_nodes = 0: the search truncates before even the root solves, so
     there is never an incumbent and every window lands on greedy *)
  let r = Cmswitch.compile ~config:(config_with_max_nodes 0) chip (mlp_graph ()) in
  Alcotest.(check bool) "schedule produced" true
    (r.Cmswitch.schedule.Plan.total_cycles > 0.);
  Alcotest.(check bool) "events recorded" true
    (r.Cmswitch.degradation.Degrade.events <> []);
  List.iter
    (fun (e : Degrade.event) ->
      Alcotest.(check bool) "pure greedy ladder" true
        (e.Degrade.stage = Degrade.Greedy_fallback))
    r.Cmswitch.degradation.Degrade.events;
  (* the degraded program must still be structurally sound *)
  Alcotest.(check bool) "flow still validates" true
    (Check.is_valid (Check.run chip r.Cmswitch.program))

let test_alloc_outcome_classification () =
  let ops =
    Cim_compiler.Opinfo.extract chip ~partition_fraction:0.5 (small_mlp ())
  in
  let hi = Array.length ops - 1 in
  (match Alloc.solve_outcome chip ops ~lo:0 ~hi with
  | Alloc.Optimal plan ->
    Alcotest.(check bool) "optimal plan honours the contract" true
      (Alloc.plan_feasible chip ops plan)
  | _ -> Alcotest.fail "default budget must prove optimality");
  match
    Alloc.solve_outcome
      ~options:
        (Cmswitch.Config.to_alloc_options
           (Cmswitch.Config.with_milp_max_nodes 0 Cmswitch.Config.default))
      chip ops ~lo:0 ~hi
  with
  | Alloc.Truncated_no_incumbent -> ()
  | Alloc.Optimal _ | Alloc.Incumbent _ -> Alcotest.fail "zero budget cannot solve"
  | Alloc.Infeasible -> Alcotest.fail "segment is feasible"

let test_degrade_solve_unit () =
  let ops =
    Cim_compiler.Opinfo.extract chip ~partition_fraction:0.5 (small_mlp ())
  in
  let hi = Array.length ops - 1 in
  let stages = ref [] in
  let plan =
    Degrade.solve
      ~options:
        (Cmswitch.Config.to_alloc_options
           (Cmswitch.Config.with_milp_max_nodes 0 Cmswitch.Config.default))
      ~on_stage:(fun e -> stages := e.Degrade.stage :: !stages)
      chip ops ~lo:0 ~hi
  in
  Alcotest.(check bool) "greedy plan returned" true (plan <> None);
  Alcotest.(check bool) "greedy stage fired" true
    (List.mem Degrade.Greedy_fallback !stages);
  (* a clean solve fires no stage events *)
  stages := [];
  ignore
    (Degrade.solve ~on_stage:(fun e -> stages := e.Degrade.stage :: !stages)
       chip ops ~lo:0 ~hi);
  Alcotest.(check bool) "optimal solve is silent" true (!stages = [])

let test_compile_robust_ok () =
  match Cmswitch.compile_robust chip (small_mlp ()) with
  | Ok r ->
    Alcotest.(check bool) "clean compile not degraded" false
      (Degrade.degraded r.Cmswitch.degradation)
  | Error _ -> Alcotest.fail "healthy compile must succeed"

let test_compile_robust_total_failure () =
  (* every array dead: nothing to compile onto; compile_robust must hand
     back a structured report instead of raising *)
  let all_dead =
    Faultmap.of_list chip
      (List.init chip.Chip.n_arrays (fun i ->
           (Chip.coord_of_index chip i, Faultmap.Dead)))
  in
  match
    Cmswitch.compile_robust ~config:(with_faults all_dead) chip (small_mlp ())
  with
  | Ok _ -> Alcotest.fail "an all-dead chip cannot compile"
  | Error report ->
    Alcotest.(check int) "no healthy arrays" 0 report.Degrade.healthy_arrays;
    Alcotest.(check bool) "diagnostics explain the failure" true
      (report.Degrade.diagnostics <> [])

(* [4;8] x [16;4]: shape inference rejects the graph inside extraction, at
   every ladder level and in the serial step alike *)
let mismatched_matmul () =
  Cim_nnir.Graph.create ~name:"mismatched_matmul"
    ~inputs:[ ("a", Shape.of_list [ 4; 8 ]); ("b", Shape.of_list [ 16; 4 ]) ]
    ~nodes:
      [ { Cim_nnir.Graph.id = 0; name = "mm"; op = Cim_nnir.Op.Mat_mul;
          inputs = [ "a"; "b" ]; outputs = [ "y" ]; attrs = [] } ]
    ~outputs:[ "y" ] ~initializers:[]

let test_rejected_graph_is_error () =
  let expect_error what = function
    | Ok _ -> Alcotest.failf "%s accepted a mismatched MatMul" what
    | Error report ->
      Alcotest.(check bool) (what ^ " explains the failure") true
        (report.Degrade.diagnostics <> [])
  in
  let g = mismatched_matmul () in
  expect_error "compile_robust" (Cmswitch.compile_robust chip g);
  expect_error "recompile" (Cmswitch.recompile chip g)

(* --- machine under faults --- *)

let test_machine_dead_and_stuck_messages () =
  let fm =
    Faultmap.of_list chip
      [ (c 0 0, Faultmap.Dead); (c 1 0, Faultmap.Stuck_mode Mode.Memory) ]
  in
  let m = Machine.create chip ~faults:fm () in
  (match Machine.switch m Mode.To_compute (c 0 0) with
  | exception Machine.Fault msg ->
    Alcotest.(check bool) "dead message names coordinate and state" true
      (contains msg "(0,0)" && contains msg "dead")
  | () -> Alcotest.fail "switching a dead array must fault");
  (match Machine.switch m Mode.To_compute (c 1 0) with
  | exception Machine.Fault msg ->
    Alcotest.(check bool)
      "stuck message names coordinate, stuck mode and attempted transition"
      true
      (contains msg "(1,0)" && contains msg "stuck" && contains msg "memory"
      && contains msg "compute")
  | () -> Alcotest.fail "switching a stuck array must fault");
  match Machine.switch m Mode.To_memory (c 2 0) with
  | exception Machine.Fault msg ->
    Alcotest.(check bool) "redundant message names mode and transition" true
      (contains msg "(2,0)" && contains msg "already" && contains msg "memory")
  | () -> Alcotest.fail "redundant switch must fault"

let test_machine_transient_retries () =
  let coords = List.init 20 (Chip.coord_of_index chip) in
  let fm =
    Faultmap.of_list chip
      (List.map (fun co -> (co, Faultmap.Transient_switch_failure 0.5)) coords)
  in
  let m =
    Machine.create chip ~faults:fm ~rng:(Rng.create 7) ~max_switch_retries:100 ()
  in
  List.iter (Machine.switch m Mode.To_compute) coords;
  List.iter
    (fun co ->
      Alcotest.(check bool) "switched despite transient failures" true
        (Machine.mode m co = Mode.Compute))
    coords;
  Alcotest.(check bool) "failed attempts were counted" true
    (Machine.switch_retries m > 0);
  (* a zero-retry budget on a high-failure array eventually faults *)
  let fm1 = Faultmap.of_list chip [ (c 0 0, Faultmap.Transient_switch_failure 0.9) ] in
  let attempts_that_fault =
    let found = ref false in
    for seed = 0 to 9 do
      if not !found then begin
        let m1 =
          Machine.create chip ~faults:fm1 ~rng:(Rng.create seed)
            ~max_switch_retries:0 ()
        in
        match Machine.switch m1 Mode.To_compute (c 0 0) with
        | exception Machine.Fault _ ->
          found := true;
          (* the circuit never switched *)
          Alcotest.(check bool) "failed switch keeps the mode" true
            (Machine.mode m1 (c 0 0) = Mode.Memory);
          Alcotest.(check (pair int int)) "failed switch is not counted" (0, 0)
            (Machine.switch_counts m1)
        | () -> ()
      end
    done;
    !found
  in
  Alcotest.(check bool) "retry budget exhaustion faults" true attempts_that_fault

let test_timing_charges_retries () =
  let coords = List.init 20 (Chip.coord_of_index chip) in
  let fm =
    Faultmap.of_list chip
      (List.map (fun co -> (co, Faultmap.Transient_switch_failure 0.5)) coords)
  in
  let p =
    { Flow.source = "retries";
      instrs = [ Flow.Switch { target = Mode.To_compute; arrays = coords } ] }
  in
  let clean = Timing.run chip p in
  let faulty = Timing.run chip ~faults:fm ~rng:(Rng.create 7) ~max_switch_retries:100 p in
  Alcotest.(check int) "clean run retries nothing" 0 clean.Timing.switch_retries;
  Alcotest.(check bool) "retries counted" true (faulty.Timing.switch_retries > 0);
  Alcotest.(check bool) "retries cost cycles" true
    (faulty.Timing.cycles.Timing.switch > clean.Timing.cycles.Timing.switch);
  (* a failed attempt costs one array switch's energy, like a switch *)
  let switch_uj attempts =
    faulty.Timing.profile.Cim_arch.Energy.switch_pj *. float_of_int attempts /. 1e6
  in
  Alcotest.(check (float 0.)) "clean switch energy: one per array"
    (switch_uj (List.length coords)) clean.Timing.energy.Timing.switch_uj;
  Alcotest.(check (float 1e-15)) "retries cost switch energy"
    (switch_uj (List.length coords + faulty.Timing.switch_retries))
    faulty.Timing.energy.Timing.switch_uj

(* the timing simulator prices exactly the retries the machine performs:
   both take their draws from Machine.retry_draws in switch order *)
let test_timing_retries_match_machine () =
  let fm =
    Faultmap.of_list chip
      (List.init chip.Chip.n_arrays (fun i ->
           (Chip.coord_of_index chip i, Faultmap.Transient_switch_failure 0.6)))
  in
  let rng = Rng.create 35 in
  let g = Cim_models.Mlp.build ~rng ~batch:1 ~dims:[ 64; 128; 32 ] () in
  let r = Cmswitch.compile chip g in
  let x = Tensor.rand rng (Shape.of_list [ 1; 64 ]) ~lo:(-1.) ~hi:1. in
  let rep =
    Functional.run chip ~faults:fm ~rng:(Rng.create 7) ~max_switch_retries:100 g
      r.Cmswitch.program ~inputs:[ ("x", x) ]
  in
  let t =
    Timing.run chip ~faults:fm ~rng:(Rng.create 7) ~max_switch_retries:100
      r.Cmswitch.program
  in
  Alcotest.(check bool) "some switches retried" true (rep.Functional.switch_retries > 0);
  Alcotest.(check int) "timing retries = machine retries"
    rep.Functional.switch_retries t.Timing.switch_retries

(* --- static flow validator --- *)

let test_check_catches_missing_weights () =
  let p =
    { Flow.source = "bad";
      instrs =
        [ Flow.Switch { target = Mode.To_compute; arrays = [ c 0 0 ] };
          Flow.Compute
            { label = "m"; node_id = 0; arrays = [ c 0 0 ]; mem_arrays = [];
              inputs = [ "x" ]; output = "y"; slice = { Flow.lo = 0; hi = 4 };
              macs = 16.; ai = 1. } ] }
  in
  let ds = Check.run chip p in
  Alcotest.(check bool) "weight residency violation found" false (Check.is_valid ds)

let test_check_catches_mode_misuse () =
  let p =
    { Flow.source = "bad";
      instrs =
        [ Flow.Compute
            { label = "m"; node_id = 0; arrays = [ c 0 0 ]; mem_arrays = [];
              inputs = [ "x" ]; output = "y"; slice = { Flow.lo = 0; hi = 4 };
              macs = 16.; ai = 1. } ] }
  in
  Alcotest.(check bool) "compute in memory mode rejected" false
    (Check.is_valid (Check.run chip p));
  let p2 =
    { Flow.source = "bad2";
      instrs =
        [ Flow.Load
            { tensor = "t"; src = Flow.Main_memory; dst = Flow.Mem_arrays [ c 0 0 ];
              bytes = 64 };
          Flow.Switch { target = Mode.To_compute; arrays = [ c 0 0 ] };
          Flow.Store
            { tensor = "t"; src = Flow.Mem_arrays [ c 0 0 ]; dst = Flow.Main_memory;
              bytes = 64 } ] }
  in
  Alcotest.(check bool) "store from compute-mode array rejected" false
    (Check.is_valid (Check.run chip p2))

let test_check_catches_use_before_def () =
  let p =
    { Flow.source = "bad";
      instrs =
        [ Flow.Vector_op { label = "v"; node_id = 1; inputs = [ "y" ]; output = "z" };
          Flow.Switch { target = Mode.To_compute; arrays = [ c 0 0 ] };
          Flow.Write_weights
            { label = "m"; node_id = 0; arrays = [ c 0 0 ];
              slice = { Flow.lo = 0; hi = 4 }; bytes = 64; in_place = false };
          Flow.Compute
            { label = "m"; node_id = 0; arrays = [ c 0 0 ]; mem_arrays = [];
              inputs = [ "x" ]; output = "y"; slice = { Flow.lo = 0; hi = 4 };
              macs = 16.; ai = 1. } ] }
  in
  let ds = Check.run chip p in
  Alcotest.(check bool) "use before def rejected" false (Check.is_valid ds);
  (* the same program with the vector op after the compute is clean *)
  let good = { p with Flow.instrs = List.tl p.Flow.instrs @ [ List.hd p.Flow.instrs ] } in
  Alcotest.(check bool) "reordered program clean" true
    (Check.is_valid (Check.run chip good))

let test_check_faults () =
  let fm =
    Faultmap.of_list chip
      [ (c 0 0, Faultmap.Dead); (c 1 0, Faultmap.Stuck_mode Mode.Memory) ]
  in
  let switch_dead =
    { Flow.source = "dead";
      instrs = [ Flow.Switch { target = Mode.To_compute; arrays = [ c 0 0 ] } ] }
  in
  Alcotest.(check bool) "dead array use rejected" false
    (Check.is_valid (Check.run chip ~faults:fm switch_dead));
  let switch_stuck =
    { Flow.source = "stuck";
      instrs = [ Flow.Switch { target = Mode.To_compute; arrays = [ c 1 0 ] } ] }
  in
  Alcotest.(check bool) "stuck array switch rejected" false
    (Check.is_valid (Check.run chip ~faults:fm switch_stuck))

(* the exact text of one diagnostic per context kind: switch, write,
   load, store, compute and vector *)
let test_check_message_per_context () =
  let sl = { Flow.lo = 0; hi = 4 } in
  let p =
    { Flow.source = "contexts";
      instrs =
        [ Flow.Switch { target = Mode.To_compute; arrays = [ c 2 0; c 50 50 ] };
          Flow.Write_weights
            { label = "w"; node_id = 3; arrays = [ c 0 0 ]; slice = sl; bytes = 64;
              in_place = false };
          Flow.Load
            { tensor = "y"; src = Flow.Main_memory; dst = Flow.Mem_arrays [ c 1 0 ];
              bytes = 64 };
          Flow.Store
            { tensor = "x"; src = Flow.Mem_arrays [ c 2 0 ]; dst = Flow.Main_memory;
              bytes = 64 };
          Flow.Compute
            { label = "m"; node_id = 0; arrays = [ c 2 0 ]; mem_arrays = [];
              inputs = [ "x" ]; output = "y"; slice = sl; macs = 16.; ai = 1. };
          Flow.Vector_op { label = "v"; node_id = 1; inputs = [ "z" ]; output = "q" };
          Flow.Vector_op { label = "u"; node_id = 2; inputs = [ "y" ]; output = "z" } ] }
  in
  Alcotest.(check (list string)) "one diagnostic per context"
    [ "error at instr 0: switch: array (50,50) outside the DynaPlasia grid";
      "error at instr 1: write w: array (0,0) is in memory mode, needs compute";
      "error at instr 2: load y: tensor y consumed before it is produced";
      "error at instr 3: store x: array (2,0) is in compute mode, needs memory";
      "error at instr 4: compute m: array (2,0) has no weights written";
      "error at instr 5: vector v: tensor z consumed before it is produced" ]
    (List.map Check.diagnostic_to_string (Check.run chip p))

(* --- serving under deadlines: one-chip Fleet.run --- *)

let profile =
  { Serving.prefill_cycles = (fun _ -> 10.); decode_cycles = (fun _ -> 1.) }

let test_serving_empty_trace () =
  let s = One_chip.serve profile [] in
  Alcotest.(check int) "nothing completed" 0 s.Fleet.completed;
  Alcotest.(check int) "nothing dropped" 0 s.Fleet.dropped;
  Alcotest.(check (float 0.)) "zero makespan" 0. s.Fleet.makespan;
  Alcotest.(check (float 0.)) "zero p95" 0. s.Fleet.p95_latency

let test_serving_deadline_drops () =
  let trace =
    [ { Serving.arrival = 0.; prompt = 4; output = 5 };
      { Serving.arrival = 0.; prompt = 4; output = 5 } ]
  in
  (* each request costs 15 cycles; FCFS queues the second to finish at 30 *)
  let s = One_chip.serve ~slo:20. profile trace in
  Alcotest.(check int) "first completes" 1 s.Fleet.completed;
  Alcotest.(check int) "queued one dropped" 1 s.Fleet.dropped;
  Alcotest.(check (float 1e-9)) "drop frees the chip" 15.
    s.Fleet.makespan;
  (* with a generous deadline both complete *)
  let s2 = One_chip.serve ~slo:100. profile trace in
  Alcotest.(check int) "no drops under slack" 2 s2.Fleet.completed;
  Alcotest.(check int) "dropped zero" 0 s2.Fleet.dropped;
  (* dropping everything still returns zeroed stats, not an exception *)
  let s3 = One_chip.serve ~slo:1. profile trace in
  Alcotest.(check int) "all dropped" 2 s3.Fleet.dropped;
  Alcotest.(check int) "none completed" 0 s3.Fleet.completed;
  Alcotest.(check (float 0.)) "stats zeroed" 0. s3.Fleet.mean_latency

let test_serving_small_trace_p95 () =
  (* latencies 11, 12, 13: nearest-rank p95 on 3 samples is the maximum,
     not an interpolated blend of the two slowest *)
  let trace =
    [ { Serving.arrival = 0.; prompt = 4; output = 1 };
      { Serving.arrival = 100.; prompt = 4; output = 2 };
      { Serving.arrival = 200.; prompt = 4; output = 3 } ]
  in
  let s = One_chip.serve profile trace in
  Alcotest.(check (float 1e-9)) "p95 is the worst observation" 13.
    s.Fleet.p95_latency;
  Alcotest.(check int) "all completed" 3 s.Fleet.completed

(* The reference oracle for one-chip serving: FCFS in arrival order, no
   batching, and deadline admission — a request whose completion would
   pass [arrival + d] is dropped on arrival and never occupies the chip. *)
type fcfs = {
  f_completed : int;
  f_dropped : int;
  f_tokens : int;
  f_makespan : float;
  f_latencies : float list;
  f_ttfts : float list;
  f_tpts : float list;  (* every decode step of every completed request *)
}

let fcfs_oracle ?slo (profile : Serving.cost_profile) trace =
  let trace =
    List.stable_sort
      (fun (a : Serving.request) b -> Float.compare a.Serving.arrival b.Serving.arrival)
      trace
  in
  List.fold_left
    (fun acc (r : Serving.request) ->
      let start = Float.max acc.f_makespan r.Serving.arrival in
      let prefill = profile.Serving.prefill_cycles r.Serving.prompt in
      let steps =
        List.init r.Serving.output (fun t ->
            profile.Serving.decode_cycles (r.Serving.prompt + t))
      in
      let cost = List.fold_left ( +. ) prefill steps in
      let finish = start +. cost in
      match slo with
      | Some d when finish -. r.Serving.arrival > d ->
        { acc with f_dropped = acc.f_dropped + 1 }
      | _ ->
        { acc with
          f_completed = acc.f_completed + 1;
          f_tokens = acc.f_tokens + r.Serving.output + 1;
          f_makespan = finish;
          f_latencies = (finish -. r.Serving.arrival) :: acc.f_latencies;
          f_ttfts = (start +. prefill -. r.Serving.arrival) :: acc.f_ttfts;
          f_tpts = steps @ acc.f_tpts })
    { f_completed = 0; f_dropped = 0; f_tokens = 0; f_makespan = 0.;
      f_latencies = []; f_ttfts = []; f_tpts = [] }
    trace

let prop_one_chip_is_fcfs =
  QCheck.Test.make
    ~name:"one-chip fleet = FCFS with deadline admission" ~count:300
    (QCheck.make
       ~print:(fun (trace, (a, b, c, e), slo) ->
         Printf.sprintf "prefill %g+%g*p decode %g+%g*kv slo %s\n%s" a b c e
           (match slo with None -> "none" | Some d -> Printf.sprintf "%g" d)
           (String.concat "\n"
              (List.map
                 (fun (r : Serving.request) ->
                   Printf.sprintf "at=%g prompt=%d output=%d" r.Serving.arrival
                     r.Serving.prompt r.Serving.output)
                 trace)))
       QCheck.Gen.(
         let request =
           map3
             (fun arrival prompt output -> { Serving.arrival; prompt; output })
             (float_bound_inclusive 500.) (int_range 1 16) (int_range 0 8)
         in
         let cost = float_bound_inclusive 20. in
         triple (list_size (int_range 0 24) request)
           (quad cost cost cost cost)
           (opt (map (fun d -> 1. +. d) (float_bound_inclusive 3000.)))))
    (fun (trace, (a, b, c, e), slo) ->
      let profile =
        { Serving.prefill_cycles = (fun p -> a +. (b *. float_of_int p));
          decode_cycles = (fun kv -> c +. (e *. float_of_int kv)) }
      in
      let s = One_chip.serve ?slo profile trace in
      let o = fcfs_oracle ?slo profile trace in
      let close x y =
        Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs y)
      in
      let mean = function [] -> 0. | l -> Cim_util.Stats.mean l in
      let pct p = function
        | [] -> 0.
        | l -> Cim_util.Stats.percentile_nearest_rank p l
      in
      (* the profile is linear in kv, so the decode steps are many and
         distinct: the per-token percentiles must match exactly *)
      let matches eq oracle got = List.for_all (fun (p, v) -> eq v (pct p oracle)) got in
      s.Fleet.completed = o.f_completed
      && s.Fleet.dropped = o.f_dropped
      && s.Fleet.tokens = o.f_tokens
      && s.Fleet.shed = 0
      && s.Fleet.slo_violations = 0
      && close s.Fleet.makespan o.f_makespan
      && close s.Fleet.mean_latency (mean o.f_latencies)
      && close s.Fleet.mean_ttft (mean o.f_ttfts)
      && matches close o.f_latencies
           [ (50., s.Fleet.p50_latency); (95., s.Fleet.p95_latency);
             (99., s.Fleet.p99_latency); (99.9, s.Fleet.p999_latency) ]
      && matches Float.equal o.f_tpts
           [ (50., s.Fleet.p50_tpt); (95., s.Fleet.p95_tpt);
             (99., s.Fleet.p99_tpt) ])

(* --- satellite regressions: interpolate, transient band, apply/diff --- *)

let test_interpolate_dup_x () =
  (* duplicate-x samples must dedupe by key (last wins), never produce a
     zero-width bracket *)
  let f = Serving.interpolate [ (5, 1.); (5, 2.); (10, 4.) ] in
  Alcotest.(check (float 1e-9)) "last sample wins at the duplicate" 2. (f 5);
  let mid = f 7 in
  Alcotest.(check bool) "finite between samples" true (Float.is_finite mid);
  Alcotest.(check (float 1e-9)) "interpolates from the kept sample" 2.8 mid;
  Alcotest.(check (float 1e-9)) "constant extrapolation below" 2. (f 0);
  Alcotest.(check (float 1e-9)) "constant extrapolation above" 4. (f 99)

let test_inject_transient_band () =
  let fm =
    Faultmap.inject chip ~seed:1 ~transient_rate:1.0 ~transient_band:(0.2, 0.2)
      ()
  in
  for i = 0 to chip.Chip.n_arrays - 1 do
    Alcotest.(check (float 1e-9)) "lo = hi pins the probability" 0.2
      (Faultmap.transient_prob fm i)
  done;
  let default_band = Faultmap.inject chip ~seed:9 ~transient_rate:1.0 () in
  let explicit_default =
    Faultmap.inject chip ~seed:9 ~transient_rate:1.0
      ~transient_band:(0.05, 0.5) ()
  in
  Alcotest.(check bool) "default band is (0.05, 0.5), same seed stream" true
    (Faultmap.faults default_band = Faultmap.faults explicit_default);
  let invalid band =
    match
      Faultmap.inject chip ~seed:1 ~transient_rate:0.5 ~transient_band:band ()
    with
    | _ -> false
    | exception Invalid_argument msg -> contains msg "transient band"
  in
  Alcotest.(check bool) "hi < lo rejected" true (invalid (0.4, 0.2));
  Alcotest.(check bool) "hi = 1 rejected" true (invalid (0.5, 1.0));
  Alcotest.(check bool) "negative lo rejected" true (invalid (-0.1, 0.5))

let test_faultmap_apply_diff () =
  let before =
    Faultmap.of_list chip
      [ (c 0 0, Faultmap.Dead); (c 1 0, Faultmap.Stuck_mode Mode.Memory) ]
  in
  let after =
    Faultmap.apply before
      [ (c 0 0, None) (* repaired *);
        (c 2 0, Some (Faultmap.Transient_switch_failure 0.3));
        (c 1 0, Some Faultmap.Dead) ]
  in
  Alcotest.(check bool) "apply is functional: input unchanged" true
    (Faultmap.fault before (c 0 0) = Some Faultmap.Dead);
  Alcotest.(check bool) "None clears the fault" true
    (Faultmap.fault after (c 0 0) = None);
  Alcotest.(check bool) "update landed" true
    (Faultmap.fault after (c 1 0) = Some Faultmap.Dead);
  let d = Faultmap.diff before after in
  Alcotest.(check int) "three coordinates changed" 3 (List.length d);
  Alcotest.(check bool) "apply before (diff before after) = after" true
    (Faultmap.diff (Faultmap.apply before d) after = []);
  Alcotest.(check bool) "diff of equal maps is empty" true
    (Faultmap.diff after after = [])

let test_effective_chip_roundtrip () =
  List.iter
    (fun dead ->
      let fm =
        Faultmap.of_list chip
          (List.init dead (fun i ->
               (Chip.coord_of_index chip i, Faultmap.Dead)))
      in
      let eff = Faultmap.effective_chip fm in
      let flex = chip.Chip.n_arrays - dead in
      Alcotest.(check int) "capacity = flexible pool" flex eff.Chip.n_arrays;
      Alcotest.(check bool) "validate round-trip" true
        (Chip.validate eff = eff);
      Alcotest.(check bool) "grid_cols within pool" true
        (eff.Chip.grid_cols <= flex);
      Alcotest.(check bool) "grid covers the pool" true
        (eff.Chip.grid_cols * Chip.grid_rows eff >= flex);
      Alcotest.(check bool) "no fully-empty row" true
        (eff.Chip.grid_cols * (Chip.grid_rows eff - 1) < flex))
    (* includes flex < grid_cols (the tail cases) *)
    [ 1; 7; chip.Chip.n_arrays - 3; chip.Chip.n_arrays - 1 ]

(* --- the online recompile ladder --- *)

let test_recompile_healthy_level0 () =
  match Cmswitch.recompile chip (small_mlp ()) with
  | Ok o ->
    Alcotest.(check int) "healthy compile at ladder level 0" 0
      o.Cmswitch.rc_level;
    Alcotest.(check int) "one attempt" 1 o.Cmswitch.rc_attempts
  | Error _ -> Alcotest.fail "healthy recompile must succeed"

let test_recompile_budget_jumps_to_serial () =
  match Cmswitch.recompile ~budget_seconds:0. chip (small_mlp ()) with
  | Ok o ->
    Alcotest.(check int) "spent budget jumps to the serial level" 3
      o.Cmswitch.rc_level;
    Alcotest.(check bool) "serial fallback events recorded" true
      (List.exists
         (fun e -> e.Degrade.stage = Degrade.Serial_fallback)
         o.Cmswitch.rc_result.Cmswitch.degradation.Degrade.events)
  | Error _ -> Alcotest.fail "the serial level must still produce a plan"

let test_recompile_start_level () =
  (match Cmswitch.recompile ~start_level:2 chip (small_mlp ()) with
  | Ok o ->
    Alcotest.(check bool) "starts at the requested level" true
      (o.Cmswitch.rc_level >= 2)
  | Error _ -> Alcotest.fail "the near-greedy level must plan a small MLP");
  match Cmswitch.recompile ~start_level:9 chip (small_mlp ()) with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "bad start_level rejected" true
      (contains msg "start_level")
  | _ -> Alcotest.fail "start_level 9 accepted"

let test_recompile_all_dead () =
  let all_dead =
    Faultmap.of_list chip
      (List.init chip.Chip.n_arrays (fun i ->
           (Chip.coord_of_index chip i, Faultmap.Dead)))
  in
  let cfg = Cmswitch.Config.(default |> with_faults (Some all_dead)) in
  match Cmswitch.recompile ~config:cfg chip (small_mlp ()) with
  | Ok _ -> Alcotest.fail "an all-dead chip cannot recompile"
  | Error report ->
    Alcotest.(check bool) "diagnostics explain every level" true
      (report.Degrade.diagnostics <> [])

(* --- fleet serving --- *)

let test_fleet_schedule_codec () =
  let evs =
    [ { Fleet.at = 100.; chip = 1; coord = c 2 3; state = Some Faultmap.Dead };
      { Fleet.at = 200.; chip = 0; coord = c 0 1;
        state = Some (Faultmap.Stuck_mode Mode.Memory) };
      { Fleet.at = 250.; chip = 0; coord = c 1 1;
        state = Some (Faultmap.Transient_switch_failure 0.25) };
      { Fleet.at = 300.; chip = 0; coord = c 0 1; state = None } ]
  in
  (match Fleet.schedule_of_string (Fleet.schedule_to_string evs) with
  | Ok evs' -> Alcotest.(check bool) "round-trips" true (evs = evs')
  | Error m -> Alcotest.fail m);
  (match
     Fleet.schedule_of_string "# comment\n\nat=1 chip=0 array=0,0 fault=dead\n"
   with
  | Ok [ e ] ->
    Alcotest.(check bool) "comments and blanks skipped" true
      (e.Fleet.state = Some Faultmap.Dead)
  | _ -> Alcotest.fail "comment/blank skipping failed");
  match Fleet.schedule_of_string "at=x chip=0 array=0,0 fault=dead" with
  | Error m ->
    Alcotest.(check bool) "errors name the line" true (contains m "line 1")
  | Ok _ -> Alcotest.fail "bad cycle count accepted"

(* a fast compiler-free planner for property tests: the pass cost scales
   with the lost capacity, and a chip with no flexible array is out *)
let synthetic_planner ~chip:_ ~faults:fm =
  let flex = Faultmap.flexible_count fm in
  if flex = 0 then None
  else
    let pass =
      1e4 *. float_of_int chip.Chip.n_arrays /. float_of_int flex
    in
    Some
      { Fleet.level = (if flex = chip.Chip.n_arrays then 0 else 1);
        profile =
          { Serving.prefill_cycles = (fun _ -> pass);
            decode_cycles = (fun _ -> pass) } }

let prop_fleet_conservation =
  QCheck.Test.make
    ~name:"fleet conserves requests over random traces and fault schedules"
    ~count:30
    (QCheck.make
       ~print:(fun (chips, n, faults, seed) ->
         Printf.sprintf "chips=%d n=%d faults=%d seed=%d" chips n faults seed)
       QCheck.Gen.(
         quad (int_range 1 3) (int_range 1 32) (int_range 0 6)
           (int_range 0 10_000)))
    (fun (chips, n, faults, seed) ->
      let reqs =
        Serving.poisson_trace (Rng.create seed) ~n ~mean_gap:2e4 ~prompt:8
          ~output:4
      in
      let schedule =
        if faults = 0 then []
        else
          Fleet.random_schedule
            (Rng.create (seed + 1))
            ~chip ~chips ~n:faults ~horizon:1e6
      in
      let config =
        { Fleet.chips;
          slo = (if seed mod 2 = 0 then Some 3e5 else None);
          shed_output = 1;
          max_retries = seed mod 3;
          backoff_base = 1e3;
          backoff_cap = 6.4e4;
          breaker_threshold = 1 + (seed mod 4);
          recompile_cycles = 5e3;
          jobs = 1 }
      in
      let s1 = Fleet.run ~config ~chip synthetic_planner schedule reqs in
      let s4 =
        Fleet.run
          ~config:{ config with Fleet.jobs = 4 }
          ~chip synthetic_planner schedule reqs
      in
      (* byte-identical stats at any job count, and every request accounted
         for exactly once *)
      s1 = s4 && s1.Fleet.offered = n
      && s1.Fleet.completed + s1.Fleet.dropped + s1.Fleet.shed
         = s1.Fleet.offered
      && s1.Fleet.starved <= s1.Fleet.shed)

let test_fleet_fault_off_chip () =
  (* an event whose array is off the grid is rejected up front with the
     event named, like a bad chip id — never Chip.Invalid_config from deep
     inside the fault map *)
  let reqs = [ { Serving.arrival = 0.; prompt = 4; output = 1 } ] in
  let config = { Fleet.default_config with Fleet.chips = 2; jobs = 1 } in
  List.iter
    (fun coord ->
      let e = { Fleet.at = 1e6; chip = 0; coord; state = Some Faultmap.Dead } in
      match Fleet.run ~config ~chip synthetic_planner [ e ] reqs with
      | _ -> Alcotest.failf "array %d,%d accepted" coord.Chip.x coord.Chip.y
      | exception Invalid_argument m ->
        Alcotest.(check bool) ("names the event: " ^ m) true
          (contains m
             (Printf.sprintf "array=%d,%d" coord.Chip.x coord.Chip.y)))
    [ c 99 99; c (-1) 0; c 0 (-1); c chip.Chip.grid_cols 0 ]

let test_fleet_breaker_opens () =
  (* two dead-array events on chip 0 with threshold 2: the breaker opens,
     chip 1 absorbs the traffic, nothing is lost *)
  let schedule =
    [ { Fleet.at = 1e4; chip = 0; coord = c 0 0; state = Some Faultmap.Dead };
      { Fleet.at = 2e4; chip = 0; coord = c 1 0; state = Some Faultmap.Dead } ]
  in
  let reqs =
    Serving.poisson_trace (Rng.create 5) ~n:20 ~mean_gap:1.5e4 ~prompt:8
      ~output:4
  in
  let config =
    { Fleet.default_config with
      Fleet.chips = 2;
      breaker_threshold = 2;
      backoff_base = 1e3;
      backoff_cap = 6.4e4;
      recompile_cycles = 5e3;
      jobs = 1 }
  in
  let s = Fleet.run ~config ~chip synthetic_planner schedule reqs in
  Alcotest.(check int) "breaker opened once" 1 s.Fleet.breaker_opens;
  Alcotest.(check int) "one chip out" 1 s.Fleet.chips_out;
  Alcotest.(check int) "first fault recompiled before the breaker" 1
    s.Fleet.recompiles;
  Alcotest.(check int) "conservation" s.Fleet.offered
    (s.Fleet.completed + s.Fleet.dropped + s.Fleet.shed)

let test_fleet_all_chips_out () =
  (* a single chip whose breaker opens at the first fault: in-flight and
     queued requests starve (shed), later arrivals are dropped — never an
     unaccounted request *)
  let schedule =
    [ { Fleet.at = 1.5e4; chip = 0; coord = c 0 0; state = Some Faultmap.Dead } ]
  in
  let reqs =
    Serving.poisson_trace (Rng.create 11) ~n:12 ~mean_gap:1e4 ~prompt:8
      ~output:2
  in
  let config =
    { Fleet.default_config with
      Fleet.chips = 1;
      breaker_threshold = 1;
      jobs = 1 }
  in
  let s = Fleet.run ~config ~chip synthetic_planner schedule reqs in
  Alcotest.(check int) "the only chip is out" 1 s.Fleet.chips_out;
  Alcotest.(check bool) "later arrivals dropped" true (s.Fleet.dropped > 0);
  Alcotest.(check int) "conservation" s.Fleet.offered
    (s.Fleet.completed + s.Fleet.dropped + s.Fleet.shed)

(* --- golden fleet fixture: real planner through Cmswitch.recompile --- *)

let golden_dir () =
  List.find_opt Sys.file_exists
    [ "../../../test/golden"; "test/golden"; "golden" ]

let golden_path key =
  Filename.concat (Option.value (golden_dir ()) ~default:"golden") (key ^ ".txt")

let run_fleet_fixture ~jobs =
  let block = { Scenario.graph = small_mlp (); layers = 1. } in
  let base_cfg = Cmswitch.Config.(default |> with_jobs 1) in
  let pass =
    Scenario.pass_cycles block
      (Cmswitch.compile ~config:base_cfg chip block.Scenario.graph)
  in
  let planner = Scenario.planner ~config:base_cfg chip block in
  let reqs =
    Serving.poisson_trace (Rng.create 42) ~n:12 ~mean_gap:(2.5 *. pass)
      ~prompt:8 ~output:2
  in
  let schedule =
    [ { Fleet.at = 3. *. pass; chip = 0; coord = c 0 0;
        state = Some Faultmap.Dead } ]
  in
  let config =
    { Fleet.default_config with
      Fleet.chips = 2;
      slo = Some (20. *. pass);
      backoff_base = 0.5 *. pass;
      backoff_cap = 8. *. pass;
      recompile_cycles = pass;
      jobs }
  in
  Fleet.run ~config ~chip planner schedule reqs

(* %h renders exact binary64 bits: any drift in the event loop shows *)
let render_fleet_stats (s : Fleet.stats) =
  Printf.sprintf
    "offered=%d completed=%d dropped=%d shed=%d starved=%d\n\
     retries=%d recompiles=%d breaker_opens=%d chips_out=%d slo_violations=%d\n\
     makespan=%h mean_latency=%h p50=%h p95=%h p99=%h ttft=%h\n\
     tokens=%d tokens_per_megacycle=%h\n\
     per_chip=[%s]\n"
    s.Fleet.offered s.Fleet.completed s.Fleet.dropped s.Fleet.shed
    s.Fleet.starved s.Fleet.retries s.Fleet.recompiles s.Fleet.breaker_opens
    s.Fleet.chips_out s.Fleet.slo_violations s.Fleet.makespan
    s.Fleet.mean_latency s.Fleet.p50_latency s.Fleet.p95_latency
    s.Fleet.p99_latency s.Fleet.mean_ttft s.Fleet.tokens
    s.Fleet.tokens_per_megacycle
    (String.concat "; " (List.map string_of_int s.Fleet.per_chip_served))

let check_golden key rendered =
  let path = golden_path key in
  if Sys.getenv_opt "CMSWITCH_UPDATE_GOLDEN" = Some "1" then begin
    let oc = open_out path in
    output_string oc rendered;
    close_out oc;
    Printf.printf "golden fixture refreshed: %s\n" path
  end
  else begin
    if not (Sys.file_exists path) then
      Alcotest.failf
        "missing fixture %s — run CMSWITCH_UPDATE_GOLDEN=1 dune runtest" path;
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
    Alcotest.(check string) (key ^ " fingerprint") expected rendered
  end

let test_fleet_golden () =
  let s = run_fleet_fixture ~jobs:1 in
  (* the fixture must actually exercise the failure path *)
  Alcotest.(check bool) "a mid-run fault forces a recompile" true
    (s.Fleet.recompiles >= 1);
  Alcotest.(check int) "no request errors out" s.Fleet.offered
    (s.Fleet.completed + s.Fleet.dropped + s.Fleet.shed);
  check_golden "fleet" (render_fleet_stats s)

(* --- golden per-token fixture: every stat that per-request pricing and
   per-token latencies feed, plus the serving histograms --- *)

(* decode cost piecewise in kv over pow2 context buckets, as a bucketed
   compile prices it; a faulted chip's costs scale by its lost flexible
   capacity, and a chip down more than two arrays has no plan *)
let bucketed_planner =
  let pow2 n =
    let rec go c = if c >= n then c else go (2 * c) in
    go 16
  in
  let base =
    Serving.bucketed_profile ~ceiling:pow2
      ~prefill_cycles:(fun s -> 200. +. (3. *. float_of_int s))
      ~decode_cycles:(fun kv -> 40. +. (0.25 *. float_of_int kv))
  in
  fun ~chip:_ ~faults:fm ->
    let n = chip.Chip.n_arrays and flex = Faultmap.flexible_count fm in
    if flex < n - 2 then None
    else
      let k = float_of_int n /. float_of_int flex in
      Some
        { Fleet.level = n - flex;
          profile =
            { Serving.prefill_cycles = (fun s -> k *. base.Serving.prefill_cycles s);
              decode_cycles = (fun kv -> k *. base.Serving.decode_cycles kv) } }

let run_fleet_tokens_fixture () =
  let rng = Rng.create 2024 in
  let n = 160 and mean_gap = 1100. in
  let at = ref 0. in
  let reqs =
    List.init n (fun _ ->
        at := !at -. (mean_gap *. log (1. -. Rng.float rng 1.));
        { Serving.arrival = !at; prompt = 1 + Rng.int rng 300;
          output = Rng.int rng 65 })
  in
  let schedule =
    Fleet.random_schedule (Rng.create 7) ~chip ~chips:3 ~n:6
      ~horizon:(float_of_int n *. mean_gap)
  in
  let config =
    { Fleet.default_config with
      Fleet.chips = 3;
      slo = Some 8_000.;
      backoff_base = 500.;
      backoff_cap = 8_000.;
      recompile_cycles = 2_000.;
      breaker_threshold = 3;
      jobs = 1 }
  in
  Fleet.run ~config ~chip bucketed_planner schedule reqs

let render_all_fleet_stats (s : Fleet.stats) =
  Printf.sprintf
    "offered=%d completed=%d dropped=%d shed=%d starved=%d\n\
     retries=%d recompiles=%d breaker_opens=%d chips_out=%d slo_violations=%d\n\
     makespan=%h mean_latency=%h\n\
     p50_latency=%h p95_latency=%h p99_latency=%h p999_latency=%h\n\
     mean_ttft=%h p50_tpt=%h p95_tpt=%h p99_tpt=%h\n\
     tokens=%d tokens_per_megacycle=%h\n\
     per_chip=[%s]\n"
    s.Fleet.offered s.Fleet.completed s.Fleet.dropped s.Fleet.shed
    s.Fleet.starved s.Fleet.retries s.Fleet.recompiles s.Fleet.breaker_opens
    s.Fleet.chips_out s.Fleet.slo_violations s.Fleet.makespan
    s.Fleet.mean_latency s.Fleet.p50_latency s.Fleet.p95_latency
    s.Fleet.p99_latency s.Fleet.p999_latency s.Fleet.mean_ttft s.Fleet.p50_tpt
    s.Fleet.p95_tpt s.Fleet.p99_tpt s.Fleet.tokens s.Fleet.tokens_per_megacycle
    (String.concat "; " (List.map string_of_int s.Fleet.per_chip_served))

let test_fleet_tokens_golden () =
  let module M = Cim_obs.Metrics in
  let was = M.enabled () in
  M.set_enabled true;
  M.reset ();
  Fun.protect ~finally:(fun () -> M.reset (); M.set_enabled was) @@ fun () ->
  let s = run_fleet_tokens_fixture () in
  (* the fixture must reach what it pins: recompiles, the shed tier, and
     more decode steps than the metrics reservoir holds *)
  Alcotest.(check bool) "a fault forces a recompile" true (s.Fleet.recompiles >= 1);
  Alcotest.(check bool) "the shed tier fires" true (s.Fleet.shed > s.Fleet.starved);
  Alcotest.(check bool) "the tpt reservoir samples" true
    (M.histogram_count (M.histogram "serving.tpt_cycles") > M.reservoir_capacity);
  let hist name =
    let h = M.summarize (M.histogram name) in
    Printf.sprintf "%s n=%d sum=%h min=%h max=%h p50=%h p95=%h p99=%h\n" name
      h.M.n h.M.sum h.M.min h.M.max h.M.p50 h.M.p95 h.M.p99
  in
  check_golden "fleet_tokens"
    (render_all_fleet_stats s
    ^ String.concat ""
        (List.map hist
           [ "serving.latency_cycles"; "serving.ttft_cycles";
             "serving.tpt_cycles" ]))

let test_fleet_jobs_determinism () =
  let s1 = run_fleet_fixture ~jobs:1 in
  let s4 = run_fleet_fixture ~jobs:4 in
  Alcotest.(check bool) "byte-identical stats at jobs 1 and 4" true (s1 = s4)

(* --- cost-model drift attribution --- *)

module Drift = Cim_sim.Drift
module Json = Cim_obs.Json

let test_drift_attribution () =
  Alcotest.(check (float 1e-9)) "signed relative drift" 10.
    (Drift.drift_pct ~predicted:100. ~measured:110.);
  Alcotest.(check (float 1e-9)) "both zero" 0.
    (Drift.drift_pct ~predicted:0. ~measured:0.);
  Alcotest.(check bool) "only the prediction zero" true
    (Drift.drift_pct ~predicted:0. ~measured:5. = Float.infinity);
  (* a real compile against its timing-sim measurement *)
  let r = Cmswitch.compile chip (small_mlp ()) in
  let m = Timing.run chip r.Cmswitch.program in
  let sched = r.Cmswitch.schedule in
  let d = Scenario.drift chip r in
  Alcotest.(check int) "six summary rows" 6 (List.length d.Drift.summary);
  Alcotest.(check int) "one attribution row per segment"
    (List.length sched.Plan.segments)
    (List.length d.Drift.segments);
  let find label =
    match List.find_opt (fun r -> r.Drift.label = label) d.Drift.summary with
    | Some r -> r
    | None -> Alcotest.failf "summary lacks %s" label
  in
  Alcotest.(check string) "intra is cim-mode time" "cim" (find "intra").Drift.mode;
  Alcotest.(check string) "switch is memory-system time" "memory"
    (find "switch").Drift.mode;
  Alcotest.(check (float 1e-6)) "totals line up with the schedule"
    sched.Plan.total_cycles (find "total").Drift.predicted;
  Alcotest.(check (float 1e-6)) "totals line up with the measurement"
    m.Timing.cycles.Timing.total (find "total").Drift.measured;
  (* the per-segment measured compute must sum to the measured compute total *)
  let seg_sum =
    List.fold_left (fun a s -> a +. s.Drift.seg_measured) 0. d.Drift.segments
  in
  Alcotest.(check (float 1e-6)) "segments partition measured compute"
    m.Timing.cycles.Timing.compute seg_sum;
  (* record_metrics publishes labelled gauges the report reads back *)
  Cim_obs.Metrics.set_enabled true;
  Cim_obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Cim_obs.Metrics.set_enabled false;
      Cim_obs.Metrics.reset ())
    (fun () ->
      Drift.record_metrics d;
      let total = find "total" in
      let g =
        Cim_obs.Metrics.gauge
          ~labels:[ ("component", "total"); ("mode", "all") ]
          "costmodel.drift.pct"
      in
      Alcotest.(check (float 1e-9)) "drift gauge published"
        (Drift.drift_pct ~predicted:total.Drift.predicted
           ~measured:total.Drift.measured)
        (Cim_obs.Metrics.gauge_value g));
  (* the json shape is what Telemetry.report renders *)
  let j = Drift.to_json d in
  Alcotest.(check int) "json summary rows" 6
    (match Json.member "summary" j with Some (Json.List l) -> List.length l | _ -> -1);
  match Json.member "rows" j with
  | Some (Json.List (row :: _)) ->
    Alcotest.(check bool) "segment rows carry drift_pct" true
      (Json.member "drift_pct" row <> None)
  | _ -> Alcotest.fail "json lacks per-segment rows"

(* --- fleet telemetry: recording-only, deterministic, snapshot cadence --- *)

module Telemetry = Cim_obs.Telemetry
module Timeline = Cim_obs.Timeline

let test_fleet_telemetry () =
  let reqs =
    Serving.poisson_trace (Rng.create 7) ~n:30 ~mean_gap:2e4 ~prompt:8 ~output:4
  in
  let schedule =
    [ { Fleet.at = 5e4; chip = 0; coord = c 0 0; state = Some Faultmap.Dead };
      { Fleet.at = 1.2e5; chip = 1; coord = c 1 0; state = Some Faultmap.Dead } ]
  in
  let config =
    { Fleet.default_config with
      Fleet.chips = 2;
      slo = Some 3e5;
      backoff_base = 1e3;
      backoff_cap = 6.4e4;
      recompile_cycles = 5e3;
      jobs = 1 }
  in
  let plain = Fleet.run ~config ~chip synthetic_planner schedule reqs in
  let tele = Telemetry.create ~snapshot_interval:5e4 ~slo_budget:0.05 () in
  let observed =
    Fleet.run ~config ~telemetry:tele ~chip synthetic_planner schedule reqs
  in
  (* the collector is recording-only: attaching it must not perturb the
     event loop in any way *)
  Alcotest.(check bool) "stats identical with and without telemetry" true
    (plain = observed);
  Alcotest.(check bool) "request phases recorded" true
    (Telemetry.span_count tele > 0);
  let doc = Telemetry.to_json tele in
  let names key =
    match Json.member key doc with
    | Some (Json.List l) ->
      List.filter_map
        (fun s ->
          match Json.member "name" s with
          | Some (Json.String n) -> Some n
          | _ -> None)
        l
    | _ -> []
  in
  let span_names = names "spans" and mark_names = names "marks" in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " spans present") true (List.mem n span_names))
    [ "queue"; "prefill"; "decode"; "recompile" ];
  Alcotest.(check bool) "fault marks present" true
    (List.mem "fault" mark_names);
  (* snapshots: at least one per interval that saw events, strictly
     increasing timestamps, and the forced end-of-run sample *)
  let snaps = Timeline.samples (Telemetry.timeline tele) in
  Alcotest.(check bool) "snapshot cadence" true
    (List.length snaps >= int_of_float (plain.Fleet.makespan /. 5e4 /. 2.));
  ignore
    (List.fold_left
       (fun prev s ->
         Alcotest.(check bool) "snapshot times increase" true
           (s.Timeline.t > prev);
         s.Timeline.t)
       (-1.) snaps);
  (match List.rev snaps with
  | last :: _ ->
    Alcotest.(check (float 1e-6)) "final forced sample at the last event"
      plain.Fleet.makespan last.Timeline.t;
    Alcotest.(check bool) "snapshots carry queue depth and burn rate" true
      (List.mem_assoc "queue_depth" last.Timeline.values
      && List.mem_assoc "slo_burn_rate" last.Timeline.values)
  | [] -> Alcotest.fail "no snapshots");
  (* run meta and the slo error budget land in the document *)
  (match Json.member "meta" doc with
  | Some meta ->
    Alcotest.(check bool) "chips in meta" true
      (Json.member "chips" meta = Some (Json.Int 2))
  | None -> Alcotest.fail "no meta");
  Alcotest.(check bool) "slo summary attached" true
    (match Json.member "slo" doc with
    | Some slo -> Json.member "burn_rate" slo <> None
    | None -> false)

let suite =
  ( "robustness",
    [
      Alcotest.test_case "faultmap injection" `Quick test_faultmap_inject;
      Alcotest.test_case "faultmap states" `Quick test_faultmap_states;
      Alcotest.test_case "degraded compile: mlp" `Quick test_degraded_mlp;
      Alcotest.test_case "degraded compile: cnn" `Quick test_degraded_cnn;
      Alcotest.test_case "degraded compile: attention" `Quick test_degraded_attention;
      Alcotest.test_case "degraded compile: stuck arrays" `Quick
        test_degraded_stuck_arrays;
      Alcotest.test_case "node-limited MILP still plans" `Quick
        test_node_limit_incumbent_plan;
      Alcotest.test_case "zero budget falls to greedy" `Quick
        test_zero_budget_greedy_fallback;
      Alcotest.test_case "alloc outcome classification" `Quick
        test_alloc_outcome_classification;
      Alcotest.test_case "degrade ladder unit" `Quick test_degrade_solve_unit;
      Alcotest.test_case "compile_robust: healthy" `Quick test_compile_robust_ok;
      Alcotest.test_case "compile_robust: total failure" `Quick
        test_compile_robust_total_failure;
      Alcotest.test_case "compile_robust/recompile: rejected graph" `Quick
        test_rejected_graph_is_error;
      Alcotest.test_case "machine fault messages" `Quick
        test_machine_dead_and_stuck_messages;
      Alcotest.test_case "machine transient retries" `Quick
        test_machine_transient_retries;
      Alcotest.test_case "timing charges retries" `Quick test_timing_charges_retries;
      Alcotest.test_case "timing retries = machine retries" `Quick
        test_timing_retries_match_machine;
      Alcotest.test_case "check: missing weights" `Quick
        test_check_catches_missing_weights;
      Alcotest.test_case "check: mode misuse" `Quick test_check_catches_mode_misuse;
      Alcotest.test_case "check: use before def" `Quick
        test_check_catches_use_before_def;
      Alcotest.test_case "check: fault awareness" `Quick test_check_faults;
      Alcotest.test_case "check: message per context" `Quick
        test_check_message_per_context;
      Alcotest.test_case "serving: empty trace" `Quick test_serving_empty_trace;
      Alcotest.test_case "serving: deadline drops" `Quick test_serving_deadline_drops;
      Alcotest.test_case "serving: small-trace p95" `Quick
        test_serving_small_trace_p95;
      QCheck_alcotest.to_alcotest prop_one_chip_is_fcfs;
      Alcotest.test_case "interpolate: duplicate x keeps last" `Quick
        test_interpolate_dup_x;
      Alcotest.test_case "inject: transient band" `Quick
        test_inject_transient_band;
      Alcotest.test_case "faultmap apply/diff round-trip" `Quick
        test_faultmap_apply_diff;
      Alcotest.test_case "effective chip validates for every pool" `Quick
        test_effective_chip_roundtrip;
      Alcotest.test_case "recompile: healthy at level 0" `Quick
        test_recompile_healthy_level0;
      Alcotest.test_case "recompile: spent budget goes serial" `Quick
        test_recompile_budget_jumps_to_serial;
      Alcotest.test_case "recompile: start level" `Quick
        test_recompile_start_level;
      Alcotest.test_case "recompile: all dead errors" `Quick
        test_recompile_all_dead;
      Alcotest.test_case "fleet: schedule codec" `Quick
        test_fleet_schedule_codec;
      QCheck_alcotest.to_alcotest prop_fleet_conservation;
      Alcotest.test_case "fleet: fault array off the chip" `Quick
        test_fleet_fault_off_chip;
      Alcotest.test_case "fleet: circuit breaker" `Quick
        test_fleet_breaker_opens;
      Alcotest.test_case "fleet: all chips out" `Quick test_fleet_all_chips_out;
      Alcotest.test_case "fleet: golden fixture" `Quick test_fleet_golden;
      Alcotest.test_case "fleet: per-token golden fixture" `Quick
        test_fleet_tokens_golden;
      Alcotest.test_case "fleet: jobs determinism" `Quick
        test_fleet_jobs_determinism;
      Alcotest.test_case "drift: attribution" `Quick test_drift_attribution;
      Alcotest.test_case "fleet: telemetry" `Quick test_fleet_telemetry;
    ] )
