(* Tests for the compiler passes: operator extraction and partitioning,
   the per-segment MIP, the DP segmentation, and placement. Most tests are
   invariants checked over real model graphs; the optimisation passes are
   additionally compared against brute force on small instances. *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Cost = Cim_arch.Cost
module Opinfo = Cim_compiler.Opinfo
module Alloc = Cim_compiler.Alloc
module Plan = Cim_compiler.Plan
module Segment = Cim_compiler.Segment
module Degrade = Cim_compiler.Degrade
module Ccfg = Cim_compiler.Cmswitch.Config
module Placement = Cim_compiler.Placement
module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo

let chip = Config.dynaplasia

let graph_of key w =
  let e = Option.get (Zoo.find key) in
  match e.Zoo.layer with Some f -> f w | None -> e.Zoo.build w

let sample_graphs =
  lazy
    [
      ("tiny-cnn", Cim_models.Cnn.tiny_cnn ~batch:1 ());
      ("mlp", Cim_models.Mlp.build ~batch:1 ~dims:[ 512; 1024; 256 ] ());
      ("bert-layer", graph_of "bert-large" (Workload.prefill ~batch:1 32));
      ("llama-decode", graph_of "llama2-7b" (Workload.decode ~batch:1 64));
      ("vgg16", graph_of "vgg16" (Workload.prefill ~batch:1 1));
    ]

(* --- Opinfo --- *)

let test_arrays_for () =
  (* Fig. 12: ceil(rows/320) * ceil(cols/40) with 8-bit weights *)
  Alcotest.(check int) "single tile" 1 (Opinfo.arrays_for chip ~rows:320 ~cols:40 ~replicas:1);
  Alcotest.(check int) "round up" 4 (Opinfo.arrays_for chip ~rows:321 ~cols:41 ~replicas:1);
  Alcotest.(check int) "replicas" 6 (Opinfo.arrays_for chip ~rows:320 ~cols:80 ~replicas:3);
  Alcotest.check_raises "bad dims"
    (Invalid_argument "Opinfo.arrays_for: non-positive dimensions") (fun () ->
      ignore (Opinfo.arrays_for chip ~rows:0 ~cols:1 ~replicas:1))

let test_extract_invariants () =
  let cap = 48 in
  List.iter
    (fun (name, g) ->
      let ops = Opinfo.extract chip g in
      (* uids dense and ordered *)
      Array.iteri
        (fun i (op : Opinfo.t) ->
          Alcotest.(check int) (name ^ " uid dense") i op.Opinfo.uid)
        ops;
      Array.iter
        (fun (op : Opinfo.t) ->
          Alcotest.(check bool) (name ^ " cap respected") true
            (op.Opinfo.min_compute_arrays >= 1 && op.Opinfo.min_compute_arrays <= cap);
          Alcotest.(check bool) (name ^ " deps precede") true
            (List.for_all (fun d -> d < op.Opinfo.uid) op.Opinfo.deps);
          Alcotest.(check bool) (name ^ " non-negative costs") true
            (op.Opinfo.macs >= 0. && op.Opinfo.in_bytes >= 0 && op.Opinfo.out_bytes >= 0);
          Alcotest.(check bool) (name ^ " slice sane") true
            (op.Opinfo.out_lo >= 0 && op.Opinfo.out_hi > op.Opinfo.out_lo))
        ops)
    (Lazy.force sample_graphs)

let test_partition_conserves_macs () =
  (* the sub-operators of each node must sum to the node's MACs *)
  List.iter
    (fun (name, g) ->
      let stats = Cim_models.Intensity.node_stats g in
      let ops = Opinfo.extract chip g in
      List.iter
        (fun (s : Cim_models.Intensity.node_stats) ->
          let total =
            Array.fold_left
              (fun acc (op : Opinfo.t) ->
                if op.Opinfo.node_id = s.Cim_models.Intensity.node_id then
                  acc +. op.Opinfo.macs
                else acc)
              0. ops
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s macs conserved (%g vs %g)" name
               s.Cim_models.Intensity.node_name total s.Cim_models.Intensity.macs)
            true
            (Float.abs (total -. s.Cim_models.Intensity.macs)
             <= 1e-6 *. Float.max 1. s.Cim_models.Intensity.macs))
        stats)
    (Lazy.force sample_graphs)

let test_partition_covers_columns () =
  (* union of [out_lo, out_hi) slices covers the full output width *)
  List.iter
    (fun (name, g) ->
      let ops = Opinfo.extract chip g in
      let by_node = Hashtbl.create 16 in
      Array.iter
        (fun (op : Opinfo.t) ->
          let acc = Option.value (Hashtbl.find_opt by_node op.Opinfo.node_id) ~default:[] in
          Hashtbl.replace by_node op.Opinfo.node_id
            ((op.Opinfo.out_lo, op.Opinfo.out_hi) :: acc))
        ops;
      Hashtbl.iter
        (fun node_id slices ->
          let sorted = List.sort_uniq compare slices in
          let max_hi = List.fold_left (fun m (_, hi) -> max m hi) 0 sorted in
          (* contiguous cover from 0 to max_hi *)
          let covered =
            List.fold_left
              (fun pos (lo, hi) ->
                if lo <= pos && hi > pos then hi else if hi <= pos then pos else -1)
              0 sorted
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s node %d cover" name node_id)
            true (covered = max_hi))
        by_node)
    (Lazy.force sample_graphs)

(* A bad Config input raises [Invalid_argument] naming the input from
   [compile], and [compile_robust]'s report carries that message, not a
   diagnosis of the chip. *)
let config_mlp () = Cim_models.Mlp.build ~batch:1 ~dims:[ 64; 64; 10 ] ()

let has_sub needle hay =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_partition_fraction_validation () =
  let g = Cim_models.Cnn.tiny_cnn ~batch:1 () in
  let msg = "Opinfo.extract: partition_fraction must be in (0, 1]" in
  Alcotest.check_raises "bad fraction" (Invalid_argument msg) (fun () ->
      ignore (Opinfo.extract chip ~partition_fraction:0. g));
  (* NaN fails every comparison, so only a range test written as
     [not (p > 0. && p <= 1.)] rejects it *)
  let cfg = Ccfg.(with_partition_fraction nan default) in
  Alcotest.check_raises "NaN fraction" (Invalid_argument msg) (fun () ->
      ignore (Cim_compiler.Cmswitch.compile ~config:cfg chip (config_mlp ())));
  match Cim_compiler.Cmswitch.compile_robust ~config:cfg chip (config_mlp ()) with
  | Ok _ -> Alcotest.fail "compile_robust compiled a NaN partition fraction"
  | Error report ->
    Alcotest.(check bool) "the report names the fraction" true
      (report.Degrade.diagnostics <> []
      && List.for_all (has_sub msg) report.Degrade.diagnostics)

let test_window_cap_validation () =
  List.iter
    (fun cap ->
      let cfg = Ccfg.(with_max_segment_ops cap default) in
      let msg =
        Printf.sprintf "Segment.run: max_segment_ops must be >= 1, got %d" cap
      in
      Alcotest.check_raises
        (Printf.sprintf "window cap %d" cap)
        (Invalid_argument msg)
        (fun () ->
          ignore (Cim_compiler.Cmswitch.compile ~config:cfg chip (config_mlp ())));
      (* the serial step takes no window cap, so compile_robust recovers;
         its first fallback event names the cap and none blames the chip *)
      match Cim_compiler.Cmswitch.compile_robust ~config:cfg chip (config_mlp ()) with
      | Error _ -> Alcotest.failf "compile_robust found no plan at cap %d" cap
      | Ok r -> (
        match r.Cim_compiler.Cmswitch.degradation.Degrade.events with
        | first :: _ as events ->
          Alcotest.(check string)
            (Printf.sprintf "serial fallback names cap %d" cap)
            ("ladder level 0: " ^ msg) first.Degrade.detail;
          Alcotest.(check bool) "no event blames the chip" false
            (List.exists
               (fun (e : Degrade.event) -> has_sub "exceeds chip" e.Degrade.detail)
               events)
        | [] -> Alcotest.failf "compile_robust recorded no fallback at cap %d" cap))
    [ 0; -3 ]

(* --- Alloc (the per-segment MIP) --- *)

let feasible_plan ops (p : Plan.seg_plan) =
  (* Eq. 5/8: com >= min arrays, capacity respected *)
  List.for_all
    (fun (a : Plan.op_alloc) ->
      a.Plan.com >= ops.(a.Plan.uid).Opinfo.min_compute_arrays
      && a.Plan.mem_in >= 0 && a.Plan.mem_out >= 0)
    p.Plan.allocs
  && Plan.arrays_used p <= chip.Chip.n_arrays

let test_alloc_constraints_hold () =
  List.iter
    (fun (name, g) ->
      let ops = Opinfo.extract chip g in
      (* widest prefix window that still fits the chip (Alg. 1 line 9) *)
      let hi = ref 0 in
      while
        !hi + 1 <= min 4 (Array.length ops - 1)
        && Opinfo.total_min_arrays ops ~lo:0 ~hi:(!hi + 1) <= chip.Chip.n_arrays
      do
        incr hi
      done;
      let hi = !hi in
      match Alloc.solve chip ops ~lo:0 ~hi with
      | None -> Alcotest.failf "%s: segment unexpectedly infeasible" name
      | Some p ->
        Alcotest.(check bool) (name ^ " constraints hold") true (feasible_plan ops p);
        (* intra equals the max of per-op Eq. 10 latencies *)
        let expect =
          List.fold_left
            (fun acc a -> Float.max acc (Alloc.op_latency chip ops.(a.Plan.uid) a))
            0. p.Plan.allocs
        in
        Alcotest.(check (float 1e-9)) (name ^ " intra = max latency") expect
          p.Plan.intra_cycles)
    (Lazy.force sample_graphs)

let test_alloc_force_all_compute () =
  let g = Cim_models.Mlp.build ~batch:1 ~dims:[ 512; 512; 512 ] () in
  let ops = Opinfo.extract chip g in
  let options = Ccfg.to_alloc_options (Ccfg.with_force_all_compute true Ccfg.default) in
  match Alloc.solve ~options chip ops ~lo:0 ~hi:(Array.length ops - 1) with
  | None -> Alcotest.fail "restricted segment infeasible"
  | Some p ->
    List.iter
      (fun (a : Plan.op_alloc) ->
        Alcotest.(check int) "no memory arrays" 0 (Plan.mem_of a))
      p.Plan.allocs

let test_alloc_dominates_all_compute () =
  (* the unrestricted optimum is never slower than the restricted one *)
  List.iter
    (fun (name, g) ->
      let ops = Opinfo.extract chip g in
      let hi = ref 0 in
      while
        !hi + 1 <= min 3 (Array.length ops - 1)
        && Opinfo.total_min_arrays ops ~lo:0 ~hi:(!hi + 1) <= chip.Chip.n_arrays
      do
        incr hi
      done;
      let hi = !hi in
      let free = Option.get (Alloc.solve chip ops ~lo:0 ~hi) in
      let forced =
        Option.get
          (Alloc.solve
             ~options:
               (Ccfg.to_alloc_options
                  (Ccfg.with_force_all_compute true Ccfg.default))
             chip ops ~lo:0 ~hi)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s dual-mode <= all-compute (%g vs %g)" name
           free.Plan.intra_cycles forced.Plan.intra_cycles)
        true
        (free.Plan.intra_cycles <= forced.Plan.intra_cycles *. (1. +. 1e-6)))
    (Lazy.force sample_graphs)

let test_alloc_infeasible_segment () =
  (* more minimum arrays than the chip has -> None (Alg. 1 line 13) *)
  let g = graph_of "vgg16" (Workload.prefill ~batch:1 1) in
  let ops = Opinfo.extract chip g in
  (* find a window whose min arrays exceed the chip *)
  let n = Array.length ops in
  let rec find lo hi =
    if hi >= n then None
    else if Opinfo.total_min_arrays ops ~lo ~hi > chip.Chip.n_arrays then Some (lo, hi)
    else find lo (hi + 1)
  in
  match find 0 1 with
  | None -> Alcotest.fail "no oversized window found"
  | Some (lo, hi) ->
    Alcotest.(check bool) "oversized window rejected" true
      (Alloc.solve chip ops ~lo ~hi = None)

(* brute-force check of the MIP on a 2-operator segment over a tiny chip *)
let test_alloc_vs_brute_force () =
  let small = Config.scaled ~name:"tiny" chip ~n_arrays:8 in
  let g = Cim_models.Mlp.build ~batch:1 ~dims:[ 320; 80; 40 ] () in
  let ops = Opinfo.extract small g in
  Alcotest.(check int) "two ops" 2 (Array.length ops);
  let best = ref infinity in
  let n = small.Chip.n_arrays in
  (* enumerate all (com, mem) splits of both ops *)
  for c0 = ops.(0).Opinfo.min_compute_arrays to n do
    for m0 = 0 to n do
      for c1 = ops.(1).Opinfo.min_compute_arrays to n do
        for m1 = 0 to n do
          if c0 + m0 + c1 + m1 <= n then begin
            let l0 =
              Cost.op_latency small ~ops:ops.(0).Opinfo.macs ~ai:ops.(0).Opinfo.ai
                ~com:c0 ~mem:m0
            in
            let l1 =
              Cost.op_latency small ~ops:ops.(1).Opinfo.macs ~ai:ops.(1).Opinfo.ai
                ~com:c1 ~mem:m1
            in
            best := Float.min !best (Float.max l0 l1)
          end
        done
      done
    done
  done;
  match Alloc.solve small ops ~lo:0 ~hi:1 with
  | None -> Alcotest.fail "expected feasible"
  | Some p ->
    (* the MIP may additionally exploit Eq. 6 reuse, so it can only be as
       good or better than the no-reuse brute force *)
    Alcotest.(check bool)
      (Printf.sprintf "MIP (%g) <= brute force (%g)" p.Plan.intra_cycles !best)
      true
      (p.Plan.intra_cycles <= !best *. (1. +. 1e-6))

(* --- Segment (the DP) --- *)

let test_segment_covers_all_ops () =
  List.iter
    (fun (name, g) ->
      let ops = Opinfo.extract chip g in
      let segments, stats = Segment.run chip ops in
      (* segments tile [0, n) contiguously *)
      let expected_lo = ref 0 in
      List.iter
        (fun (s : Plan.seg_plan) ->
          Alcotest.(check int) (name ^ " contiguous") !expected_lo s.Plan.lo;
          Alcotest.(check bool) (name ^ " ordered") true (s.Plan.hi >= s.Plan.lo);
          expected_lo := s.Plan.hi + 1)
        segments;
      Alcotest.(check int) (name ^ " ends at n") (Array.length ops) !expected_lo;
      Alcotest.(check bool) (name ^ " did some work") true (stats.Segment.candidates > 0))
    (Lazy.force sample_graphs)

(* Memo soundness: a memoised window replays the plan solved for an
   identical window elsewhere, re-anchored with Plan.shift, so every
   segment the DP returns must equal a fresh solve of its own window in
   one of the two modes the DP prices. *)
let test_segment_memo_sound () =
  let g = graph_of "bert-large" (Workload.prefill ~batch:1 32) in
  let options = Ccfg.to_segment_options Ccfg.default in
  let dual = options.Segment.alloc in
  let compute = { dual with Alloc.force_all_compute = true } in
  List.iter
    (fun chip ->
      let ops = Opinfo.extract chip g in
      let segments, stats = Segment.run ~options chip ops in
      Alcotest.(check bool) (chip.Chip.name ^ " memo used") true
        (stats.Segment.mip_cache_hits > 0);
      List.iter
        (fun (s : Plan.seg_plan) ->
          let fresh alloc =
            Degrade.solve ~options:alloc chip ops ~lo:s.Plan.lo ~hi:s.Plan.hi
          in
          if fresh dual <> Some s && fresh compute <> Some s then
            Alcotest.failf "%s: segment %d..%d is no fresh solve of its window"
              chip.Chip.name s.Plan.lo s.Plan.hi)
        segments)
    [ Config.dynaplasia; Config.prime ]

(* DP quality vs exhaustive enumeration on a small operator list. The DP's
   inter-segment costs use the stored predecessor plan (the paper's
   L[i][A'] approximation), so exact optimality over the enumeration is not
   guaranteed — but the result must sit within a tight factor of the
   exhaustively best segmentation evaluated the same way. *)
let test_segment_vs_exhaustive () =
  let small = Config.scaled ~name:"tiny" chip ~n_arrays:12 in
  let g = Cim_models.Mlp.build ~batch:1 ~dims:[ 320; 120; 120; 80; 40 ] () in
  let ops = Opinfo.extract small g in
  let n = Array.length ops in
  Alcotest.(check bool) "small instance" true (n <= 8);
  let ctx = Plan.make_ctx ops in
  let intra = Hashtbl.create 16 in
  let intra_of lo hi =
    match Hashtbl.find_opt intra (lo, hi) with
    | Some r -> r
    | None ->
      let r = Alloc.solve small ops ~lo ~hi in
      Hashtbl.replace intra (lo, hi) r;
      r
  in
  let best = ref infinity in
  let rec enumerate lo prev acc =
    if lo = n then best := Float.min !best acc
    else
      for hi = lo to n - 1 do
        match intra_of lo hi with
        | None -> ()
        | Some plan ->
          let ic = Plan.inter_segment_cost small ctx ~prev ~cur:plan in
          enumerate (hi + 1) (Some plan)
            (acc +. plan.Plan.intra_cycles +. Plan.inter_total ic)
      done
  in
  enumerate 0 None 0.;
  let segments, _ = Segment.run small ops in
  let dp_total =
    (Plan.roll_up ~compiler:"dp" small ops segments).Plan.total_cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "DP (%g) within 10%% of exhaustive best (%g)" dp_total !best)
    true
    (dp_total <= !best *. 1.10 +. 1e-9)

(* --- Placement --- *)

let test_placement_capacity_and_modes () =
  List.iter
    (fun (name, g) ->
      let ops = Opinfo.extract chip g in
      let segments, _ = Segment.run chip ops in
      let places = Placement.place chip ops segments in
      List.iter
        (fun (sp : Placement.seg_place) ->
          (* no coordinate used twice within a segment (excluding sanctioned
             mem_out/mem_in sharing across producer/consumer) *)
          let seen = Hashtbl.create 32 in
          let add kind c =
            let prev = Hashtbl.find_opt seen c in
            (match (prev, kind) with
            | Some `Compute, _ | _, `Compute when prev <> None ->
              Alcotest.failf "%s: array reused across modes" name
            | _ -> ());
            Hashtbl.replace seen c kind
          in
          List.iter
            (fun (op : Placement.op_place) ->
              List.iter (add `Compute) op.Placement.compute;
              List.iter (add `Memory) op.Placement.mem_in;
              List.iter (add `Memory) op.Placement.mem_out;
              (* counts match the plan *)
              let a =
                List.find
                  (fun (x : Plan.op_alloc) -> x.Plan.uid = op.Placement.uid)
                  sp.Placement.plan.Plan.allocs
              in
              Alcotest.(check int) (name ^ " compute count") a.Plan.com
                (List.length op.Placement.compute);
              Alcotest.(check int) (name ^ " mem_in count") a.Plan.mem_in
                (List.length op.Placement.mem_in);
              Alcotest.(check int) (name ^ " mem_out count") a.Plan.mem_out
                (List.length op.Placement.mem_out))
            sp.Placement.ops)
        places)
    (Lazy.force sample_graphs)

let test_placement_switch_economy () =
  (* two identical consecutive segments must not switch anything after the
     first *)
  let g = Cim_models.Mlp.build ~batch:1 ~dims:[ 512; 512 ] () in
  let ops = Opinfo.extract chip g in
  let seg = Option.get (Alloc.solve chip ops ~lo:0 ~hi:(Array.length ops - 1)) in
  let places = Placement.place chip ops [ seg; seg ] in
  match places with
  | [ _first; second ] ->
    Alcotest.(check int) "no switches on repeat" 0
      (List.length second.Placement.to_compute + List.length second.Placement.to_memory)
  | _ -> Alcotest.fail "expected two placements"

(* One compile per placement path, pinned by program digest at the default
   [jobs]: an in-place K-cache claim beside shared input buffers (llama2-7b
   at kv 2000), dead and stuck arrays on both chips, and shared inputs with
   takes that fall back to the other mode (mobilenetv2). Each cold compile
   fills one fresh cache directory, and a second compile through a new
   handle replays it: the fleet's recompile path, faulted included. *)
let test_placement_programs_pinned () =
  let module Cmswitch = Cim_compiler.Cmswitch in
  let module Faultmap = Cim_arch.Faultmap in
  let module Store = Cim_cache.Store in
  let inject chip = Some (Faultmap.inject chip ~seed:7 ~dead_rate:0.05 ~stuck_rate:0.05 ()) in
  let prime = Config.prime in
  let dir = Filename.temp_dir "cmswitch-placement-pins" "" in
  List.iter
    (fun (name, chip, faults, g, want) ->
      let compile () =
        let store = Store.open_dir dir in
        let config = Ccfg.(default |> with_faults faults |> with_cache (Some store)) in
        let r = Cmswitch.compile ~config chip (Lazy.force g) in
        (Cim_metaop.Flow.digest r.Cmswitch.program, store)
      in
      let cold, _ = compile () in
      Alcotest.(check string) name want cold;
      let warm, store = compile () in
      Alcotest.(check (triple string int int))
        (name ^ ": warm digest, prog hits, invalid")
        (want, 1, 0)
        ( warm,
          (Store.tier_counters store Cim_compiler.Ccache.prog_tier).Store.hits,
          (Store.counters store).Store.invalid ))
    [
      ("llama2-7b decode kv 2000", chip, None,
       lazy (graph_of "llama2-7b" (Workload.decode ~batch:1 2000)),
       "a68f34402fe4b308286f02bd5e4e4395");
      ("opt-13b decode kv 131, faulted", chip, inject chip,
       lazy (graph_of "opt-13b" (Workload.decode ~batch:1 131)),
       "f1ee69ffd5d36c8d31d1b17df640205f");
      ("PRIME resnet18, faulted", prime, inject prime,
       lazy (graph_of "resnet18" (Workload.prefill ~batch:1 1)),
       "6b35fa0a1d97534dcf17892bddcd8cfe");
      ("mobilenetv2", chip, None,
       lazy (graph_of "mobilenetv2" (Workload.prefill ~batch:1 1)),
       "1bf7890a4e9c420d90b6c20b109c0995");
    ]

(* A one-operator plan that asks for one compute array more than the chip
   can give fails with the shortfall, healthy or with dead arrays. *)
let test_placement_shortfall () =
  let module Faultmap = Cim_arch.Faultmap in
  let ops = Opinfo.extract chip (Cim_models.Mlp.build ~batch:1 ~dims:[ 512; 512 ] ()) in
  let plan com =
    { Plan.lo = 0; hi = 0; allocs = [ { Plan.uid = 0; com; mem_in = 0; mem_out = 0 } ];
      reuse = []; intra_cycles = 0. }
  in
  let fm = Faultmap.inject chip ~seed:7 ~dead_rate:0.1 () in
  Alcotest.(check bool) "some arrays dead" true (Faultmap.healthy_count fm < chip.Chip.n_arrays);
  List.iter
    (fun (name, faults, com) ->
      Alcotest.check_raises name
        (Failure "Placement: chip capacity exceeded (1 arrays short)")
        (fun () -> ignore (Placement.place chip ?faults ops [ plan com ])))
    [
      ("healthy chip", None, chip.Chip.n_arrays + 1);
      ("dead arrays", Some fm, Faultmap.healthy_count fm + 1);
    ]

let test_realized_switches_counts () =
  let g = Cim_models.Cnn.tiny_cnn ~batch:1 () in
  let ops = Opinfo.extract chip g in
  let segments, _ = Segment.run chip ops in
  let places = Placement.place chip ops segments in
  let m2c, c2m = Placement.realized_switches places in
  let manual =
    List.fold_left
      (fun (a, b) (sp : Placement.seg_place) ->
        (a + List.length sp.Placement.to_compute, b + List.length sp.Placement.to_memory))
      (0, 0) places
  in
  Alcotest.(check (pair int int)) "switch totals" manual (m2c, c2m)

let suite =
  ( "compiler-passes",
    [
      Alcotest.test_case "arrays_for (Fig. 12)" `Quick test_arrays_for;
      Alcotest.test_case "extraction invariants" `Slow test_extract_invariants;
      Alcotest.test_case "partition conserves MACs" `Slow test_partition_conserves_macs;
      Alcotest.test_case "partition covers columns" `Slow test_partition_covers_columns;
      Alcotest.test_case "partition fraction validated" `Quick test_partition_fraction_validation;
      Alcotest.test_case "window cap validated" `Quick test_window_cap_validation;
      Alcotest.test_case "MIP constraints hold" `Slow test_alloc_constraints_hold;
      Alcotest.test_case "MIP all-compute restriction" `Quick test_alloc_force_all_compute;
      Alcotest.test_case "dual-mode dominates all-compute" `Slow test_alloc_dominates_all_compute;
      Alcotest.test_case "oversized segment rejected" `Quick test_alloc_infeasible_segment;
      Alcotest.test_case "MIP vs brute force" `Slow test_alloc_vs_brute_force;
      Alcotest.test_case "DP covers all operators" `Slow test_segment_covers_all_ops;
      Alcotest.test_case "DP memo sound" `Slow test_segment_memo_sound;
      Alcotest.test_case "DP vs exhaustive" `Slow test_segment_vs_exhaustive;
      Alcotest.test_case "placement counts and modes" `Slow test_placement_capacity_and_modes;
      Alcotest.test_case "placement switch economy" `Quick test_placement_switch_economy;
      Alcotest.test_case "realized switch totals" `Quick test_realized_switches_counts;
      Alcotest.test_case "placement programs pinned" `Quick test_placement_programs_pinned;
      Alcotest.test_case "placement shortfall" `Quick test_placement_shortfall;
    ] )
