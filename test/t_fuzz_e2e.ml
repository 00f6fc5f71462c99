(* Whole-stack fuzz across hardware configurations: for random networks on
   random chip scalings, compilation must succeed, the flow must validate,
   the timing simulator must agree with the compiler's roll-up, and the
   dual-mode DP must never lose to the all-compute restriction; random
   valued graphs must compile and simulate within quantisation error of
   the float reference. This is the compositional safety net behind every
   experiment sweep. *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Flow = Cim_metaop.Flow
module Check = Cim_metaop.Check
module Cmswitch = Cim_compiler.Cmswitch
module Segment = Cim_compiler.Segment
module Alloc = Cim_compiler.Alloc
module Plan = Cim_compiler.Plan
module Timing = Cim_sim.Timing
module Op = Cim_nnir.Op
module B = Cim_nnir.Builder
module Shape = Cim_tensor.Shape
module Tensor = Cim_tensor.Tensor
module Rng = Cim_util.Rng

let restricted = Cmswitch.Config.(with_force_all_compute true default)

(* the chip families: DynaPlasia, DynaPlasia with PRIME's weight-write
   cost (Eq. 2's rewrite then dominates a window's cost) and PRIME, each
   scaled to a random array count *)
type family = Dynaplasia | High_write | Prime

let family_name = function
  | Dynaplasia -> "dynaplasia"
  | High_write -> "dynaplasia+prime-write"
  | Prime -> "prime"

let chip_of family ~n_arrays =
  match family with
  | Dynaplasia -> Config.scaled Config.dynaplasia ~n_arrays
  | High_write ->
    Config.scaled
      { Config.dynaplasia with
        Chip.name = "DynaPlasia-prime-write";
        write_latency = Config.prime.Chip.write_latency }
      ~n_arrays
  | Prime -> Config.scaled Config.prime ~n_arrays

(* random instance: chip family and size, batch, MLP widths *)
let gen_instance =
  QCheck.Gen.(
    quad (oneofl [ Dynaplasia; High_write; Prime ]) (int_range 4 128)
      (int_range 1 4)
      (list_size (int_range 2 5) (int_range 8 1500)))

let arb_instance =
  QCheck.make
    ~print:(fun (f, n, b, dims) ->
      Printf.sprintf "chip=%s n_arrays=%d batch=%d dims=[%s]" (family_name f)
        n b
        (String.concat ";" (List.map string_of_int dims)))
    gen_instance

(* The DP's objective: the Eq. 10 roll-up of the segments it chose. Its
   compute-only track is exactly the DP of an all-compute compile, and the
   main track adopts that chain wherever it is cheaper, so this never
   exceeds the all-compute compile's objective. Placed totals carry no
   such guarantee: the DP estimates Eq. 1 against the previous segment
   only, while placement keeps every idle array's mode, so a placed
   dual-mode total can exceed the placed all-compute one by that gap
   (OPT-6.7B on PRIME: 0.02%). *)
let dp_objective chip (r : Cmswitch.result) =
  (Plan.roll_up ~compiler:"dp" chip r.Cmswitch.ops
     r.Cmswitch.schedule.Plan.segments).Plan.total_cycles

let dominates chip g =
  let r = Cmswitch.compile chip g in
  let base = Cmswitch.compile ~config:restricted chip g in
  dp_objective chip r <= dp_objective chip base *. (1. +. 1e-9)

let prop_compile_everywhere =
  QCheck.Test.make ~name:"compile + validate + timing agree on random chips"
    ~count:40 arb_instance
    (fun (family, n_arrays, batch, dims) ->
      let chip = chip_of family ~n_arrays in
      let g = Cim_models.Mlp.build ~batch ~dims () in
      let r = Cmswitch.compile chip g in
      let flow_ok = Check.is_valid (Check.run chip r.Cmswitch.program) in
      let t = Timing.run chip r.Cmswitch.program in
      let total = r.Cmswitch.schedule.Plan.total_cycles in
      (* the schedule's write-back term is a conservative boundary
         estimate; the emitted flow realises it as eager stores priced
         inside the AI traffic, so timing <= schedule <= timing + wb *)
      let sim = t.Timing.cycles.Timing.total in
      let wb = r.Cmswitch.schedule.Plan.writeback in
      let eps = 1e-6 *. Float.max 1. total in
      let timing_ok = sim <= total +. eps && total <= sim +. wb +. eps in
      flow_ok && timing_ok && dominates chip g && total > 0.)

(* one DP track exceeds the all-compute objective on these (191261.8
   against 191260.8 cycles, 128526.5 against 128526.0); the compute-only
   track closes the gap *)
let test_dominance_fixed_cases () =
  let chip = chip_of High_write ~n_arrays:5 in
  List.iter
    (fun (batch, dims) ->
      let g = Cim_models.Mlp.build ~batch ~dims () in
      Alcotest.(check bool) "DP objective <= all-compute objective" true
        (dominates chip g))
    [ (3, [ 257; 380; 1002; 1199 ]); (1, [ 85; 25; 1063; 749; 183 ]) ]

let prop_segments_partition_on_random_chips =
  QCheck.Test.make ~name:"segments tile operators on random chips" ~count:40
    arb_instance
    (fun (family, n_arrays, batch, dims) ->
      let chip = chip_of family ~n_arrays in
      let g = Cim_models.Mlp.build ~batch ~dims () in
      let r = Cmswitch.compile chip g in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun (s : Plan.seg_plan) ->
          if s.Plan.lo <> !next then ok := false;
          if Plan.arrays_used s > chip.Chip.n_arrays then ok := false;
          next := s.Plan.hi + 1)
        r.Cmswitch.schedule.Plan.segments;
      !ok && !next = Array.length r.Cmswitch.ops)

let prop_transformer_layers_compile_on_small_chips =
  QCheck.Test.make ~name:"tiny transformer compiles on small chips" ~count:15
    QCheck.(pair (int_range 6 64) (int_range 1 8))
    (fun (n_arrays, kv) ->
      let chip = Config.scaled Config.dynaplasia ~n_arrays in
      let cfg = Cim_models.Transformer.tiny () in
      let g =
        Cim_models.Transformer.build_layer cfg
          (Cim_models.Workload.decode ~batch:1 kv) ~layer_index:0
      in
      let r = Cmswitch.compile chip g in
      Check.is_valid (Check.run chip r.Cmswitch.program)
      && r.Cmswitch.schedule.Plan.total_cycles > 0.)

(* random valued graphs: dense layers, activations, residual adds and
   transpose pairs over a [2; 4] input *)
type layer = Dense of int | Act of Op.t | Residual | Shuffle

let gen_layers =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (frequency
         [
           (3, map (fun d -> Dense d) (int_range 2 12));
           (3, map (fun o -> Act o) (oneofl [ Op.Relu; Op.Gelu; Op.Silu; Op.Softmax ]));
           (1, return Residual);
           (1, return Shuffle);
         ]))

let build_random (seed, layers) =
  let rng = Rng.create seed in
  let b = B.create "fuzz" in
  let d0 = 4 in
  let x = B.input b "x" (Shape.of_list [ 2; d0 ]) in
  let cur = ref x and dim = ref d0 in
  List.iter
    (fun layer ->
      match layer with
      | Dense d ->
        cur := B.linear ~bias:false ~value_rng:rng b !cur ~in_dim:!dim ~out_dim:d
                 ~prefix:"fc";
        dim := d
      | Act op -> cur := B.node b op [ !cur ]
      | Residual -> cur := B.add b !cur !cur
      | Shuffle ->
        let t1 = B.transpose b !cur [ 1; 0 ] in
        cur := B.transpose b t1 [ 1; 0 ])
    layers;
  (B.finish b ~outputs:[ !cur ], rng)

let prop_random_graphs_compile_and_simulate =
  QCheck.Test.make ~name:"random graphs compile and simulate faithfully"
    ~count:25
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) gen_layers))
    (fun spec ->
      let g, rng = build_random spec in
      let chip = Config.dynaplasia in
      let r = Cmswitch.compile chip g in
      let x = Tensor.rand rng (Shape.of_list [ 2; 4 ]) ~lo:(-1.) ~hi:1. in
      let rep =
        Cim_sim.Functional.run chip g r.Cmswitch.program ~inputs:[ ("x", x) ]
      in
      rep.Cim_sim.Functional.max_rel_err < 0.30)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  ( "fuzz-e2e",
    [
      qtest prop_compile_everywhere;
      Alcotest.test_case "dominance on two-track instances" `Quick
        test_dominance_fixed_cases;
      qtest prop_segments_partition_on_random_chips;
      qtest prop_transformer_layers_compile_on_small_chips;
      qtest prop_random_graphs_compile_and_simulate;
    ] )
