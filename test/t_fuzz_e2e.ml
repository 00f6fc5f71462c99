(* Whole-stack fuzz across hardware configurations: for random networks on
   random chip scalings, compilation must succeed, the flow must validate,
   the timing simulator must agree with the compiler's roll-up, and the
   dual-mode result must never lose to the all-compute restriction; random
   valued graphs must compile and simulate within quantisation error of
   the float reference. This is the compositional safety net behind every
   experiment sweep. *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Flow = Cim_metaop.Flow
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

(* random instance: chip size, batch, MLP widths *)
let gen_instance =
  QCheck.Gen.(
    quad (int_range 4 128) (int_range 1 4)
      (list_size (int_range 2 5) (int_range 8 1500))
      (int_range 0 1000))

let arb_instance =
  QCheck.make
    ~print:(fun (n, b, dims, _) ->
      Printf.sprintf "chip=%d batch=%d dims=[%s]" n b
        (String.concat ";" (List.map string_of_int dims)))
    gen_instance

let prop_compile_everywhere =
  QCheck.Test.make ~name:"compile + validate + timing agree on random chips"
    ~count:40 arb_instance
    (fun (n_arrays, batch, dims, _seed) ->
      let chip = Config.scaled Config.dynaplasia ~n_arrays in
      let g = Cim_models.Mlp.build ~batch ~dims () in
      let r = Cmswitch.compile chip g in
      let flow_ok = Flow.validate chip r.Cmswitch.program = Ok () in
      let t = Timing.run chip r.Cmswitch.program in
      let total = r.Cmswitch.schedule.Plan.total_cycles in
      (* the schedule's write-back term is a conservative boundary
         estimate; the emitted flow realises it as eager stores priced
         inside the AI traffic, so timing <= schedule <= timing + wb *)
      let sim = t.Timing.cycles.Timing.total in
      let wb = r.Cmswitch.schedule.Plan.writeback in
      let eps = 1e-6 *. Float.max 1. total in
      let timing_ok = sim <= total +. eps && total <= sim +. wb +. eps in
      let dominance_ok =
        let base = Cmswitch.compile ~config:restricted chip g in
        total <= base.Cmswitch.schedule.Plan.total_cycles *. (1. +. 1e-9)
      in
      flow_ok && timing_ok && dominance_ok && total > 0.)

let prop_segments_partition_on_random_chips =
  QCheck.Test.make ~name:"segments tile operators on random chips" ~count:40
    arb_instance
    (fun (n_arrays, batch, dims, _) ->
      let chip = Config.scaled Config.dynaplasia ~n_arrays in
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
      Flow.validate chip r.Cmswitch.program = Ok ()
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
      qtest prop_segments_partition_on_random_chips;
      qtest prop_transformer_layers_compile_on_small_chips;
      qtest prop_random_graphs_compile_and_simulate;
    ] )
