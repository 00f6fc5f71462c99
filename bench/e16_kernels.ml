(* E16 — kernel engine: boxed seed loops vs the Bigarray backend, micro
   (ns/mac on BERT-shaped matmuls) and end-to-end (functional simulation of
   a bert-large encoder block), with a jobs sweep over the parallel
   functional simulator. Every row checks the determinism contract: the
   Bigarray result must be bitwise identical to the boxed serial seed
   (exactly equal int8 accumulators on the quantized path), at every job
   count. The speedup column is machine-dependent — the jobs sweep only
   pays off with spare cores — so CI asserts identity, not the ratio. *)

open Common
module Kernels = Cim_tensor.Kernels
module Tensor = Cim_tensor.Tensor
module Shape = Cim_tensor.Shape
module Quant = Cim_tensor.Quant
module Ops = Cim_tensor.Ops
module Graph = Cim_nnir.Graph
module Functional = Cim_sim.Functional
module Rng = Cim_util.Rng

let run () =
  section "E16 | kernel engine: boxed vs Bigarray + parallel functional sim";
  (* --- micro: BERT-large projection and FFN matmul shapes --- *)
  let tbl =
    Table.create ~title:"matmul kernels (min of 3, seq=64)"
      [ ("kernel", Table.Left); ("shape", Table.Left);
        ("boxed ns/mac", Table.Right); ("bigarray ns/mac", Table.Right);
        ("speedup", Table.Right); ("identical", Table.Left) ]
  in
  let rng = Rng.create 11 in
  let shapes = [ (64, 1024, 1024); (64, 1024, 4096) ] in
  List.iter
    (fun (m, k, n) ->
      let a = Tensor.rand rng (Shape.of_list [ m; k ]) ~lo:(-1.) ~hi:1. in
      let b = Tensor.rand rng (Shape.of_list [ k; n ]) ~lo:(-1.) ~hi:1. in
      let macs = float_of_int (m * k * n) in
      let fbox, tb = best 3 (fun () -> Kernels.with_backend Kernels.Boxed (fun () -> Ops.matmul a b)) in
      let fbig, tg = best 3 (fun () -> Kernels.with_backend Kernels.Bigarray (fun () -> Ops.matmul a b)) in
      let identical = Tensor.data fbox = Tensor.data fbig in
      Table.add_row tbl
        [ "float64"; Printf.sprintf "%dx%dx%d" m k n;
          Table.cell_f ~digits:2 (tb /. macs *. 1e9);
          Table.cell_f ~digits:2 (tg /. macs *. 1e9);
          Table.cell_speedup (tb /. tg);
          (if identical then "yes" else "NO") ];
      let qa = Quant.quantize a and qb = Quant.quantize b in
      let qbox, tb = best 3 (fun () -> Kernels.with_backend Kernels.Boxed (fun () -> Quant.matmul qa qb)) in
      let qbig, tg = best 3 (fun () -> Kernels.with_backend Kernels.Bigarray (fun () -> Quant.matmul qa qb)) in
      let identical = qbox.Quant.values = qbig.Quant.values in
      Table.add_row tbl
        [ "int8"; Printf.sprintf "%dx%dx%d" m k n;
          Table.cell_f ~digits:2 (tb /. macs *. 1e9);
          Table.cell_f ~digits:2 (tg /. macs *. 1e9);
          Table.cell_speedup (tb /. tg);
          (if identical then "yes" else "NO") ])
    shapes;
  Table.print tbl;
  (* --- end-to-end: functional simulation of a bert-large block --- *)
  let e = Option.get (Zoo.find "bert-large") in
  let g0 = (Option.get e.Zoo.layer) (Workload.prefill ~batch:1 64) in
  let chip = Config.dynaplasia in
  let r = Cmswitch.compile ~config:Cmswitch.Config.(default |> with_jobs 1) chip g0 in
  let rng = Rng.create 7 in
  let g = Graph.with_random_values rng r.Cmswitch.graph in
  let inputs =
    List.map
      (fun (n, sh) -> (n, Tensor.rand rng sh ~lo:(-1.) ~hi:1.))
      g.Graph.graph_inputs
  in
  let sim ~backend ~jobs () =
    Functional.run chip ~jobs ~backend g r.Cmswitch.program ~inputs
  in
  let tbl =
    Table.create
      ~title:"functional sim, bert-large block (prefill batch=1 seq=64)"
      [ ("backend", Table.Left); ("jobs", Table.Right);
        ("cold (s)", Table.Right); ("warm (s)", Table.Right);
        ("speedup", Table.Right); ("identical", Table.Left) ]
  in
  let rep0, t0_cold = time (sim ~backend:Kernels.Boxed ~jobs:1) in
  let _, t0_warm = best 2 (sim ~backend:Kernels.Boxed ~jobs:1) in
  let d0 = Functional.digest rep0 in
  Table.add_row tbl
    [ "boxed (seed)"; "1"; Table.cell_f ~digits:3 t0_cold;
      Table.cell_f ~digits:3 t0_warm; Table.cell_speedup 1.0; "yes" ];
  List.iter
    (fun jobs ->
      let rep, t_cold = time (sim ~backend:Kernels.Bigarray ~jobs) in
      let _, t_warm = best 2 (sim ~backend:Kernels.Bigarray ~jobs) in
      let identical = Functional.digest rep = d0 in
      Table.add_row tbl
        [ "bigarray"; string_of_int jobs; Table.cell_f ~digits:3 t_cold;
          Table.cell_f ~digits:3 t_warm;
          Table.cell_speedup (t0_warm /. t_warm);
          (if identical then "yes" else "NO") ])
    [ 1; 2; 4 ];
  Table.print tbl;
  print_endline
    "speedup is vs the boxed serial seed (warm/warm); identical = the\n\
     functional-sim digest (outputs + stats) matches the seed's, byte for\n\
     byte - required at every backend and job count. jobs only pay off\n\
     with spare cores; the kernel win is core-count independent"
