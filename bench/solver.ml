(* Per-MILP solver cost on real segment models (resnet18 CNN windows,
   bert-large transformer windows), both LP backends in the same run:
   wall-clock from repeated timed solves, pivot/refactorization counts from
   the solver's own metrics. The dense tableau ({!Cim_solver.Lp_dense}) is
   the differential oracle of the revised simplex; this table is where the
   two LP cores are compared. Emitted as a Table so `--json` captures it
   (BENCH_solver.json in CI). *)

open Common
module Opinfo = Cim_compiler.Opinfo
module Metrics = Cim_obs.Metrics
module Milp = Cim_solver.Milp

let chip = Config.dynaplasia

let ops_of key w =
  let e = Option.get (Zoo.find key) in
  let g = match e.Zoo.layer with Some layer -> layer w | None -> e.Zoo.build w in
  lazy (Opinfo.extract chip g)

let resnet_ops = ops_of "resnet18" (Workload.prefill ~batch:1 1)
let bert_ops = ops_of "bert-large" (Workload.prefill ~batch:1 64)

let solver_windows =
  [ ("resnet18", resnet_ops, 0, 4); ("resnet18", resnet_ops, 5, 9);
    ("bert-large", bert_ops, 0, 3); ("bert-large", bert_ops, 4, 9);
    ("bert-large", bert_ops, 0, 9) ]

let run () =
  section "solver | per-MILP pivots, refactorizations, wall-clock";
  let reps = 20 in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "solver micro-benchmark: per-MILP cost on segment models (mean of %d solves)"
           reps)
      [ ("segment", Table.Left); ("backend", Table.Left);
        ("wall (ms)", Table.Right); ("pivots", Table.Right);
        ("refactorizations", Table.Right); ("bb nodes", Table.Right) ]
  in
  List.iter
    (fun (model, ops, lo, hi) ->
      let ops = Lazy.force ops in
      let hi = min hi (Array.length ops - 1) in
      let p, kinds = Alloc.segment_problem chip ops ~lo ~hi in
      List.iter
        (fun (bname, backend, pivot_counter) ->
          Metrics.set_enabled true;
          Metrics.reset ();
          let t0 = Unix.gettimeofday () in
          for _ = 1 to reps do
            ignore (Milp.solve ~gap:5e-3 ~backend p ~kinds)
          done;
          let wall = (Unix.gettimeofday () -. t0) /. float_of_int reps in
          let per c =
            Metrics.counter_value (Metrics.counter c) /. float_of_int reps
          in
          let pivots = per pivot_counter in
          let refactors = per "solver.simplex.refactorizations" in
          let nodes = per "solver.bb.nodes" in
          Metrics.set_enabled false;
          Metrics.reset ();
          Table.add_row tbl
            [ Printf.sprintf "%s %d..%d" model lo hi; bname;
              Table.cell_f ~digits:4 (wall *. 1e3);
              Table.cell_f ~digits:1 pivots;
              Table.cell_f ~digits:1 refactors;
              Table.cell_f ~digits:1 nodes ])
        [ ("revised", Milp.Revised, "solver.simplex.pivots");
          ("dense", Milp.Dense, "solver.lp_dense.pivots") ])
    solver_windows;
  Table.print tbl
