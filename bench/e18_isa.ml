(* E18 — lowered MMIO command-stream backend: flatten compiled meta-operator
   programs onto the ISA (command FIFO words + DMA descriptors), measure the
   encoded stream, and check the one interpreter from both of its entry
   points. Every differential row checks the digest contract: running the
   stream decoded from its encoded bytes ([Isa_sim.run]) must produce
   exactly the report digest (outputs + instruction and switch counters) of
   [Functional.run] on the compiler's flow, at jobs 1 and 4. The wall-clock
   columns are machine-dependent and reported only; CI asserts the
   identical and round-trip columns. *)

open Common
module Graph = Cim_nnir.Graph
module Tensor = Cim_tensor.Tensor
module Flow = Cim_metaop.Flow
module Isa = Cim_metaop.Isa
module Functional = Cim_sim.Functional
module Isa_sim = Cim_sim.Isa_sim
module Rng = Cim_util.Rng

let run () =
  section "E18 | MMIO command-stream ISA: lowering + machine-level simulator";
  let chip = Config.dynaplasia in
  let models =
    [ ("resnet18", "whole network");
      ("bert-large", "one encoder block") ]
  in
  let compiled =
    List.map
      (fun (key, scope) ->
        let e = Option.get (Zoo.find key) in
        let g0 =
          match e.Zoo.family with
          | Zoo.Cnn -> e.Zoo.build (Workload.prefill ~batch:1 1)
          | _ -> (Option.get e.Zoo.layer) (Workload.prefill ~batch:1 64)
        in
        let r = Cmswitch.compile ~config:Cmswitch.Config.(default |> with_jobs 1) chip g0 in
        (key, scope, r))
      models
  in
  (* --- the lowered streams: size and round-trip fidelity --- *)
  let tbl =
    Table.create ~title:"lowered command streams"
      [ ("model", Table.Left); ("scope", Table.Left);
        ("commands", Table.Right); ("words", Table.Right);
        ("bytes", Table.Right); ("bytes/cmd", Table.Right);
        ("round trip", Table.Left) ]
  in
  let images =
    List.map
      (fun (key, scope, r) ->
        let img = Isa.of_flow r.Cmswitch.program in
        let bytes = Isa.encode img in
        let trip =
          Isa.decode bytes = Ok img
          && Flow.to_string (Isa.to_flow img)
             = Flow.to_string r.Cmswitch.program
        in
        Table.add_row tbl
          [ key; scope;
            string_of_int (Isa.cmd_count img);
            string_of_int (Isa.word_count img);
            string_of_int (String.length bytes);
            Table.cell_f ~digits:1
              (float_of_int (String.length bytes)
              /. float_of_int (Isa.cmd_count img));
            (if trip then "yes" else "NO") ];
        (key, r, img))
      compiled
  in
  Table.print tbl;
  (* --- the differential: the stream from its bytes vs the flow --- *)
  let tbl =
    Table.create ~title:"machine-level ISA sim from bytes vs Functional.run on the flow"
      [ ("model", Table.Left); ("simulator", Table.Left);
        ("jobs", Table.Right); ("time (s)", Table.Right);
        ("identical", Table.Left) ]
  in
  List.iter
    (fun (key, (r : Cmswitch.result), img) ->
      let rng = Rng.create 42 in
      let g = Graph.with_random_values rng r.Cmswitch.graph in
      let inputs =
        List.map
          (fun (n, sh) -> (n, Tensor.rand rng sh ~lo:(-1.) ~hi:1.))
          g.Graph.graph_inputs
      in
      let rep0, t0 =
        time (fun () ->
            Functional.run chip ~jobs:1 g r.Cmswitch.program ~inputs)
      in
      let d0 = Functional.digest rep0 in
      Table.add_row tbl
        [ key; "Functional.run (flow)"; "1"; Table.cell_f ~digits:3 t0; "yes" ];
      let decoded = Result.get_ok (Isa.decode (Isa.encode img)) in
      List.iter
        (fun jobs ->
          let rep, t =
            time (fun () -> Isa_sim.run chip ~jobs g decoded ~inputs)
          in
          let identical = Functional.digest rep = d0 in
          Table.add_row tbl
            [ key; "Isa_sim.run (ISA from bytes)"; string_of_int jobs;
              Table.cell_f ~digits:3 t;
              (if identical then "yes" else "NO") ])
        [ 1; 4 ])
    images;
  Table.print tbl;
  print_endline
    "identical = the report digest (outputs + compute / vector instruction\n\
     counts + per-array switch counters) of the stream decoded from its\n\
     encoded bytes matches Functional.run on the compiler's flow, byte for\n\
     byte - required at every job count. round trip = decode(encode(img)) =\n\
     img and raising the flat stream back to a Flow program reproduces the\n\
     compiler's bytes"
