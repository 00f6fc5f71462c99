(* E11 — ablations over CMSwitch's design choices (beyond the paper's own
   evaluation; DESIGN.md calls these out):
   a) sub-operator partition cap (granularity of §4.3.1's greedy split);
   b) DP segment-window length;
   c) exact MIP vs greedy marginal-gain allocation;
   d) the lexicographic refine phase;
   e) Eq. 9's max-approximation vs the discrete-event pipeline simulator. *)

open Common
module Opinfo = Cim_compiler.Opinfo
module Greedy = Cim_compiler.Greedy
module Tile_sim = Cim_compiler.Tile_sim

let chip = Config.dynaplasia

let compile_with config key (w : Workload.t) =
  let e = Option.get (Zoo.find key) in
  let g = match e.Zoo.layer with Some f -> f w | None -> e.Zoo.build w in
  time (fun () -> Cmswitch.compile ~config chip g)

let sweep_partition () =
  let tbl =
    Table.create ~title:"(a) partition cap (fraction of the chip per sub-operator)"
      [ ("fraction", Table.Right); ("BERT layer cycles", Table.Right);
        ("ops", Table.Right); ("VGG-16 cycles", Table.Right); ("ops", Table.Right) ]
  in
  List.iter
    (fun frac ->
      let config = Cmswitch.Config.(with_partition_fraction frac default) in
      let rb, _ = compile_with config "bert-large" (Workload.prefill ~batch:1 64) in
      let rv, _ = compile_with config "vgg16" (Workload.prefill ~batch:1 1) in
      Table.add_row tbl
        [ Table.cell_f frac;
          Table.cell_si rb.Cmswitch.schedule.Plan.total_cycles;
          string_of_int (Array.length rb.Cmswitch.ops);
          Table.cell_si rv.Cmswitch.schedule.Plan.total_cycles;
          string_of_int (Array.length rv.Cmswitch.ops) ])
    [ 0.25; 0.5; 0.75; 1.0 ];
  Table.print tbl

let sweep_window () =
  let tbl =
    Table.create ~title:"(b) DP segment-window length"
      [ ("max ops/segment", Table.Right); ("BERT layer cycles", Table.Right);
        ("segments", Table.Right); ("compile s", Table.Right) ]
  in
  List.iter
    (fun window ->
      let config = Cmswitch.Config.(with_max_segment_ops window default) in
      let r, secs = compile_with config "bert-large" (Workload.prefill ~batch:1 64) in
      Table.add_row tbl
        [ string_of_int window;
          Table.cell_si r.Cmswitch.schedule.Plan.total_cycles;
          string_of_int (List.length r.Cmswitch.schedule.Plan.segments);
          Table.cell_f ~digits:3 secs ])
    [ 1; 2; 4; 10; 16 ];
  Table.print tbl

let mip_vs_greedy () =
  let tbl =
    Table.create ~title:"(c) exact MIP vs greedy marginal-gain allocation (per segment)"
      [ ("workload", Table.Left); ("segment", Table.Right); ("MIP cycles", Table.Right);
        ("greedy cycles", Table.Right); ("greedy slower by", Table.Right) ]
  in
  List.iter
    (fun (key, w) ->
      let e = Option.get (Zoo.find key) in
      let g = match e.Zoo.layer with Some f -> f w | None -> e.Zoo.build w in
      let ops = Opinfo.extract chip g in
      let segments, _ = Segment.run chip ops in
      (* ablate the first few multi-op segments *)
      let shown = ref 0 in
      List.iter
        (fun (s : Plan.seg_plan) ->
          if !shown < 3 && s.Plan.hi > s.Plan.lo then begin
            incr shown;
            match Greedy.solve chip ops ~lo:s.Plan.lo ~hi:s.Plan.hi with
            | None -> ()
            | Some gplan ->
              Table.add_row tbl
                [ key;
                  Printf.sprintf "[%d,%d]" s.Plan.lo s.Plan.hi;
                  Table.cell_f s.Plan.intra_cycles;
                  Table.cell_f gplan.Plan.intra_cycles;
                  Table.cell_speedup (gplan.Plan.intra_cycles /. s.Plan.intra_cycles) ]
          end)
        segments)
    [ ("bert-large", Workload.prefill ~batch:1 64);
      ("llama2-7b", Workload.decode ~batch:1 64);
      ("vgg16", Workload.prefill ~batch:1 1) ];
  Table.print tbl

let refine_ablation () =
  let tbl =
    Table.create ~title:"(d) lexicographic refine phase (array economy at equal latency)"
      [ ("model", Table.Left); ("cycles (refine on)", Table.Right);
        ("cycles (off)", Table.Right); ("switches on/off", Table.Right) ]
  in
  List.iter
    (fun (key, w) ->
      let on, _ = compile_with Cmswitch.Config.default key w in
      let off_config = Cmswitch.Config.(with_refine false default) in
      let off, _ = compile_with off_config key w in
      Table.add_row tbl
        [ key;
          Table.cell_si on.Cmswitch.schedule.Plan.total_cycles;
          Table.cell_si off.Cmswitch.schedule.Plan.total_cycles;
          Printf.sprintf "%d / %d"
            (Cim_metaop.Flow.count_switches on.Cmswitch.program)
            (Cim_metaop.Flow.count_switches off.Cmswitch.program) ])
    [ ("bert-large", Workload.prefill ~batch:1 64);
      ("resnet18", Workload.prefill ~batch:1 1) ];
  Table.print tbl

let pipeline_vs_eq9 () =
  let tbl =
    Table.create
      ~title:"(e) Eq. 9 max-approximation vs discrete-event pipeline (8 tiles)"
      [ ("workload", Table.Left); ("Eq. 9 intra sum", Table.Right);
        ("DES makespan sum", Table.Right); ("underestimate", Table.Right) ]
  in
  List.iter
    (fun (key, w) ->
      let e = Option.get (Zoo.find key) in
      let g = match e.Zoo.layer with Some f -> f w | None -> e.Zoo.build w in
      let ops = Opinfo.extract chip g in
      let segments, _ = Segment.run chip ops in
      let eq9, des =
        List.fold_left
          (fun (a, b) (s : Plan.seg_plan) ->
            let makespan, _ = Tile_sim.simulate chip ops s () in
            (a +. s.Plan.intra_cycles, b +. makespan))
          (0., 0.) segments
      in
      Table.add_row tbl
        [ key; Table.cell_si eq9; Table.cell_si des; Table.cell_speedup (des /. eq9) ])
    [ ("bert-large", Workload.prefill ~batch:1 64);
      ("vgg16", Workload.prefill ~batch:1 1);
      ("llama2-7b", Workload.decode ~batch:1 64) ];
  Table.print tbl;
  (* show one segment's timeline *)
  let g = (Option.get (Option.get (Zoo.find "bert-large")).Zoo.layer)
            (Workload.prefill ~batch:1 64) in
  let ops = Opinfo.extract chip g in
  let segments, _ = Segment.run chip ops in
  (match List.find_opt (fun (s : Plan.seg_plan) -> s.Plan.hi > s.Plan.lo) segments with
  | Some s ->
    let _, events = Tile_sim.simulate chip ops s ~tiles:6 () in
    print_string (Tile_sim.gantt events)
  | None -> ())

let run () =
  section "E11 | ablations over the compiler's design choices";
  sweep_partition ();
  sweep_window ();
  mip_vs_greedy ();
  refine_ablation ();
  pipeline_vs_eq9 ()
