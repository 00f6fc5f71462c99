(* E12 — energy efficiency. §3.2 claims dual-mode resource allocation can
   "significantly boost overall system performance and energy efficiency":
   keeping operands in on-chip memory-mode arrays avoids DRAM round-trips.
   We price both compilers' flows with the timing simulator's energy column
   and report energy and EDP. *)

open Common
module Timing = Cim_sim.Timing

let chip = Config.dynaplasia

let flow_of config key (w : Workload.t) =
  let e = Option.get (Zoo.find key) in
  let g = match e.Zoo.layer with Some f -> f w | None -> e.Zoo.build w in
  (Cmswitch.compile ~config chip g).Cmswitch.program

let restricted = Cmswitch.Config.(with_force_all_compute true default)

let run () =
  section "E12 | energy and energy-delay product (dual-mode vs all-compute)";
  let tbl =
    Table.create
      ~title:"per benchmark unit (one block for transformers, whole CNN)"
      [ ("model", Table.Left); ("CMSwitch uJ", Table.Right);
        ("CIM-MLC uJ", Table.Right); ("energy gain", Table.Right);
        ("EDP gain", Table.Right) ]
  in
  List.iter
    (fun (key, w) ->
      let dual = Timing.run chip (flow_of Cmswitch.Config.default key w) in
      let fixed = Timing.run chip (flow_of restricted key w) in
      Table.add_row tbl
        [ (Option.get (Zoo.find key)).Zoo.display;
          Table.cell_f dual.Timing.energy.Timing.total_uj;
          Table.cell_f fixed.Timing.energy.Timing.total_uj;
          Table.cell_speedup
            (fixed.Timing.energy.Timing.total_uj /. dual.Timing.energy.Timing.total_uj);
          Table.cell_speedup (fixed.Timing.edp_uj_ms /. dual.Timing.edp_uj_ms) ])
    [ ("mobilenetv2", Workload.prefill ~batch:1 1);
      ("resnet18", Workload.prefill ~batch:1 1);
      ("vgg16", Workload.prefill ~batch:1 1);
      ("bert-large", Workload.prefill ~batch:1 64);
      ("llama2-7b", Workload.decode ~batch:1 64);
      ("opt-13b", Workload.decode ~batch:1 64) ];
  Table.print tbl;
  (* detailed breakdown for one case *)
  let dual = Timing.run chip (flow_of Cmswitch.Config.default "llama2-7b"
                                (Workload.decode ~batch:1 64)) in
  Format.printf "LLaMA2-7B decode block, dual-mode:@.%a@." Timing.pp_energy dual
