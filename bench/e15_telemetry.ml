(* E15 — telemetry overhead: the same fleet run with observability off,
   with a telemetry collector attached, and with the full stack on
   (collector + metrics registry + bounded Chrome trace). The serving
   stats must be byte-identical in all three configurations — telemetry is
   recording-only — and the wall-clock delta is the price of recording.
   Uses a compiler-free planner so the measured loop is the DES event loop
   itself, not plan compilation. *)

open Common
module Chip = Cim_arch.Chip
module Faultmap = Cim_arch.Faultmap
module Fleet = Cim_sim.Fleet
module Serving = Cim_sim.Serving
module Telemetry = Cim_obs.Telemetry
module Timeline = Cim_obs.Timeline
module Trace = Cim_obs.Trace
module Metrics = Cim_obs.Metrics

let chips = 4
let requests = 256
let rounds = 3

let run () =
  section "E15 | telemetry overhead: fleet serving with observability off/on";
  let chip = Config.dynaplasia in
  let planner ~chip:_ ~faults:fm =
    let flex = Faultmap.flexible_count fm in
    if flex = 0 then None
    else
      let pass = 1e4 *. float_of_int chip.Chip.n_arrays /. float_of_int flex in
      Some
        { Fleet.level = (if flex = chip.Chip.n_arrays then 0 else 1);
          profile =
            { Serving.prefill_cycles = (fun _ -> pass);
              decode_cycles = (fun _ -> pass) } }
  in
  let reqs =
    (* one request is prefill + 8 decode passes (~9e4 cycles on a healthy
       chip); a 2.8e4-cycle mean gap over 4 chips is ~0.8 offered load *)
    Serving.poisson_trace (Cim_util.Rng.create 42) ~n:requests ~mean_gap:2.8e4
      ~prompt:64 ~output:8
  in
  let horizon =
    List.fold_left
      (fun acc (r : Serving.request) -> Float.max acc r.Serving.arrival)
      1e4 reqs
  in
  let schedule =
    Fleet.random_schedule (Cim_util.Rng.create 7) ~chip ~chips ~n:6 ~horizon
  in
  let config =
    { Fleet.default_config with
      Fleet.chips;
      slo = Some 3e5;
      backoff_base = 1e3;
      backoff_cap = 6.4e4;
      recompile_cycles = 1e4;
      jobs = 1 }
  in
  let baseline, t_off =
    best rounds (fun () -> Fleet.run ~config ~chip planner schedule reqs)
  in
  let interval = Float.max 1. (horizon /. 50.) in
  let last_tele = ref None in
  let collector, t_coll =
    best rounds (fun () ->
        let tele = Telemetry.create ~snapshot_interval:interval ~slo_budget:0.05 () in
        last_tele := Some tele;
        Fleet.run ~config ~telemetry:tele ~chip planner schedule reqs)
  in
  let tele = Option.get !last_tele in
  let full, t_full =
    best rounds (fun () ->
        Metrics.set_enabled true;
        Metrics.reset ();
        Trace.set_enabled true;
        Trace.reset ();
        Trace.set_capacity (Some 4096);
        Fun.protect
          ~finally:(fun () ->
            Trace.set_capacity None;
            Trace.set_enabled false;
            Trace.reset ();
            Metrics.set_enabled false;
            Metrics.reset ())
          (fun () ->
            let t =
              Telemetry.create ~snapshot_interval:interval ~slo_budget:0.05 ()
            in
            Fleet.run ~config ~telemetry:t ~chip planner schedule reqs))
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "%d chips, %d requests, %d faults: recording cost (best of %d)"
           chips requests (List.length schedule) rounds)
      [ ("observability", Table.Left); ("wall (ms)", Table.Right);
        ("overhead", Table.Right); ("spans", Table.Right);
        ("snapshots", Table.Right); ("stats identical", Table.Left) ]
  in
  let pct t = 100. *. (t -. t_off) /. t_off in
  Table.add_row tbl
    [ "off"; Printf.sprintf "%.2f" (1e3 *. t_off); "-"; "-"; "-"; "-" ];
  Table.add_row tbl
    [ "collector"; Printf.sprintf "%.2f" (1e3 *. t_coll);
      Printf.sprintf "%+.1f%%" (pct t_coll);
      string_of_int (Telemetry.span_count tele);
      string_of_int (Timeline.count (Telemetry.timeline tele));
      (if collector = baseline then "yes" else "NO") ];
  Table.add_row tbl
    [ "collector+metrics+trace"; Printf.sprintf "%.2f" (1e3 *. t_full);
      Printf.sprintf "%+.1f%%" (pct t_full); "-"; "-";
      (if full = baseline then "yes" else "NO") ];
  Table.print tbl;
  Printf.printf
    "served %d/%d, %d recompiles; telemetry must never change a stat\n"
    baseline.Fleet.completed baseline.Fleet.offered baseline.Fleet.recompiles
