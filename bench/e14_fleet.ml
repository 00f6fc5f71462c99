(* E14 — fault-tolerant fleet serving: throughput and tail latency vs
   offered load, with and without mid-run fault events. Each sweep point
   replays the same seeded Poisson trace through Cim_sim.Fleet at a given
   offered load rho = service_cost / (chips * mean_gap); the faulty rows
   add a seeded mid-run fault schedule, forcing online recompiles (warm
   from a shared cache directory) and SLO shedding. The interesting output
   is the saturation knee: the first load where the p95 latency departs
   from the light-load baseline. *)

open Common
module Fleet = Cim_sim.Fleet
module Serving = Cim_sim.Serving
module Scenario = Cim_serve.Scenario
module Store = Cim_cache.Store

let model = "resnet18"
let chips = 2
let requests = 64
let output_tokens = 16
let rhos = [ 0.25; 0.5; 0.75; 0.9; 1.1; 1.5 ]

let run () =
  section "E14 | fleet serving: load sweep with runtime faults";
  let chip = Config.dynaplasia in
  (* a CNN: the whole network on one image *)
  let block =
    Scenario.block (Option.get (Zoo.find model)) (Workload.prefill ~batch:1 1)
  in
  (* one cache directory for the whole sweep: every recompile against a
     previously-seen fault map replays from the program tier *)
  let dir = Filename.temp_dir "cmswitch-bench-fleet" "" in
  let store = Store.open_dir dir in
  let base_cfg =
    Cmswitch.Config.(default |> with_jobs 1 |> with_cache (Some store))
  in
  let pass =
    Scenario.pass_cycles block
      (Cmswitch.compile ~config:base_cfg chip block.Scenario.graph)
  in
  let planner = Scenario.planner ~config:base_cfg chip block in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "%s x%d chips, %d requests: offered load sweep" model
           chips requests)
      [ ("rho", Table.Right); ("faults", Table.Left); ("offered", Table.Right);
        ("completed", Table.Right); ("dropped", Table.Right);
        ("shed", Table.Right); ("recompiles", Table.Right);
        ("p50 (cyc)", Table.Right); ("p95 (cyc)", Table.Right);
        ("p99 (cyc)", Table.Right); ("tok/Mcyc", Table.Right) ]
  in
  let p95_base = ref [] (* (faulty, p95 at lightest load) *) in
  let knee = ref [] in
  List.iter
    (fun faulty ->
      List.iter
        (fun rho ->
          (* a full request costs prefill + output_tokens passes; rho is
             offered load relative to the whole fleet's service rate *)
          let unit_cost = pass *. float_of_int (1 + output_tokens) in
          let mean_gap = unit_cost /. (float_of_int chips *. rho) in
          let reqs =
            Serving.poisson_trace (Cim_util.Rng.create 42) ~n:requests
              ~mean_gap ~prompt:64 ~output:output_tokens
          in
          let horizon =
            List.fold_left
              (fun acc (r : Serving.request) -> Float.max acc r.Serving.arrival)
              pass reqs
          in
          let schedule =
            if not faulty then []
            else
              Fleet.random_schedule (Cim_util.Rng.create 7) ~chip ~chips ~n:4
                ~horizon
          in
          let config =
            { (Scenario.fleet_config ~pass) with
              Fleet.chips;
              (* generous target: p95 gets to grow ~8x under overload
                 before admission control caps it, so the knee is visible;
                 shedding (17 passes -> 5) engages well before drops *)
              slo = Some (8. *. unit_cost);
              jobs = 1 }
          in
          let s = Fleet.run ~config ~chip planner schedule reqs in
          (* knee detection: p95 departing 3x from this scenario's
             lightest-load baseline *)
          (match List.assoc_opt faulty !p95_base with
          | None -> p95_base := (faulty, s.Fleet.p95_latency) :: !p95_base
          | Some base ->
            if
              s.Fleet.p95_latency > 3. *. base
              && not (List.mem_assoc faulty !knee)
            then knee := (faulty, rho) :: !knee);
          Table.add_row tbl
            [ Printf.sprintf "%.2f" rho; (if faulty then "yes" else "no");
              string_of_int s.Fleet.offered; string_of_int s.Fleet.completed;
              string_of_int s.Fleet.dropped; string_of_int s.Fleet.shed;
              string_of_int s.Fleet.recompiles;
              Printf.sprintf "%.3e" s.Fleet.p50_latency;
              Printf.sprintf "%.3e" s.Fleet.p95_latency;
              Printf.sprintf "%.3e" s.Fleet.p99_latency;
              Table.cell_f ~digits:1 s.Fleet.tokens_per_megacycle ])
        rhos)
    [ false; true ];
  Table.print tbl;
  List.iter
    (fun faulty ->
      match List.assoc_opt faulty !knee with
      | Some rho ->
        Printf.printf "saturation knee (%s faults): p95 departs 3x at rho=%.2f\n"
          (if faulty then "with" else "without")
          rho
      | None ->
        Printf.printf
          "saturation knee (%s faults): not reached in this sweep\n"
          (if faulty then "with" else "without"))
    [ false; true ];
  ignore (Store.clear store)
