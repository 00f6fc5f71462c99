(* LLM serving on a dual-mode CIM chip: the scenario from the paper's
   introduction. A LLaMA2-7B server alternates between prompt processing
   (prefill — high arithmetic intensity, wants compute arrays) and token
   generation (decode — bandwidth-bound, wants scratchpad for activations
   and KV cache). CMSwitch reconfigures the same 96 arrays between the two
   phases; a fixed-mode compiler cannot.

   Run with: dune exec examples/llm_serving.exe *)

module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo
module Chip = Cim_arch.Chip
module Cmswitch = Cim_compiler.Cmswitch
module Baseline = Cim_baselines.Baseline
module Table = Cim_util.Table

let chip = Cim_arch.Config.dynaplasia
let model = Option.get (Zoo.find "llama2-7b")

let cms w = (Cmswitch.compile_model chip model w).Cmswitch.total_cycles
let mlc w = Baseline.compile_model Baseline.Cim_mlc chip model w

let tokens_per_second cycles_per_token =
  chip.Chip.freq_mhz *. 1e6 /. cycles_per_token

let () =
  Printf.printf "LLaMA2-7B serving on %s (%d dual-mode arrays)\n\n"
    chip.Chip.name chip.Chip.n_arrays;

  (* Phase profile: how the compiler reallocates the chip per phase. *)
  let profile w =
    let mc = Cmswitch.compile_model chip model w in
    (mc.Cmswitch.total_cycles, mc.Cmswitch.mem_ratio)
  in
  let pre_c, pre_m = profile (Workload.prefill ~batch:1 512) in
  let dec_c, dec_m = profile (Workload.decode ~batch:1 512) in
  Printf.printf "prefill(512): %.2e cycles/pass, %s of arrays in memory mode\n"
    pre_c (Table.cell_pct pre_m);
  Printf.printf "decode(kv=512): %.2e cycles/token, %s of arrays in memory mode\n\n"
    dec_c (Table.cell_pct dec_m);

  (* Decode throughput as the conversation grows. *)
  let tbl =
    Table.create ~title:"decode throughput vs context length (batch 1)"
      [ ("kv length", Table.Right); ("CIM-MLC tok/s", Table.Right);
        ("CMSwitch tok/s", Table.Right); ("speedup", Table.Right) ]
  in
  List.iter
    (fun kv ->
      let w = Workload.decode ~batch:1 kv in
      let c = cms w and b = mlc w in
      Table.add_row tbl
        [ string_of_int kv;
          Table.cell_f (tokens_per_second b);
          Table.cell_f (tokens_per_second c);
          Table.cell_speedup (b /. c) ])
    [ 128; 512; 1024; 2048 ];
  Table.print tbl;

  (* Full request latency: 128-token prompt, 256 generated tokens. *)
  let e2e f =
    let prefill = f (Workload.prefill ~batch:1 128) in
    let decodes =
      List.init 8 (fun i -> f (Workload.decode ~batch:1 (128 + (i * 32))))
    in
    prefill +. (Cim_util.Stats.mean decodes *. 256.)
  in
  let c = e2e cms and b = e2e mlc in
  Printf.printf
    "\nfull request (prompt 128 -> 256 tokens): CMSwitch %.1f ms vs CIM-MLC %.1f ms (%.2fx)\n"
    (Chip.cycles_to_us chip c /. 1000.)
    (Chip.cycles_to_us chip b /. 1000.)
    (b /. c);

  (* trace-driven serving: 20 requests, Poisson arrivals, FCFS on one chip *)
  let module Serving = Cim_sim.Serving in
  let module Fleet = Cim_sim.Fleet in
  let profile_of f =
    let sample_pre = List.map (fun s -> (s, f (Workload.prefill ~batch:1 s))) [ 32; 128; 512 ] in
    let sample_dec = List.map (fun kv -> (kv, f (Workload.decode ~batch:1 kv))) [ 32; 256; 1024 ] in
    { Serving.prefill_cycles = Serving.interpolate sample_pre;
      decode_cycles = Serving.interpolate sample_dec }
  in
  let rng = Cim_util.Rng.create 99 in
  let trace = Serving.poisson_trace rng ~n:20 ~mean_gap:2e6 ~prompt:128 ~output:64 in
  let serve f =
    let profile = profile_of f in
    Fleet.run
      ~config:{ Fleet.default_config with Fleet.chips = 1; jobs = 1 }
      ~chip (fun ~chip:_ ~faults:_ -> Some { Fleet.level = 0; profile })
      [] trace
  in
  let s_cms = serve cms in
  let s_mlc = serve mlc in
  Printf.printf
    "\nserving trace (20 requests, Poisson arrivals):\n\
    \  CMSwitch: mean latency %.1f ms, p95 %.1f ms, TTFT %.1f ms, %.1f tok/Mcycle\n\
    \  CIM-MLC : mean latency %.1f ms, p95 %.1f ms, TTFT %.1f ms, %.1f tok/Mcycle\n"
    (Chip.cycles_to_us chip s_cms.Fleet.mean_latency /. 1000.)
    (Chip.cycles_to_us chip s_cms.Fleet.p95_latency /. 1000.)
    (Chip.cycles_to_us chip s_cms.Fleet.mean_ttft /. 1000.)
    s_cms.Fleet.tokens_per_megacycle
    (Chip.cycles_to_us chip s_mlc.Fleet.mean_latency /. 1000.)
    (Chip.cycles_to_us chip s_mlc.Fleet.p95_latency /. 1000.)
    (Chip.cycles_to_us chip s_mlc.Fleet.mean_ttft /. 1000.)
    s_mlc.Fleet.tokens_per_megacycle
