(* The parallel-compilation determinism contract: a compile at --jobs N is
   byte-identical to the serial compile — programs, plans, DP stats,
   degradation events in order, and metrics (modulo the wall-clock
   compile.seconds histogram). Checked two ways: jobs=1 vs jobs=4
   fingerprints compared in-process, and both against golden fixtures
   under test/golden/ (tolerance-free; refresh with
   CMSWITCH_UPDATE_GOLDEN=1 dune runtest). *)

module Config = Cim_arch.Config
module Zoo = Cim_models.Zoo
module Workload = Cim_models.Workload
module Cmswitch = Cim_compiler.Cmswitch
module Segment = Cim_compiler.Segment
module Degrade = Cim_compiler.Degrade
module Plan = Cim_compiler.Plan
module Flow = Cim_metaop.Flow
module Metrics = Cim_obs.Metrics

(* (fixture key, model, chip); on PRIME the DP mixes dual-mode and
   compute-only windows *)
let cases =
  [ ("resnet18", "resnet18", Config.dynaplasia);
    ("bert-large", "bert-large", Config.dynaplasia);
    ("llama2-7b", "llama2-7b", Config.dynaplasia);
    ("resnet18-prime", "resnet18", Config.prime) ]

(* the e2e graphs of the compile-time experiment: CNNs whole, transformers
   one reused block *)
let graph_of key =
  let e = Option.get (Zoo.find key) in
  match e.Zoo.family with
  | Zoo.Cnn -> e.Zoo.build (Workload.prefill ~batch:1 1)
  | Zoo.Encoder_only -> (Option.get e.Zoo.layer) (Workload.prefill ~batch:1 64)
  | Zoo.Decoder_only -> (Option.get e.Zoo.layer) (Workload.decode ~batch:1 64)

let config_with_jobs jobs = Cmswitch.Config.(with_jobs jobs default)

type fingerprint = {
  program : string;
  schedule : Plan.schedule;      (* structural, exact-float comparison *)
  stats : Segment.stats;
  events : Degrade.event list;   (* the solves' fallbacks, in firing order *)
  metrics : string list;         (* markdown lines, wall-clock entries dropped *)
}

let substring needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* every solver/compiler metric must agree across job counts; only the
   wall-clock instruments (compile.seconds and compile.pass.*.seconds
   histograms, *.wall_seconds solver counters) may differ *)
let metrics_lines () =
  Metrics.to_markdown () |> String.split_on_char '\n'
  |> List.filter (fun l ->
         not
           (substring "compile.seconds" l || substring "wall_seconds" l
           || substring "compile.pass." l))

let compile_fp ~jobs chip model =
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let r =
        Cmswitch.compile ~config:(config_with_jobs jobs) chip (graph_of model)
      in
      { program = Flow.to_string r.Cmswitch.program;
        schedule = r.Cmswitch.schedule;
        stats = r.Cmswitch.dp_stats;
        events = r.Cmswitch.degradation.Degrade.events;
        metrics = metrics_lines () })

(* ---- jobs=1 vs jobs=4 ---------------------------------------------------- *)

let test_determinism chip model () =
  let serial = compile_fp ~jobs:1 chip model in
  let par = compile_fp ~jobs:4 chip model in
  Alcotest.(check string) "program bytes" serial.program par.program;
  Alcotest.(check bool) "schedule (plans, exact floats)" true
    (serial.schedule = par.schedule);
  Alcotest.(check bool) "DP stats" true (serial.stats = par.stats);
  Alcotest.(check bool) "degradation events, in order" true
    (serial.events = par.events);
  Alcotest.(check (list string)) "metrics" serial.metrics par.metrics

(* ---- golden fixtures ----------------------------------------------------- *)

(* under `dune runtest` the cwd is _build/default/test with the fixtures
   copied in as deps; under `dune exec` from the project root they sit in
   test/golden. Refresh mode prefers the source tree so the new fixtures
   land in version control, not the build sandbox. *)
let golden_dir () =
  List.find_opt Sys.file_exists [ "../../../test/golden"; "test/golden"; "golden" ]

let golden_read_path key =
  Filename.concat (Option.value (golden_dir ()) ~default:"golden") (key ^ ".txt")

let golden_write_path = golden_read_path

let render_fingerprint chip model fp =
  let b = Buffer.create 1024 in
  let s = fp.schedule in
  Buffer.add_string b
    (Printf.sprintf "model=%s chip=%s\n" model chip.Cim_arch.Chip.name);
  Buffer.add_string b
    (Printf.sprintf "stats candidates=%d pruned=%d solves=%d hits=%d\n"
       fp.stats.Segment.candidates fp.stats.Segment.pruned_infeasible
       fp.stats.Segment.mip_solves fp.stats.Segment.mip_cache_hits);
  (* %h renders the exact bits: any drift in the float pipeline shows *)
  Buffer.add_string b
    (Printf.sprintf "total_cycles=%h\nintra=%h writeback=%h switch=%h rewrite=%h\n"
       s.Plan.total_cycles s.Plan.intra s.Plan.writeback s.Plan.switch
       s.Plan.rewrite);
  List.iter
    (fun (p : Plan.seg_plan) ->
      Buffer.add_string b
        (Printf.sprintf "seg %d..%d intra=%h com=%d mem=%d used=%d\n" p.Plan.lo
           p.Plan.hi p.Plan.intra_cycles (Plan.com_total p) (Plan.mem_total p)
           (Plan.arrays_used p)))
    s.Plan.segments;
  Buffer.add_string b
    (Printf.sprintf "program_md5=%s\n" (Digest.to_hex (Digest.string fp.program)));
  Buffer.contents b

let test_golden key chip model () =
  let fp = compile_fp ~jobs:1 chip model in
  let rendered = render_fingerprint chip model fp in
  if Sys.getenv_opt "CMSWITCH_UPDATE_GOLDEN" = Some "1" then begin
    let path = golden_write_path key in
    let oc = open_out path in
    output_string oc rendered;
    close_out oc;
    Printf.printf "golden fixture refreshed: %s\n" path
  end
  else begin
    let path = golden_read_path key in
    if not (Sys.file_exists path) then
      Alcotest.failf "missing fixture %s — run CMSWITCH_UPDATE_GOLDEN=1 dune runtest"
        path;
    let ic = open_in path in
    let expected =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    if expected <> rendered then
      Printf.printf
        "golden mismatch for %s: if the change is intentional, refresh with \
         CMSWITCH_UPDATE_GOLDEN=1 dune runtest\n"
        key;
    Alcotest.(check string) (key ^ " fingerprint") expected rendered
  end

let suite =
  ( "parallel",
    List.concat_map
      (fun (key, model, chip) ->
        [ Alcotest.test_case (key ^ " jobs=1 = jobs=4") `Quick
            (test_determinism chip model);
          Alcotest.test_case (key ^ " golden fingerprint") `Quick
            (test_golden key chip model) ])
      cases )
