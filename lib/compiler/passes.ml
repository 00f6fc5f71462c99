module Chip = Cim_arch.Chip
module Faultmap = Cim_arch.Faultmap
module Trace = Cim_obs.Trace
module Metrics = Cim_obs.Metrics
module J = Cim_obs.Json
module Flow = Cim_metaop.Flow
module Check = Cim_metaop.Check
module Isa = Cim_metaop.Isa

let log_src =
  Logs.Src.create "cmswitch.passes" ~doc:"CMSwitch nanopass pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

type env = {
  chip : Chip.t;
  solve_chip : Chip.t;
  faults : Faultmap.t option;
  partition_fraction : float;
  seg_options : Segment.options;
  on_stage : Degrade.event -> unit;
}

type state = {
  env : env;
  graph : Cim_nnir.Graph.t;
  ops : Opinfo.t array option;
  segments : Plan.seg_plan list option;
  dp_stats : Segment.stats option;
  places : Placement.seg_place list option;
  schedule : Plan.schedule option;
  program : Flow.program option;
  isa : Isa.image option;
  diagnostics : string list option;
}

type pass = {
  name : string;
  describe : string;
  run : state -> state;
  validate : (state -> (unit, string) result) option;
}

exception Pass_error of { pass : string; reason : string }

let () =
  Printexc.register_printer (function
    | Pass_error { pass; reason } ->
      Some (Printf.sprintf "pass %S failed validation: %s" pass reason)
    | _ -> None)

let make_env ?faults ?(on_stage = fun _ -> ()) ~partition_fraction ~seg_options
    chip =
  let solve_chip =
    match faults with None -> chip | Some fm -> Faultmap.effective_chip fm
  in
  { chip; solve_chip; faults; partition_fraction; seg_options; on_stage }

let init env graph =
  { env; graph; ops = None; segments = None; dp_stats = None; places = None;
    schedule = None; program = None; isa = None; diagnostics = None }

(* a missing artifact in a custom pipeline should name the producing pass,
   not crash on a None *)
let missing what producer =
  failwith
    (Printf.sprintf
       "pipeline state: no %s — the %S pass did not run before one that \
        needs it"
       what producer)

let ops_exn st = match st.ops with Some o -> o | None -> missing "operators" "extract"
let segments_exn st =
  match st.segments with Some s -> s | None -> missing "segmentation" "segment"
let dp_stats_exn st =
  match st.dp_stats with Some s -> s | None -> missing "DP stats" "segment"
let places_exn st =
  match st.places with Some p -> p | None -> missing "placement" "place"
let schedule_exn st =
  match st.schedule with Some s -> s | None -> missing "schedule" "schedule"
let program_exn st =
  match st.program with Some p -> p | None -> missing "program" "codegen"
let isa_exn st = match st.isa with Some i -> i | None -> missing "ISA image" "lower_isa"
let diagnostics_exn st =
  match st.diagnostics with Some d -> d | None -> missing "diagnostics" "check"

(* Roll the schedule up from the *placed* segments so switch latency is
   charged on the realised CM.switch lists rather than the DP estimate. *)
let placed_schedule chip ops (places : Placement.seg_place list) =
  let ctx = Plan.make_ctx ops in
  let intra = ref 0. and wb = ref 0. and sw = ref 0. and rw = ref 0. in
  let prev = ref None in
  List.iter
    (fun (sp : Placement.seg_place) ->
      let seg = sp.Placement.plan in
      let est = Plan.inter_segment_cost chip ctx ~prev:!prev ~cur:seg in
      intra := !intra +. seg.Plan.intra_cycles;
      wb := !wb +. est.Plan.writeback;
      (* Eq. 2 on the placed arrays: in-place K-cache claims (§5.3) keep
         their cell contents across the mode switch and are not
         reprogrammed *)
      let rw_placed =
        List.fold_left
          (fun acc (op : Placement.op_place) ->
            Float.max acc
              (Cim_arch.Cost.weight_rewrite_latency chip
                 ~max_com:
                   (List.length op.Placement.compute
                   - List.length op.Placement.in_place)))
          0. sp.Placement.ops
      in
      rw := !rw +. rw_placed;
      sw :=
        !sw
        +. Cim_arch.Cost.switch_latency chip
             ~m2c:(List.length sp.Placement.to_compute)
             ~c2m:(List.length sp.Placement.to_memory);
      prev := Some seg)
    places;
  {
    Plan.compiler = "CMSwitch";
    segments = List.map (fun sp -> sp.Placement.plan) places;
    intra = !intra;
    writeback = !wb;
    switch = !sw;
    rewrite = !rw;
    total_cycles = !intra +. !wb +. !sw +. !rw;
  }

(* ---- the passes ---------------------------------------------------------- *)

let p_extract =
  {
    name = "extract";
    describe = "CIM-operator extraction + sub-operator partitioning (§4.3.1)";
    run =
      (fun st ->
        let e = st.env in
        let ops =
          Trace.with_span "partition" ~cat:"compiler"
            ~args:[ ("fraction", J.Float e.partition_fraction) ]
            (fun () ->
              Opinfo.extract e.solve_chip
                ~partition_fraction:e.partition_fraction st.graph)
        in
        Log.debug (fun m ->
            m "extracted %d CIM (sub-)operators (cap %.2f of the chip)"
              (Array.length ops) e.partition_fraction);
        { st with ops = Some ops });
    validate =
      Some
        (fun st ->
          let ops = ops_exn st in
          let bad = ref None in
          Array.iteri
            (fun i (o : Opinfo.t) ->
              if !bad = None && o.Opinfo.uid <> i then bad := Some (i, o.Opinfo.uid))
            ops;
          match !bad with
          | None -> Ok ()
          | Some (i, uid) ->
            Error (Printf.sprintf "operator at index %d has uid %d" i uid));
  }

let segs_tile ~m segs =
  let rec tile expect = function
    | [] -> expect = m
    | (s : Plan.seg_plan) :: rest ->
      s.Plan.lo = expect && s.Plan.hi >= s.Plan.lo && tile (s.Plan.hi + 1) rest
  in
  tile 0 segs

let validate_tiling st =
  let ops = ops_exn st and segs = segments_exn st in
  if segs_tile ~m:(Array.length ops) segs then Ok ()
  else Error "segments do not tile the operator list"

let p_segment =
  {
    name = "segment";
    describe = "DP segmentation with per-window MIP allocation (Alg. 1)";
    run =
      (fun st ->
        let e = st.env in
        let ops = ops_exn st in
        let segments, dp_stats =
          Trace.with_span "dp.segmentation" ~cat:"compiler"
            ~args:
              [ ("ops", J.Int (Array.length ops));
                ("window", J.Int e.seg_options.Segment.max_segment_ops) ]
            (fun () ->
              Segment.run ~options:e.seg_options ~on_stage:e.on_stage
                e.solve_chip ops)
        in
        Log.debug (fun m ->
            m "DP: %d segments, %d MIP solves (%d cache hits), %d candidates"
              (List.length segments) dp_stats.Segment.mip_solves
              dp_stats.Segment.mip_cache_hits dp_stats.Segment.candidates);
        { st with segments = Some segments; dp_stats = Some dp_stats });
    validate = Some validate_tiling;
  }

let p_segment_serial =
  {
    name = "segment_serial";
    describe = "serial fallback: one operator per segment, greedy allocation";
    run =
      (fun st ->
        let e = st.env in
        let ops = ops_exn st in
        let segments =
          Array.to_list
            (Array.mapi
               (fun i _ ->
                 match Greedy.solve e.solve_chip ops ~lo:i ~hi:i with
                 | Some plan ->
                   Degrade.count_stage Degrade.Serial_fallback;
                   e.on_stage
                     { Degrade.lo = i; hi = i; stage = Degrade.Serial_fallback;
                       detail = "single-operator segment via greedy allocation" };
                   plan
                 | None ->
                   failwith
                     (Printf.sprintf
                        "operator %d does not fit even alone on %d usable arrays"
                        i e.solve_chip.Chip.n_arrays))
               ops)
        in
        let dp_stats =
          { Segment.mip_solves = 0; mip_cache_hits = 0;
            candidates = Array.length ops; pruned_infeasible = 0 }
        in
        { st with segments = Some segments; dp_stats = Some dp_stats });
    validate = Some validate_tiling;
  }

let p_place =
  {
    name = "place";
    describe = "physical array placement on the real chip (λ_z of Table 1)";
    run =
      (fun st ->
        let e = st.env in
        let places =
          Trace.with_span "placement" ~cat:"compiler" (fun () ->
              Placement.place e.chip ?faults:e.faults (ops_exn st)
                (segments_exn st))
        in
        { st with places = Some places });
    validate =
      Some
        (fun st ->
          let segs = segments_exn st and places = places_exn st in
          if List.length segs = List.length places then Ok ()
          else
            Error
              (Printf.sprintf "%d segments but %d placed segments"
                 (List.length segs) (List.length places)));
  }

let p_schedule =
  {
    name = "schedule";
    describe = "roll the schedule up from the placed segments (Eq. 10)";
    run =
      (fun st ->
        let schedule =
          Trace.with_span "schedule" ~cat:"compiler" (fun () ->
              placed_schedule st.env.chip (ops_exn st) (places_exn st))
        in
        Log.debug (fun m ->
            m "schedule: %.0f cycles (intra %.0f, wb %.0f, switch %.0f, rewrite %.0f)"
              schedule.Plan.total_cycles schedule.Plan.intra
              schedule.Plan.writeback schedule.Plan.switch schedule.Plan.rewrite);
        { st with schedule = Some schedule });
    validate =
      Some
        (fun st ->
          let s = schedule_exn st in
          if Float.is_finite s.Plan.total_cycles && s.Plan.total_cycles >= 0.
          then Ok ()
          else Error "schedule total_cycles is not a finite non-negative float");
  }

let p_codegen =
  {
    name = "codegen";
    describe = "meta-operator code generation (Fig. 13)";
    run =
      (fun st ->
        let program =
          Trace.with_span "codegen" ~cat:"compiler" (fun () ->
              Codegen.generate st.env.chip st.graph (ops_exn st) (places_exn st))
        in
        { st with program = Some program });
    validate =
      Some
        (fun st ->
          match Check.run st.env.chip ?faults:st.env.faults (program_exn st) with
          | [] -> Ok ()
          | d :: _ -> Error (Check.diagnostic_to_string d));
  }

let p_check =
  {
    name = "check";
    describe = "static flow validation (Check) into the degradation report";
    run =
      (fun st ->
        let e = st.env in
        let diagnostics =
          Trace.with_span "flow.validate" ~cat:"compiler" (fun () ->
              List.map Check.diagnostic_to_string
                (Check.run e.chip ?faults:e.faults (program_exn st)))
        in
        List.iter
          (fun d -> Log.warn (fun m -> m "flow validator: %s" d))
          diagnostics;
        { st with diagnostics = Some diagnostics });
    validate =
      Some
        (fun st ->
          match diagnostics_exn st with
          | [] -> Ok ()
          | d :: _ -> Error ("flow validator rejected the program: " ^ d));
  }

let p_lower_isa =
  {
    name = "lower_isa";
    describe = "lower the flow onto the MMIO command-stream ISA";
    run =
      (fun st ->
        let isa =
          Trace.with_span "lower_isa" ~cat:"compiler" (fun () ->
              Isa.of_flow (program_exn st))
        in
        { st with isa = Some isa });
    validate =
      Some
        (fun st ->
          let img = isa_exn st in
          (* encode -> decode must reproduce the image, and raising back to
             the meta-op level must reproduce the program byte for byte *)
          match Isa.decode (Isa.encode img) with
          | Error e -> Error ("encode/decode round trip failed: " ^ e)
          | Ok img' ->
            if img' <> img then Error "decoded image differs from encoder input"
            else if
              Flow.to_string (Isa.to_flow img)
              <> Flow.to_string (program_exn st)
            then Error "to_flow does not reproduce the lowered program"
            else Ok ());
  }

let registry =
  [ p_extract; p_segment; p_segment_serial; p_place; p_schedule; p_codegen;
    p_check; p_lower_isa ]

let find name = List.find_opt (fun p -> p.name = name) registry

let default_pipeline =
  [ p_extract; p_segment; p_place; p_schedule; p_codegen; p_check ]

let serial_pipeline =
  [ p_extract; p_segment_serial; p_place; p_schedule; p_codegen; p_check ]

let parse_list spec =
  let names =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if names = [] then Error "empty pass list"
  else
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | "default" :: rest ->
        resolve (List.rev_append default_pipeline acc) rest
      | "serial" :: rest -> resolve (List.rev_append serial_pipeline acc) rest
      | n :: rest -> (
        match find n with
        | Some p -> resolve (p :: acc) rest
        | None ->
          Error
            (Printf.sprintf "unknown pass %S (known: default, serial, %s)" n
               (String.concat ", " (List.map (fun p -> p.name) registry))))
    in
    resolve [] names

let fingerprint passes =
  Printf.sprintf "passes.v1[%s]"
    (String.concat ";" (List.map (fun p -> p.name) passes))

let default_fingerprint = fingerprint default_pipeline

let run_pass ?(validate = false) p st =
  let t0 = Unix.gettimeofday () in
  let st' =
    Trace.with_span ("pass." ^ p.name) ~cat:"pipeline" (fun () -> p.run st)
  in
  Metrics.observe
    (Metrics.histogram ("compile.pass." ^ p.name ^ ".seconds"))
    (Unix.gettimeofday () -. t0);
  if validate then begin
    match p.validate with
    | None -> ()
    | Some v -> (
      match v st' with
      | Ok () -> Log.debug (fun m -> m "pass %s validated" p.name)
      | Error reason -> raise (Pass_error { pass = p.name; reason }))
  end;
  st'

let run_pipeline ?(validate_each = false) ?on_pass passes st =
  List.fold_left
    (fun st p ->
      let st' = run_pass ~validate:validate_each p st in
      (match on_pass with Some f -> f p st' | None -> ());
      st')
    st passes

let describe_state st =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "graph: %s (%d nodes)" st.graph.Cim_nnir.Graph.graph_name
    (List.length st.graph.Cim_nnir.Graph.nodes);
  (match st.ops with
  | None -> line "ops: <none>"
  | Some ops -> line "ops: %d CIM (sub-)operators" (Array.length ops));
  (match st.segments with
  | None -> line "segments: <none>"
  | Some segs ->
    line "segments: %d" (List.length segs);
    List.iter
      (fun (s : Plan.seg_plan) ->
        line "  seg %d..%d intra=%h com=%d mem=%d" s.Plan.lo s.Plan.hi
          s.Plan.intra_cycles (Plan.com_total s) (Plan.mem_total s))
      segs);
  (match st.dp_stats with
  | None -> ()
  | Some d ->
    line "dp_stats: solves=%d hits=%d candidates=%d pruned=%d"
      d.Segment.mip_solves d.Segment.mip_cache_hits d.Segment.candidates
      d.Segment.pruned_infeasible);
  (match st.places with
  | None -> line "places: <none>"
  | Some p -> line "places: %d placed segments" (List.length p));
  (match st.schedule with
  | None -> line "schedule: <none>"
  | Some s ->
    line "schedule: total=%h (intra=%h wb=%h switch=%h rewrite=%h)"
      s.Plan.total_cycles s.Plan.intra s.Plan.writeback s.Plan.switch
      s.Plan.rewrite);
  (match st.program with
  | None -> line "program: <none>"
  | Some p ->
    line "program: %d instrs, %d bytes, md5=%s" (List.length p.Flow.instrs)
      (String.length (Flow.to_string p))
      (Flow.digest p));
  (match st.isa with
  | None -> line "isa: <none>"
  | Some img ->
    line "isa: %d commands, %d bytes encoded" (Array.length img.Isa.cmds)
      (String.length (Isa.encode img)));
  (match st.diagnostics with
  | None -> line "diagnostics: <not checked>"
  | Some [] -> line "diagnostics: clean"
  | Some ds ->
    line "diagnostics: %d" (List.length ds);
    List.iter (fun d -> line "  %s" d) ds);
  Buffer.contents b
