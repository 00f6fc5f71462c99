(* The four benchmark workloads and the harness that runs them.

   A workload is a fixed, seeded set of items (a "round"). The measured
   loop repeats whole rounds until the time budget is spent, re-shuffling
   the order each round, so every item weighs the same in the latency
   percentiles however fast the machine is. The first time an item runs
   its output becomes the reference every later run of it must reproduce
   byte for byte. Simulated results (cycles) come from those first runs,
   so they depend on the seed and never on the time budget.

   Everything runs on the calling domain: the compiler, the simulators and
   the fleet all get [jobs = 1]. *)

module Zoo = Cim_models.Zoo
module Workload = Cim_models.Workload
module Transformer = Cim_models.Transformer
module Cmswitch = Cim_compiler.Cmswitch
module Passes = Cim_compiler.Passes
module Plan = Cim_compiler.Plan
module Bucket = Cim_compiler.Bucket
module Store = Cim_cache.Store
module Graph = Cim_nnir.Graph
module Builder = Cim_nnir.Builder
module Text = Cim_nnir.Text
module Shape = Cim_tensor.Shape
module Tensor = Cim_tensor.Tensor
module Quant = Cim_tensor.Quant
module Ops = Cim_tensor.Ops
module Flow = Cim_metaop.Flow
module Check = Cim_metaop.Check
module Isa = Cim_metaop.Isa
module Functional = Cim_sim.Functional
module Isa_sim = Cim_sim.Isa_sim
module Timing = Cim_sim.Timing
module Fleet = Cim_sim.Fleet
module Serving = Cim_sim.Serving
module Faultmap = Cim_arch.Faultmap
module Rng = Cim_util.Rng

let chip = Cim_arch.Config.dynaplasia
let config = Cmswitch.Config.(default |> with_jobs 1)
let now = Unix.gettimeofday

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;      (* about 1/50 of the load: small rounds, small models *)
  work_dir : string; (* scratch space for cache directories *)
}

(* --- measured phases ------------------------------------------------- *)

type phase = {
  mutable lat : float list;    (* ms of each op that completed *)
  best : (int, float) Hashtbl.t;  (* item -> its fastest op, ms *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable walls : float list;  (* seconds of each round *)
}

let new_phase () =
  { lat = []; best = Hashtbl.create 64; attempted = 0; failed = 0; failures = []; walls = [] }

let fail ph msg =
  ph.failed <- ph.failed + 1;
  if List.length ph.failures < 8 then ph.failures <- msg :: ph.failures

let span layer name f = Spans.with_ ~layer name f

(* Time one operation on round item [item]. Its check runs after the clock
   stops; a raised exception or a rejected check is a counted failure,
   never a crash. *)
let op ph ~item name f check =
  ph.attempted <- ph.attempted + 1;
  let req = Spans.fresh_req () in
  let t0 = now () in
  match Spans.with_ ~req ~layer:"bench" name f with
  | exception e -> fail ph (name ^ ": " ^ Printexc.to_string e)
  | r -> (
    let ms = (now () -. t0) *. 1e3 in
    ph.lat <- ms :: ph.lat;
    (match Hashtbl.find_opt ph.best item with
    | Some b when b <= ms -> ()
    | _ -> Hashtbl.replace ph.best item ms);
    match Spans.with_ ~req ~layer:"bench" "check" (fun () -> check r) with
    | Ok () -> ()
    | Error e -> fail ph (name ^ ": " ^ e)
    | exception e -> fail ph (name ^ " (check): " ^ Printexc.to_string e))

(* Whole rounds until [seconds] have passed; always at least one. *)
let run_rounds ph ~seconds round =
  let start = now () in
  let rec go () =
    let t0 = now () in
    round ph;
    ph.walls <- (now () -. t0) :: ph.walls;
    if now () -. start < seconds then go ()
  in
  go ()

(* --- shared helpers --------------------------------------------------- *)

(* The programs' canonical text digest: what the compilation cache
   records, and what a fingerprint compares across commits. *)
let md5_programs programs =
  Digest.to_hex (Digest.string (String.concat "" (List.map Flow.to_string programs)))

(* A digest of a value's structure, cheap enough to take after every op.
   It compares runs within one process; its bytes depend on the OCaml
   runtime, so fingerprints use [md5_programs] instead. *)
let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let model_results (mc : Cmswitch.model_cost) =
  List.filter_map Fun.id [ mc.Cmswitch.layer; mc.Cmswitch.whole; mc.Cmswitch.head ]

let model_programs mc =
  List.map (fun (r : Cmswitch.result) -> r.Cmswitch.program) (model_results mc)

(* One digest over every item's reference, in item order. *)
let digest_refs refs =
  let item = Option.value ~default:"-" in
  Digest.to_hex (Digest.string (String.concat "," (List.map item (Array.to_list refs))))

(* First run of an item records its reference digest; later runs must
   reproduce it. *)
let against refs i value =
  match refs.(i) with
  | None ->
    refs.(i) <- Some value;
    Ok ()
  | Some v when v = value -> Ok ()
  | Some _ -> Error "output differs from the item's first run"

let ( let* ) = Result.bind

(* Timing bounds the compiler's Eq. 10 schedule from both sides:
   timing <= schedule <= timing + schedule.writeback. *)
let check_timing (r : Cmswitch.result) =
  let t = span "sim" "timing.run" (fun () -> Timing.run chip r.Cmswitch.program) in
  let sim = t.Timing.cycles.Timing.total in
  let s = r.Cmswitch.schedule in
  let tol = 1e-9 *. Float.max 1. s.Plan.total_cycles in
  if sim <= s.Plan.total_cycles +. tol && s.Plan.total_cycles <= sim +. s.Plan.writeback +. tol
  then Ok ()
  else
    Error
      (Printf.sprintf "timing %.6g outside [schedule - writeback, schedule] = [%.6g, %.6g]"
         sim (s.Plan.total_cycles -. s.Plan.writeback) s.Plan.total_cycles)

let check_result (r : Cmswitch.result) =
  match r.Cmswitch.degradation.Cim_compiler.Degrade.diagnostics with
  | d :: _ -> Error ("flow validator: " ^ d)
  | [] -> check_timing r

let rec check_all f = function
  | [] -> Ok ()
  | x :: rest ->
    let* () = f x in
    check_all f rest

let log_uniform rng lo hi =
  let l = log (float_of_int lo) and h = log (float_of_int (hi + 1)) in
  min hi (max lo (int_of_float (exp (l +. Rng.float rng (h -. l)))))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir ctx name =
  let dir = Filename.concat ctx.work_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  dir

let entry key =
  match Zoo.find key with Some e -> e | None -> failwith ("unknown model " ^ key)

(* Mean seconds per call of [f], repeated until [min_s] has passed. *)
let time_per_call ?(min_s = 0.05) f =
  ignore (f ());
  let t0 = now () in
  let rec go n =
    ignore (f ());
    let dt = now () -. t0 in
    if dt < min_s then go (n + 1) else dt /. float_of_int n
  in
  go 1

(* Mean of [f] over [xs], in the unit [scale] converts seconds to. *)
let mean_time ~scale f xs =
  match xs with
  | [] -> 0.
  | _ ->
    let total = List.fold_left (fun acc x -> acc +. time_per_call ~min_s:0. (fun () -> f x)) 0. xs in
    scale *. total /. float_of_int (List.length xs)

(* [Store.find] over every program entry of a cache directory, ms/find. *)
let cache_find_ms dir =
  let store = Store.open_dir dir in
  let keys =
    Store.fold_keys store ~tier:Cim_compiler.Ccache.prog_tier ~init:[] ~f:(fun acc k -> k :: acc)
  in
  mean_time ~scale:1e3
    (fun key -> Store.find store ~tier:Cim_compiler.Ccache.prog_tier ~key)
    keys

(* --- the workload interface ------------------------------------------ *)

type 'st t = {
  setup : ctx -> 'st;          (* build inputs, compile, fill caches *)
  teardown : 'st -> unit;
  round : 'st -> traced:bool -> phase -> unit;
  cycles : 'st -> float list;  (* simulated cycles of each item's first run *)
  fingerprint : 'st -> string * string;
  results : 'st -> Cmswitch.result list;  (* compiled programs handled *)
  extra : 'st -> (string * float) list;   (* workload-only per-layer metrics *)
}

type packed = W : 'st t -> packed

(* ===================================================================== *)
(* zoo-cold: cold compile_model over a stratified seeded draw of the zoo *)

module Zoo_cold = struct
  type item = { e : Zoo.entry; w : Workload.t }

  type st = {
    items : item array;
    order : Rng.t;
    refs : string option array;   (* [digest] of the first run's programs *)
    texts : string option array;  (* [md5_programs] of the same *)
    cyc : float option array;
    keep : bool;  (* hold compiled results for a traced run's probes *)
    res : Cmswitch.result list array;
  }

  (* One item per stratum, so each model weighs the same in every round
     and the shapes stay inside fixed ranges whatever the seed. *)
  let strata (e : Zoo.entry) =
    let prefill lo hi r = Workload.prefill (log_uniform r lo hi) in
    let decode lo hi r = Workload.decode (log_uniform r lo hi) in
    match e.Zoo.family with
    | Zoo.Cnn ->
      [ (fun r -> Workload.prefill ~batch:(Rng.int_range r 1 2) 1);
        (fun r -> Workload.prefill ~batch:(Rng.int_range r 3 4) 1) ]
    | Zoo.Encoder_only -> [ prefill 8 63; prefill 64 511; prefill 512 1024 ]
    | Zoo.Decoder_only ->
      [ prefill 8 127; prefill 128 1024; decode 1 63; decode 64 511; decode 512 2048 ]

  let draw ~smoke rng =
    let models =
      if smoke then List.map entry [ "resnet18"; "bert-large"; "gpt2-xl" ] else Zoo.all
    in
    List.concat_map
      (fun e ->
        let s = strata e in
        List.map (fun f -> { e; w = f rng }) (if smoke then [ List.hd s ] else s))
      models
    |> Array.of_list

  let graphs_of { e; w } =
    match e.Zoo.layer with
    | None -> [ e.Zoo.build w ]
    | Some layer -> layer w :: Option.to_list (Cmswitch.head_graph e w)

  (* The default pipeline driven pass by pass, so a traced run can time
     each pass; it must emit what [compile_model] emits. *)
  let compile_by_hand it =
    let graphs = span "models" "models.build" (fun () -> graphs_of it) in
    List.map
      (fun g ->
        let env =
          Passes.make_env ~partition_fraction:config.Cmswitch.Config.partition_fraction
            ~seg_options:(Cmswitch.Config.to_segment_options config) chip
        in
        let st =
          List.fold_left
            (fun s (p : Passes.pass) ->
              span "compiler" ("pass." ^ p.Passes.name) (fun () -> Passes.run_pass p s))
            (Passes.init env g) Passes.default_pipeline
        in
        Passes.program_exn st)
      graphs

  let setup ctx =
    let rng = Rng.create ctx.seed in
    let items = draw ~smoke:ctx.smoke rng in
    (* warm-up: one compile per model, thrown away *)
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun it ->
        if not (Hashtbl.mem seen it.e.Zoo.key) then begin
          Hashtbl.add seen it.e.Zoo.key ();
          ignore (Cmswitch.compile_model ~config chip it.e it.w)
        end)
      items;
    let n = Array.length items in
    { items; order = Rng.split rng; refs = Array.make n None; texts = Array.make n None;
      cyc = Array.make n None;
      keep = ctx.traced; res = Array.make n [] }

  let round st ~traced ph =
    let order = Array.init (Array.length st.items) Fun.id in
    Rng.shuffle st.order order;
    Array.iter
      (fun i ->
        let it = st.items.(i) in
        let name = it.e.Zoo.key ^ " " ^ Workload.to_string it.w in
        if traced then
          op ph ~item:i name (fun () -> compile_by_hand it) (fun programs ->
              against st.refs i (digest programs))
        else
          op ph ~item:i name
            (fun () -> span "compiler" "compile_model" (fun () -> Cmswitch.compile_model ~config chip it.e it.w))
            (fun mc ->
              let* () = check_all check_result (model_results mc) in
              let programs = model_programs mc in
              let* () = against st.refs i (digest programs) in
              if st.cyc.(i) = None then begin
                st.cyc.(i) <- Some mc.Cmswitch.total_cycles;
                st.texts.(i) <- Some (md5_programs programs);
                if st.keep then st.res.(i) <- model_results mc
              end;
              Ok ()))
      order

  let workload =
    {
      setup;
      teardown = ignore;
      round;
      cycles = (fun st -> List.filter_map Fun.id (Array.to_list st.cyc));
      fingerprint = (fun st -> ("programs_md5", digest_refs st.texts));
      results = (fun st -> List.concat (Array.to_list st.res));
      extra = (fun _ -> []);
    }
end

(* ===================================================================== *)
(* decode-warm: bucketed plan acquisition replayed from a disk cache     *)

module Decode_warm = struct
  type st = {
    dir : string;
    items : (Zoo.entry * Workload.t) array;
    filled : (string * string) array;
        (* [digest] and [md5_programs] of what the cold fill compiled *)
    order : Rng.t;
    cyc : float option array;
    keep : bool;  (* hold compiled results for a traced run's probes *)
    res : Cmswitch.result list array;
  }

  let policy = Bucket.default
  let cached store = Cmswitch.Config.(config |> with_buckets (Some policy) |> with_cache (Some store))

  (* Per model: two prefills and four decodes, each inside one bucket, plus
     one decode with kv log-uniform over 1..2047. Replay cost follows the
     bucket, not the exact length, so the round costs the same whatever
     the seed; the free decode still lets the simulated cycles move. *)
  let mix =
    [ ("gpt2-xl", [ (33, 64); (65, 128) ]); ("llama2-7b", [ (129, 256); (257, 512) ]);
      ("opt-6.7b", [ (129, 256); (257, 512) ]); ("opt-13b", [ (129, 256); (257, 512) ]) ]

  (* kv ranges whose context (kv + 1) fills the 32, 128, 512 and 2048
     buckets of [Bucket.default] *)
  let decode_strata = [ (1, 31); (64, 127); (256, 511); (1024, 2047) ]

  let draw ~smoke rng =
    let mix, strata =
      if smoke then ([ ("gpt2-xl", [ (33, 64) ]) ], []) else (mix, decode_strata)
    in
    List.concat_map
      (fun (key, prefills) ->
        let e = entry key in
        List.map (fun (lo, hi) -> (e, Workload.prefill (Rng.int_range rng lo hi))) prefills
        @ List.map (fun (lo, hi) -> (e, Workload.decode (Rng.int_range rng lo hi))) strata
        @ [ (e, Workload.decode (log_uniform rng 1 2047)) ])
      mix
    |> Array.of_list

  (* The bucket an acquisition lands in: what the cache is keyed on. *)
  let bucket_key ((e : Zoo.entry), (w : Workload.t)) =
    Printf.sprintf "%s/%s/%d" e.Zoo.key
      (match w.Workload.phase with Workload.Prefill _ -> "prefill" | Workload.Decode _ -> "decode")
      (Bucket.ceiling policy (Workload.context_len w))

  let setup ctx =
    let rng = Rng.create ctx.seed in
    let items = draw ~smoke:ctx.smoke rng in
    let dir = fresh_dir ctx "decode-warm" in
    let store = Store.open_dir dir in
    let by_bucket = Hashtbl.create 32 in
    let filled =
      Array.map
        (fun ((e, w) as it) ->
          let k = bucket_key it in
          match Hashtbl.find_opt by_bucket k with
          | Some d -> d
          | None ->
            let programs = model_programs (Cmswitch.compile_model ~config:(cached store) chip e w) in
            let d = (digest programs, md5_programs programs) in
            Hashtbl.add by_bucket k d;
            d)
        items
    in
    let n = Array.length items in
    { dir; items; filled; order = Rng.split rng; cyc = Array.make n None; keep = ctx.traced;
      res = Array.make n [] }

  let round st ~traced:_ ph =
    let order = Array.init (Array.length st.items) Fun.id in
    Rng.shuffle st.order order;
    Array.iter
      (fun i ->
        let e, w = st.items.(i) in
        (* a fresh handle per acquisition, as a new serving process has *)
        op ph ~item:i (e.Zoo.key ^ " " ^ Workload.to_string w)
          (fun () ->
            let store = span "cache" "store.open" (fun () -> Store.open_dir st.dir) in
            let mc =
              span "compiler" "compile_model" (fun () ->
                  Cmswitch.compile_model ~config:(cached store) chip e w)
            in
            (mc, Store.counters store))
          (fun (mc, (c : Store.counters)) ->
            let* () =
              if c.Store.misses = 0 && c.Store.hits > 0 then Ok ()
              else Error (Printf.sprintf "cache: %d hits, %d misses" c.Store.hits c.Store.misses)
            in
            let* () =
              if digest (model_programs mc) = fst st.filled.(i) then Ok ()
              else Error "replayed program differs from the cold fill"
            in
            if st.cyc.(i) = None then begin
              st.cyc.(i) <- Some mc.Cmswitch.total_cycles;
              if st.keep then st.res.(i) <- model_results mc
            end;
            Ok ()))
      order

  let workload =
    {
      setup;
      teardown = (fun st -> rm_rf st.dir);
      round;
      cycles = (fun st -> List.filter_map Fun.id (Array.to_list st.cyc));
      fingerprint =
        (fun st -> ("programs_md5", digest_refs (Array.map (fun (_, m) -> Some m) st.filled)));
      results = (fun st -> List.concat (Array.to_list st.res));
      extra = (fun st -> [ ("cache.find_ms", cache_find_ms st.dir) ]);
    }
end

(* ===================================================================== *)
(* verify-sim: both simulators over compiled programs with real weights  *)

module Verify_sim = struct
  type prog = {
    label : string;
    kernel_bound : bool;  (* prefill / conv: arithmetic dominates *)
    graph : Graph.t;      (* with seeded weights *)
    inputs : (string * Tensor.t) list;
    result : Cmswitch.result;
    cmds : int;
    macs : float;
    cycles : float;
  }

  type st = {
    smoke : bool;
    progs : prog array;
    order : Rng.t;
    refs : string option array;  (* Functional digest of the first run *)
    random_values_s : float;
    mutable max_err : float;
    functional_s : float array;  (* seconds in each simulator, per program *)
    isa_s : float array;
    runs : int array;            (* rounds each program has run in *)
  }

  (* Mid-size blocks in the shape of BERT-large and GPT2-XL (d_model 512,
     8 heads, FFN 2048): the zoo's full-width blocks need seconds of weight
     materialisation and simulation each, too slow for runs this short. *)
  let enc = { Transformer.bert_large with Transformer.model_name = "enc-512"; d_model = 512; n_heads = 8; d_ffn = 2048 }
  let dec = { Transformer.gpt2_xl with Transformer.model_name = "dec-512"; d_model = 512; n_heads = 8; d_ffn = 2048 }

  (* A ResNet basic block plus a strided conv at 28x28. *)
  let cnn ~channels =
    let b = Builder.create (Printf.sprintf "resblock-%d" channels) in
    let x = Builder.input b "image" (Shape.of_list [ 1; channels; 28; 28 ]) in
    let conv x ~ic ~oc ~stride name =
      let w = Builder.weight b (name ^ "_w") (Shape.of_list [ oc; ic; 3; 3 ]) in
      Builder.conv ~name b x w ~stride ~pad:1 ()
    in
    let y = Builder.relu b (conv x ~ic:channels ~oc:channels ~stride:1 "c1") in
    let y = conv y ~ic:channels ~oc:channels ~stride:1 "c2" in
    let y = Builder.relu b (Builder.add b y x) in
    let y = Builder.relu b (conv y ~ic:channels ~oc:(2 * channels) ~stride:2 "c3") in
    let y = Builder.global_avg_pool b y in
    let y = Builder.linear ~bias:false b y ~in_dim:(2 * channels) ~out_dim:10 ~prefix:"fc" in
    Builder.finish b ~outputs:[ y ]

  (* label, kernel-bound, graph. Shapes move a little with the seed. *)
  let specs ~smoke rng =
    let block cfg w = Transformer.build_layer cfg w ~layer_index:0 in
    let r lo hi = Rng.int_range rng lo hi in
    if smoke then
      let tiny = Transformer.tiny () in
      [ ("tiny-prefill", true, block tiny (Workload.prefill (r 6 10)));
        ("tiny-decode", false, block tiny (Workload.decode (r 6 10)));
        ("tiny-cnn", true, Cim_models.Cnn.tiny_cnn ~batch:1 ()) ]
    else
      [ ("enc-prefill-16", true, block enc (Workload.prefill (r 15 17)));
        ("enc-prefill-32", true, block enc (Workload.prefill (r 30 34)));
        ("dec-decode-64", false, block dec (Workload.decode (r 60 68)));
        ("dec-decode-256", false, block dec (Workload.decode (r 240 272)));
        ("dec-prefill-32", true, block dec (Workload.prefill (r 30 34)));
        ("resblock-64", true, cnn ~channels:64);
        ("resblock-32", true, cnn ~channels:32) ]

  let program_macs (p : Flow.program) =
    let rec go acc = function
      | Flow.Compute c -> acc +. c.macs
      | Flow.Parallel l -> List.fold_left go acc l
      | _ -> acc
    in
    List.fold_left go 0. p.Flow.instrs

  let setup ctx =
    let rng = Rng.create ctx.seed in
    let rv = ref 0. in
    let progs =
      List.map
        (fun (label, kernel_bound, g0) ->
          let result = Cmswitch.compile ~config chip g0 in
          let t0 = now () in
          let graph = Graph.with_random_values rng result.Cmswitch.graph in
          rv := !rv +. (now () -. t0);
          let inputs =
            List.map (fun (n, sh) -> (n, Tensor.rand rng sh ~lo:(-1.) ~hi:1.)) graph.Graph.graph_inputs
          in
          let program = result.Cmswitch.program in
          { label; kernel_bound; graph; inputs; result;
            cmds = Isa.cmd_count (Isa.of_flow program);
            macs = program_macs program;
            cycles = (Timing.run chip program).Timing.cycles.Timing.total })
        (specs ~smoke:ctx.smoke rng)
      |> Array.of_list
    in
    let n = Array.length progs in
    { smoke = ctx.smoke; progs; order = Rng.split rng; refs = Array.make n None;
      random_values_s = !rv; max_err = 0.; functional_s = Array.make n 0.;
      isa_s = Array.make n 0.; runs = Array.make n 0 }

  let timed acc i f =
    let t0 = now () in
    let r = f () in
    acc.(i) <- acc.(i) +. (now () -. t0);
    r

  let round st ~traced:_ ph =
    let order = Array.init (Array.length st.progs) Fun.id in
    Rng.shuffle st.order order;
    Array.iter
      (fun i ->
        let p = st.progs.(i) in
        let program = p.result.Cmswitch.program in
        st.runs.(i) <- st.runs.(i) + 1;
        op ph ~item:(2 * i) ("functional " ^ p.label)
          (fun () ->
            timed st.functional_s i (fun () ->
                span "sim" "functional.run" (fun () ->
                    Functional.run chip ~jobs:1 p.graph program ~inputs:p.inputs)))
          (fun rep ->
            st.max_err <- Float.max st.max_err rep.Functional.max_rel_err;
            let* () =
              if rep.Functional.max_rel_err < 0.30 then Ok ()
              else Error (Printf.sprintf "max_rel_err %.3f >= 0.30" rep.Functional.max_rel_err)
            in
            let* () = check_result p.result in
            against st.refs i (Functional.digest rep));
        op ph ~item:((2 * i) + 1) ("isa " ^ p.label)
          (fun () ->
            let img = span "metaop" "isa.of_flow" (fun () -> Isa.of_flow program) in
            timed st.isa_s i (fun () ->
                span "sim" "isa_sim.run" (fun () -> Isa_sim.run chip ~jobs:1 p.graph img ~inputs:p.inputs)))
          (fun rep ->
            match st.refs.(i) with
            | Some d when d = Functional.digest rep -> Ok ()
            | Some d -> Error ("ISA digest differs from the functional digest " ^ d)
            | None -> Error "no functional run to compare with"))
      order

  (* ns per multiply-accumulate of the int8 array arithmetic the simulators
     run, on decode-, prefill- and convolution-shaped operands. *)
  let kernel_probes ~smoke =
    let rng = Rng.create 7 in
    let rand dims = Tensor.rand rng (Shape.of_list dims) ~lo:(-1.) ~hi:1. in
    let qmm m k n =
      let a = Quant.quantize (rand [ m; k ]) and b = Quant.quantize (rand [ k; n ]) in
      1e9 *. time_per_call (fun () -> Quant.matmul a b) /. float_of_int (m * k * n)
    in
    let conv c hw =
      let x = rand [ 1; c; hw; hw ] and weight = rand [ c; c; 3; 3 ] in
      let matmul a b = Quant.dequantize (Quant.matmul (Quant.quantize a) (Quant.quantize b)) in
      1e9
      *. time_per_call (fun () -> Ops.conv2d_with ~matmul x ~weight ~stride:1 ~pad:1 ())
      /. float_of_int (c * c * 9 * hw * hw)
    in
    let s = if smoke then 8 else 1 in
    [ ("kernels.qmatmul_decode_ns_per_mac", qmm 1 (1600 / s) (6400 / s));
      ("kernels.qmatmul_prefill_ns_per_mac", qmm (64 / s) (1024 / s) (4096 / s));
      ("kernels.conv_ns_per_mac", conv (64 / s) (56 / s)) ]

  (* Host cost per executed ISA command on the decode programs, and MACs
     simulated per second by both simulators on the kernel-bound ones. *)
  let extra st =
    let total kernel_bound f =
      let acc = ref 0. in
      Array.iteri (fun i p -> if p.kernel_bound = kernel_bound then acc := !acc +. f i p) st.progs;
      !acc
    in
    let cmd_s = total false (fun i _ -> st.isa_s.(i)) in
    let cmds = total false (fun i p -> float_of_int (p.cmds * st.runs.(i))) in
    let mac_s = total true (fun i _ -> st.functional_s.(i) +. st.isa_s.(i)) in
    let macs = total true (fun i p -> 2. *. p.macs *. float_of_int st.runs.(i)) in
    [ ("nnir.random_values_s", st.random_values_s);
      ("sim.us_per_cmd", if cmds > 0. then 1e6 *. cmd_s /. cmds else 0.);
      ("sim.mmac_per_s", if mac_s > 0. then macs /. mac_s /. 1e6 else 0.);
      ("sim.max_rel_err", st.max_err) ]
    @ kernel_probes ~smoke:st.smoke

  let workload =
    {
      setup;
      teardown = ignore;
      round;
      cycles = (fun st -> Array.to_list (Array.map (fun p -> p.cycles) st.progs));
      fingerprint = (fun st -> ("sim_digest", digest_refs st.refs));
      results = (fun st -> Array.to_list (Array.map (fun p -> p.result) st.progs));
      extra;
    }
end

(* ===================================================================== *)
(* fleet-serve: open-loop Poisson traces through Fleet.run               *)

module Fleet_serve = struct
  type trial = {
    label : string;
    config : Fleet.config;
    schedule : Fleet.fault_event list;
    requests : Serving.request list;
  }

  type st = {
    dir : string;
    trials : trial array;
    planner : Fleet.planner;
    order : Rng.t;
    refs : string option array;  (* [digest] of each trial's first stats *)
    stats : Fleet.stats option array;
    recompiled : Cmswitch.result list ref;  (* a sample of planner outputs *)
  }

  let model = "llama2-7b"
  let prompt = 128
  let output = 64

  let setup ctx =
    let rng = Rng.create ctx.seed in
    let dir = fresh_dir ctx "fleet-serve" in
    let cfg = Cmswitch.Config.with_cache (Some (Store.open_dir dir)) config in
    let e = entry model in
    (* healthy costs: one bucketed compile per ceiling, through the cache *)
    let bucketed = Cmswitch.Config.with_buckets (Some Bucket.default) cfg in
    let cost w = (Cmswitch.compile_model ~config:bucketed chip e w).Cmswitch.total_cycles in
    let profile =
      Serving.bucketed_profile ~ceiling:(Bucket.ceiling Bucket.default)
        ~prefill_cycles:(fun s -> cost (Workload.prefill s))
        ~decode_cycles:(fun kv -> cost (Workload.decode kv))
    in
    let unit_cost =
      profile.Serving.prefill_cycles prompt
      +. (float_of_int output *. profile.Serving.decode_cycles (prompt + (output / 2)))
    in
    for kv = prompt to prompt + output do
      ignore (profile.Serving.decode_cycles kv)
    done;
    (* a chip hit by faults runs the block recompiled around them, and its
       costs scale by that block's cycles over the healthy block's *)
    let block = (Option.get e.Zoo.layer) (Workload.decode prompt) in
    let healthy = (Cmswitch.compile ~config:cfg chip block).Cmswitch.schedule.Plan.total_cycles in
    let recompiled = ref [] in
    let planner ~chip:_ ~faults =
      span "bench" "planner" (fun () ->
          if Faultmap.fault_count faults = 0 then Some { Fleet.level = 0; profile }
          else
            match
              span "compiler" "recompile" (fun () ->
                  Cmswitch.recompile ~config:(Cmswitch.Config.with_faults (Some faults) cfg) chip block)
            with
            | Error _ -> None
            | Ok o ->
              let r = o.Cmswitch.rc_result in
              if ctx.traced && List.length !recompiled < 16 then recompiled := r :: !recompiled;
              let k = r.Cmswitch.schedule.Plan.total_cycles /. healthy in
              Some
                { Fleet.level = o.Cmswitch.rc_level;
                  profile =
                    { Serving.prefill_cycles = (fun s -> k *. profile.Serving.prefill_cycles s);
                      decode_cycles = (fun kv -> k *. profile.Serving.decode_cycles kv) } })
    in
    (* six trials of 4 chips with 6 mid-run faults, six of 1 chip without.
       Twelve trials keep the seed's luck with fault timing out of the p99
       geomean; the request counts put both kinds near the same host time. *)
    let kinds =
      if ctx.smoke then [ (4, 2, 200); (1, 0, 300) ]
      else List.init 6 (fun _ -> (4, 6, 2000)) @ List.init 6 (fun _ -> (1, 0, 5000))
    in
    let trials =
      List.mapi
        (fun i (chips, faults, n) ->
          let mean_gap = unit_cost /. (float_of_int chips *. 0.9) in
          let requests = Serving.poisson_trace rng ~n ~mean_gap ~prompt ~output in
          let horizon = float_of_int n *. mean_gap in
          let schedule =
            if faults = 0 then [] else Fleet.random_schedule rng ~chip ~chips ~n:faults ~horizon
          in
          let step = unit_cost /. float_of_int (output + 1) in
          { label = Printf.sprintf "trial %d (%d chips, %d faults, %d requests)" (i + 1) chips faults n;
            config =
              { Fleet.default_config with
                Fleet.chips; slo = Some (8. *. unit_cost); jobs = 1;
                backoff_base = 0.25 *. step; backoff_cap = 4. *. step; recompile_cycles = step };
            schedule; requests })
        kinds
      |> Array.of_list
    in
    (* cache filling: plan every fault map each trial passes through *)
    Array.iter
      (fun t ->
        if t.schedule <> [] then
          ignore (Fleet.run ~config:t.config ~chip planner t.schedule [ List.hd t.requests ]))
      trials;
    let n = Array.length trials in
    { dir; trials; planner; order = Rng.split rng; refs = Array.make n None;
      stats = Array.make n None; recompiled }

  let round st ~traced:_ ph =
    let order = Array.init (Array.length st.trials) Fun.id in
    Rng.shuffle st.order order;
    Array.iter
      (fun i ->
        let t = st.trials.(i) in
        op ph ~item:i t.label
          (fun () -> span "fleet" "fleet.run" (fun () -> Fleet.run ~config:t.config ~chip st.planner t.schedule t.requests))
          (fun (s : Fleet.stats) ->
            let* () =
              if s.Fleet.completed + s.Fleet.dropped + s.Fleet.shed = s.Fleet.offered then Ok ()
              else
                Error
                  (Printf.sprintf "completed %d + dropped %d + shed %d <> offered %d" s.Fleet.completed
                     s.Fleet.dropped s.Fleet.shed s.Fleet.offered)
            in
            if st.stats.(i) = None then st.stats.(i) <- Some s;
            against st.refs i (digest s)))
      order

  (* Called after the traced phase, whose rounds ran every trial equally
     often: the event loop's self time over the tokens it served. *)
  let extra st =
    let stats = List.filter_map Fun.id (Array.to_list st.stats) in
    let mean f =
      match stats with
      | [] -> 0.
      | _ -> List.fold_left (fun acc s -> acc +. float_of_int (f s)) 0. stats /. float_of_int (List.length stats)
    in
    let loop_s, runs =
      match List.assoc_opt "fleet.run" (Spans.by_name (Spans.spans ())) with
      | Some v -> v
      | None -> (0., 0)
    in
    let tokens = mean (fun s -> s.Fleet.tokens) *. float_of_int runs in
    [ ("fleet.recompiles", mean (fun s -> s.Fleet.recompiles));
      ("fleet.shed", mean (fun s -> s.Fleet.shed));
      ("fleet.us_per_token", if tokens > 0. then 1e6 *. loop_s /. tokens else 0.);
      ("cache.find_ms", cache_find_ms st.dir) ]

  let workload =
    {
      setup;
      teardown = (fun st -> rm_rf st.dir);
      round;
      cycles =
        (fun st ->
          List.filter_map (Option.map (fun (s : Fleet.stats) -> s.Fleet.p99_latency)) (Array.to_list st.stats));
      fingerprint = (fun st -> ("fleet_stats_md5", digest_refs st.refs));
      results = (fun st -> !(st.recompiled));
      extra;
    }
end

let all =
  [ ("zoo-cold", W Zoo_cold.workload); ("decode-warm", W Decode_warm.workload);
    ("verify-sim", W Verify_sim.workload); ("fleet-serve", W Fleet_serve.workload) ]

let names = List.map fst all
let find name = List.assoc_opt name all
