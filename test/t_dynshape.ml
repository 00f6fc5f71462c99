(* Dynamic-shape fast path: the bucket policy, bucket-aware cache keys,
   the bucketed serving profile, and the serving-side per-token
   statistics. The load-bearing claims:

   - lengths map to bucket ceilings exactly at/below/above each boundary,
     and beyond the last boundary compilation falls back to the exact length
   - every length inside a bucket shares one cached program; adjacent
     buckets NEVER collide (distinct prog-tier keys)
   - a warm bucketed compile re-solves zero MILPs (the B&B solver is never
     entered)
   - [serve --buckets] prices each (phase, ceiling) with one compile_model,
     at any job count *)

module Cmswitch = Cim_compiler.Cmswitch
module Cfg = Cim_compiler.Cmswitch.Config
module Bucket = Cim_compiler.Bucket
module Ccache = Cim_compiler.Ccache
module Shape_infer = Cim_nnir.Shape_infer
module Store = Cim_cache.Store
module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo
module Transformer = Cim_models.Transformer
module Serving = Cim_sim.Serving
module Fleet = Cim_sim.Fleet
module Scenario = Cim_serve.Scenario
module Metrics = Cim_obs.Metrics
module Telemetry = Cim_obs.Telemetry
module Json = Cim_obs.Json
module Flow = Cim_metaop.Flow

let chip = Cim_arch.Config.dynaplasia

(* a 2-block decoder small enough to compile in milliseconds *)
let tiny_cfg =
  { Transformer.model_name = "TinyDecoder"; n_layers = 2; d_model = 64;
    n_heads = 2; d_ffn = 128; vocab = 128; norm = Transformer.Layernorm;
    act = Transformer.Gelu_act; causal = true }

let tiny_entry =
  { Zoo.key = "tiny-decoder"; display = "TinyDecoder";
    family = Zoo.Decoder_only;
    build = (fun w -> Transformer.build tiny_cfg w);
    layer = Some (fun w -> Transformer.build_layer tiny_cfg w ~layer_index:0);
    n_layers = tiny_cfg.Transformer.n_layers;
    params = Transformer.param_count tiny_cfg }

let md5_of_mc (mc : Cmswitch.model_cost) =
  let part = function
    | None -> ""
    | Some (r : Cmswitch.result) -> Flow.to_string r.Cmswitch.program
  in
  Digest.to_hex
    (Digest.string
       (part mc.Cmswitch.layer ^ part mc.Cmswitch.whole ^ part mc.Cmswitch.head))

let with_temp_store f =
  let dir = Filename.temp_dir "cmswitch-test-dynshape" "" in
  let s = Store.open_dir dir in
  Fun.protect ~finally:(fun () -> ignore (Store.clear s)) (fun () -> f s)

(* ---- bucket policy ------------------------------------------------------- *)

let test_pow2_boundaries () =
  let b = Bucket.default in
  (* pow2, ceilings 32..2048 *)
  let cases =
    [ (1, 32); (31, 32); (32, 32); (33, 64); (63, 64); (64, 64); (65, 128);
      (127, 128); (128, 128); (129, 256); (2047, 2048); (2048, 2048);
      (* beyond the last ceiling: exact-length compilation, no padding *)
      (2049, 2049); (4096, 4096) ]
  in
  List.iter
    (fun (len, want) ->
      Alcotest.(check int)
        (Printf.sprintf "pow2 ceiling of %d" len)
        want (Bucket.ceiling b len))
    cases;
  let b16 = Bucket.pow2 ~min_ceiling:16 ~max_ceiling:64 () in
  List.iter
    (fun (len, want) ->
      Alcotest.(check int)
        (Printf.sprintf "pow2:16:64 ceiling of %d" len)
        want (Bucket.ceiling b16 len))
    [ (1, 16); (16, 16); (17, 32); (64, 64); (65, 65) ]

let test_explicit_boundaries () =
  let b = Bucket.explicit [ 128; 32; 64 ] (* sorted + deduped internally *) in
  Alcotest.(check (list int)) "boundaries sorted" [ 32; 64; 128 ]
    (Bucket.boundaries b);
  List.iter
    (fun (len, want) ->
      Alcotest.(check int)
        (Printf.sprintf "explicit ceiling of %d" len)
        want (Bucket.ceiling b len))
    [ (1, 32); (32, 32); (33, 64); (64, 64); (65, 128); (128, 128); (129, 129) ];
  Alcotest.check_raises "empty boundary list rejected"
    (Invalid_argument "Bucket.explicit: empty boundary list") (fun () ->
      ignore (Bucket.explicit []));
  (* ceilings never shrink a length: the padding-soundness precondition *)
  List.iter
    (fun b ->
      for len = 1 to 300 do
        if Bucket.ceiling b len < len then
          Alcotest.failf "ceiling %d < length %d" (Bucket.ceiling b len) len
      done)
    [ Bucket.default; b; Bucket.pow2 ~min_ceiling:48 ~max_ceiling:50 () ]

let test_policy_round_trips () =
  List.iter
    (fun b ->
      (match Bucket.of_canonical (Bucket.canonical b) with
      | Ok b' ->
        Alcotest.(check bool)
          ("canonical round trip of " ^ Bucket.canonical b)
          true (Bucket.equal b b')
      | Error e -> Alcotest.failf "of_canonical rejected its own output: %s" e);
      match Bucket.of_string (Bucket.to_string b) with
      | Ok b' ->
        Alcotest.(check bool)
          ("of_string round trip of " ^ Bucket.to_string b)
          true (Bucket.equal b b')
      | Error e -> Alcotest.failf "of_string rejected its own output: %s" e)
    [ Bucket.default; Bucket.pow2 ~min_ceiling:16 ~max_ceiling:4096 ();
      Bucket.explicit [ 7 ]; Bucket.explicit [ 32; 64; 512 ] ];
  List.iter
    (fun s ->
      match Bucket.of_string s with
      | Ok _ -> Alcotest.failf "of_string accepted %S" s
      | Error _ -> ())
    [ ""; "pow2:0"; "pow2:64:32"; "pow2:4096"; "0,4"; "abc"; "32,";
      "pow2:1:2:3:4" ]

(* ---- bucket-aware cache keys --------------------------------------------- *)

let test_bucket_cache_sharing_and_isolation () =
  with_temp_store @@ fun store ->
  let cfg =
    Cfg.(
      default |> with_jobs 1 |> with_cache (Some store)
      |> with_buckets (Some Bucket.default))
  in
  let compile kv =
    Cmswitch.compile_model ~config:cfg chip tiny_entry (Workload.decode ~batch:1 kv)
  in
  let prog () = Store.tier_counters store Ccache.prog_tier in
  (* kv=20 -> context 21 -> ceiling 32: cold *)
  let a = compile 20 in
  let c0 = prog () in
  Alcotest.(check int) "first compile misses" 0 c0.Store.hits;
  (* kv=25 -> context 26 -> same ceiling 32: must hit, byte-identical *)
  let b = compile 25 in
  let c1 = prog () in
  Alcotest.(check bool) "same bucket hits the prog tier" true
    (c1.Store.hits > c0.Store.hits);
  Alcotest.(check int) "same bucket adds no misses" c0.Store.misses c1.Store.misses;
  Alcotest.(check string) "same bucket replays identical program" (md5_of_mc a)
    (md5_of_mc b);
  Alcotest.(check int) "requested workload is preserved" 25
    (match b.Cmswitch.workload.Workload.phase with
    | Workload.Decode { kv_len } -> kv_len
    | _ -> -1);
  (* kv=31 -> context 32 -> ceiling 32 still; kv=32 -> context 33 -> ceiling
     64: the adjacent bucket must NOT collide with the cached 32-program *)
  let _ = compile 31 in
  let c2 = prog () in
  let d = compile 32 in
  let c3 = prog () in
  Alcotest.(check bool) "adjacent bucket misses (no key collision)" true
    (c3.Store.misses > c2.Store.misses);
  Alcotest.(check bool) "adjacent bucket compiles a different program" true
    (md5_of_mc d <> md5_of_mc a);
  Alcotest.(check (option int)) "adjacent bucket ceiling" (Some 64)
    d.Cmswitch.bucket_ceiling;
  (* [cmswitch cache stats] reads each ceiling back out of the prog keys *)
  Alcotest.(check (list (option int))) "prog keys read back their ceilings"
    [ Some 32; Some 64 ]
    (List.sort_uniq compare
       (Store.fold_keys store ~tier:Ccache.prog_tier ~init:[] ~f:(fun acc key ->
            Ccache.bucket_ceiling key :: acc)))

(* the prog-key shape fragment: Ccache writes it and reads the ceiling
   back, and the reader is total *)
let test_prog_key_ceiling () =
  let key ?shape graph_text =
    Ccache.prog_key ?shape ~graph_text ~chip ~faults:None ~config:"config"
      ~passes:"passes" ()
  in
  Alcotest.(check (option int)) "pow2 policy round trip" (Some 128)
    (Ccache.bucket_ceiling
       (key ~shape:(Ccache.shape_fragment Bucket.default ~ceil:128) "g"));
  Alcotest.(check (option int)) "explicit policy round trip" (Some 100)
    (Ccache.bucket_ceiling
       (key ~shape:(Ccache.shape_fragment (Bucket.explicit [ 7; 100 ]) ~ceil:100) "g"));
  (* the reader looks at the shape line only, not at the graph text *)
  Alcotest.(check (option int)) "unbucketed key" None
    (Ccache.bucket_ceiling (key "shape.v1(buckets.v1(pow2:32:2048):ceil=64)"));
  List.iter
    (fun shape ->
      Alcotest.(check (option int)) ("malformed fragment " ^ shape) None
        (Ccache.bucket_ceiling (key ~shape "g")))
    [ ""; "shape:none"; "shape.v1()"; "shape.v1(=)"; "shape.v1(:ceil=64)";
      "shape.v2(buckets.v1(pow2:32:2048):ceil=64)";
      "shape.v1(buckets.v1(pow2:32:2048):ceil=64";
      "shape.v1(buckets.v1(pow2:32:2048):cei=64)";
      "shape.v1(buckets.v1(pow2:32:2048):ceil=)";
      "shape.v1(buckets.v1(pow2:32:2048):ceil=12x)";
      "shape.v1(buckets.v1(pow2:32:2048):ceil=0)";
      "shape.v1(buckets.v1(pow2:32:2048):ceil=-4)";
      "shape.v1(buckets.v1(pow2:32:2048):ceil=064)";
      "shape.v1(buckets.v1(pow2:32:2048):ceil=0x40)";
      "shape.v1(buckets.v1(pow2:32:2048):ceil=99999999999999999999999)" ];
  List.iter
    (fun k ->
      Alcotest.(check (option int)) "not a prog key" None (Ccache.bucket_ceiling k))
    [ ""; "shape.v1(buckets.v1(pow2:32:2048):ceil=64)";
      "seg.v1\nchip\nalloc\nsignature\nx\nshape.v1(buckets.v1(pow2:32:2048):ceil=64)";
      (* an older cache's key, whose payload held the Flow digest *)
      "prog.v1\nchip\nfaults\nconfig\npasses\nshape.v1(buckets.v1(pow2:32:2048):ceil=64)\ng" ]

let test_warm_bucketed_resolves_zero_milps () =
  with_temp_store @@ fun store ->
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) @@ fun () ->
  let cfg =
    Cfg.(
      default |> with_jobs 1 |> with_cache (Some store)
      |> with_buckets (Some Bucket.default))
  in
  let compile kv =
    Cmswitch.compile_model ~config:cfg chip tiny_entry (Workload.decode ~batch:1 kv)
  in
  let cold = compile 40 in
  let bb = Metrics.counter "solver.bb.nodes" in
  let before = Metrics.counter_value bb in
  (* warm: same bucket (context 41..64 -> ceiling 64) from a fresh handle,
     as a new process would open the directory *)
  let store' = Store.open_dir (Store.dir store) in
  let cfg' = Cfg.with_cache (Some store') cfg in
  let warm =
    Cmswitch.compile_model ~config:cfg' chip tiny_entry (Workload.decode ~batch:1 50)
  in
  Alcotest.(check (float 0.)) "warm bucketed compile never enters the solver"
    before (Metrics.counter_value bb);
  Alcotest.(check string) "warm program byte-identical" (md5_of_mc cold)
    (md5_of_mc warm)

(* ---- the serve --buckets pricing path ------------------------------------ *)

let test_scenario_bucketed_profile () =
  let b = Bucket.pow2 ~min_ceiling:16 ~max_ceiling:64 () in
  (* prefill ceilings 16, 16, 32, 32, 64; decode contexts 11, 13, 16, 17,
     21, 41 -> ceilings 16, 16, 16, 32, 32, 64 *)
  let prefills = [ 5; 16; 17; 30; 40 ] and decodes = [ 10; 12; 15; 16; 20; 40 ] in
  let prices jobs =
    let config = Cfg.(default |> with_jobs jobs) in
    let t = Telemetry.create () in
    let p =
      Scenario.bucketed_profile ~telemetry:t ~config chip tiny_entry ~batch:1 b
    in
    let full w =
      (Cmswitch.compile_model ~config:(Cfg.with_buckets (Some b) config) chip
         tiny_entry w)
        .Cmswitch.total_cycles
    in
    let check what price w =
      Alcotest.(check (float 0.))
        (Printf.sprintf "jobs=%d %s = compile_model" jobs what)
        (full w) price;
      price
    in
    let ps =
      List.map
        (fun s ->
          check (Printf.sprintf "prefill %d" s) (p.Serving.prefill_cycles s)
            (Workload.prefill ~batch:1 s))
        prefills
    in
    let ds =
      List.map
        (fun kv ->
          check (Printf.sprintf "decode kv=%d" kv) (p.Serving.decode_cycles kv)
            (Workload.decode ~batch:1 kv))
        decodes
    in
    (* one bucket_compile span per distinct (phase, ceiling) *)
    let spans =
      match Json.member "spans" (Telemetry.to_json t) with
      | Some (Json.List l) -> l
      | _ -> Alcotest.fail "telemetry document has no span list"
    in
    let compiled =
      List.filter_map
        (fun sp ->
          match (Json.member "name" sp, Json.member "attrs" sp) with
          | Some (Json.String "bucket_compile"), Some attrs -> (
            match (Json.member "workload" attrs, Json.member "ceiling" attrs) with
            | Some (Json.String w), Some (Json.Int c) ->
              Some (String.sub w 0 (String.index w '('), c)
            | _ -> Alcotest.fail "bucket_compile span lacks its attributes")
          | _ -> None)
        spans
    in
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "jobs=%d one compile per (phase, ceiling)" jobs)
      [ ("decode", 16); ("decode", 32); ("decode", 64); ("prefill", 16);
        ("prefill", 32); ("prefill", 64) ]
      (List.sort compare compiled);
    ps @ ds
  in
  Alcotest.(check (list (float 0.))) "prices agree at jobs 1 and 4" (prices 1)
    (prices 4)

let test_padded_graph_dominates () =
  let g_small = Transformer.build_layer tiny_cfg (Workload.decode ~batch:1 20) ~layer_index:0 in
  let g_big = Transformer.build_layer tiny_cfg (Workload.decode ~batch:1 31) ~layer_index:0 in
  (match Shape_infer.dominates ~over:g_big ~under:g_small with
  | Ok () -> ()
  | Error e -> Alcotest.failf "padded graph should dominate: %s" e);
  match Shape_infer.dominates ~over:g_small ~under:g_big with
  | Ok () -> Alcotest.fail "smaller graph must not dominate a larger one"
  | Error _ -> ()

(* ---- serving-side statistics --------------------------------------------- *)

let test_serving_tpt_percentiles () =
  let profile =
    { Serving.prefill_cycles = (fun s -> 10. *. float_of_int s);
      decode_cycles = (fun kv -> 5. +. float_of_int kv) }
  in
  let reqs =
    [ { Serving.arrival = 0.; prompt = 8; output = 10 };
      { Serving.arrival = 1.; prompt = 16; output = 20 } ]
  in
  let s = One_chip.serve profile reqs in
  Alcotest.(check bool) "tpt percentiles are positive" true (s.Fleet.p50_tpt > 0.);
  Alcotest.(check bool) "p50 <= p95" true (s.Fleet.p50_tpt <= s.Fleet.p95_tpt);
  Alcotest.(check bool) "p95 <= p99" true (s.Fleet.p95_tpt <= s.Fleet.p99_tpt);
  (* the worst decode step is the last token of the longer request *)
  Alcotest.(check (float 1e-9)) "p99 is the worst decode step"
    (5. +. float_of_int (16 + 19))
    s.Fleet.p99_tpt;
  let empty = One_chip.serve profile [] in
  Alcotest.(check (float 0.)) "empty trace has zero tpt" 0. empty.Fleet.p50_tpt

let test_bucketed_profile () =
  let calls = ref [] in
  let ceiling l = ((l + 15) / 16) * 16 in
  let p =
    Serving.bucketed_profile ~ceiling
      ~prefill_cycles:(fun s ->
        calls := ("p", s) :: !calls;
        float_of_int s)
      ~decode_cycles:(fun kv ->
        calls := ("d", kv) :: !calls;
        float_of_int kv)
  in
  (* decode buckets the CONTEXT (kv+1) and hands the coster the bucketed kv *)
  Alcotest.(check (float 0.)) "decode kv=10 prices at ceiling(11)-1 = 15" 15.
    (p.Serving.decode_cycles 10);
  Alcotest.(check (float 0.)) "decode kv=14 shares the bucket" 15.
    (p.Serving.decode_cycles 14);
  Alcotest.(check (float 0.)) "decode kv=16 crosses" 31.
    (p.Serving.decode_cycles 16);
  Alcotest.(check (float 0.)) "prefill prices at the ceiling" 16.
    (p.Serving.prefill_cycles 10);
  let decode_calls = List.filter (fun (k, _) -> k = "d") !calls in
  Alcotest.(check int) "one decode coster call per distinct ceiling" 2
    (List.length decode_calls);
  Alcotest.check_raises "shrinking ceiling rejected"
    (Invalid_argument "Serving.bucketed_profile: ceiling 8 below length 10")
    (fun () ->
      ignore
        ((Serving.bucketed_profile
            ~ceiling:(fun _ -> 8)
            ~prefill_cycles:float_of_int ~decode_cycles:float_of_int)
           .Serving.prefill_cycles 10))

let suite =
  ( "dynshape",
    [
      Alcotest.test_case "pow2 boundaries" `Quick test_pow2_boundaries;
      Alcotest.test_case "explicit boundaries" `Quick test_explicit_boundaries;
      Alcotest.test_case "policy round trips" `Quick test_policy_round_trips;
      Alcotest.test_case "bucket cache sharing and isolation" `Quick
        test_bucket_cache_sharing_and_isolation;
      Alcotest.test_case "prog key ceiling reader" `Quick test_prog_key_ceiling;
      Alcotest.test_case "warm bucketed re-solves zero MILPs" `Quick
        test_warm_bucketed_resolves_zero_milps;
      Alcotest.test_case "padded graph dominates" `Quick
        test_padded_graph_dominates;
      Alcotest.test_case "serving tpt percentiles" `Quick
        test_serving_tpt_percentiles;
      Alcotest.test_case "bucketed cost profile" `Quick test_bucketed_profile;
      Alcotest.test_case "bucketed serving prices via compile_model" `Quick
        test_scenario_bucketed_profile;
    ] )
