(* The content-addressed compilation cache: the Store's integrity
   guarantees (bad entries are misses, never wrong payloads), payload
   round-trips, and the end-to-end contract — a warm compile replays a
   byte-identical program, and a corrupted cache silently degrades to a
   cold compile. *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo
module Store = Cim_cache.Store
module Cmswitch = Cim_compiler.Cmswitch
module Cfg = Cim_compiler.Cmswitch.Config
module Ccache = Cim_compiler.Ccache
module Segment = Cim_compiler.Segment
module Opinfo = Cim_compiler.Opinfo
module Flow = Cim_metaop.Flow

let chip = Config.dynaplasia

let fresh_dir () = Filename.temp_dir "cmswitch-cache-test" ""

(* one transformer block at short sequence length: big enough to exercise
   multi-segment DP, small enough to keep the suite quick *)
let small_graph () =
  let e = Option.get (Zoo.find "bert-large") in
  (Option.get e.Zoo.layer) (Workload.prefill ~batch:1 16)

(* --- store ---------------------------------------------------------------- *)

let test_store_round_trip () =
  let s = Store.open_dir (fresh_dir ()) in
  Alcotest.(check (option string)) "miss on empty" None
    (Store.find s ~tier:"seg" ~key:"k1");
  Store.put s ~tier:"seg" ~key:"k1" ~payload:"hello";
  Store.put s ~tier:"prog" ~key:"k1" ~payload:"world";
  Alcotest.(check (option string)) "seg entry" (Some "hello")
    (Store.find s ~tier:"seg" ~key:"k1");
  Alcotest.(check (option string)) "prog entry, same key, distinct tier"
    (Some "world")
    (Store.find s ~tier:"prog" ~key:"k1");
  (* a second handle on the same directory sees the entries: persistence *)
  let s2 = Store.open_dir (Store.dir s) in
  Alcotest.(check (option string)) "persisted" (Some "hello")
    (Store.find s2 ~tier:"seg" ~key:"k1");
  let c = Store.counters s in
  Alcotest.(check int) "hits" 2 c.Store.hits;
  Alcotest.(check int) "misses" 1 c.Store.misses;
  Alcotest.(check int) "puts" 2 c.Store.puts;
  Alcotest.(check int) "invalid" 0 c.Store.invalid;
  Alcotest.(check (list (pair string string))) "verify clean" []
    (Store.verify s)

let test_store_overwrite () =
  let s = Store.open_dir (fresh_dir ()) in
  Store.put s ~tier:"seg" ~key:"k" ~payload:"v1";
  Store.put s ~tier:"seg" ~key:"k" ~payload:"v2";
  Alcotest.(check (option string)) "latest wins" (Some "v2")
    (Store.find s ~tier:"seg" ~key:"k");
  let d = Store.disk_stats s in
  Alcotest.(check int) "single entry on disk" 1 d.Store.total_entries

let corrupt path =
  let oc = open_out path in
  output_string oc "{ not json";
  close_out oc

let test_store_corrupt_entry_is_miss () =
  let s = Store.open_dir (fresh_dir ()) in
  Store.put s ~tier:"seg" ~key:"k" ~payload:"payload";
  corrupt (Store.entry_path s ~tier:"seg" ~key:"k");
  Alcotest.(check (option string)) "corrupt entry misses" None
    (Store.find s ~tier:"seg" ~key:"k");
  let c = Store.counters s in
  Alcotest.(check int) "counted invalid" 1 c.Store.invalid;
  Alcotest.(check int) "invalid is a miss" 1 c.Store.misses;
  Alcotest.(check bool) "verify reports it" true (Store.verify s <> [])

let test_store_truncated_entry_is_miss () =
  let s = Store.open_dir (fresh_dir ()) in
  Store.put s ~tier:"seg" ~key:"k" ~payload:(String.make 4096 'x');
  let path = Store.entry_path s ~tier:"seg" ~key:"k" in
  (* keep it valid-prefix-of-JSON-free: chop the file mid-payload *)
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full / 2));
  close_out oc;
  Alcotest.(check (option string)) "truncated entry misses" None
    (Store.find s ~tier:"seg" ~key:"k");
  Alcotest.(check int) "counted invalid" 1 (Store.counters s).Store.invalid

let test_store_relocated_entry_is_miss () =
  (* an entry copied to a different key's address records the wrong key:
     integrity check must refuse it rather than serve another key's data *)
  let s = Store.open_dir (fresh_dir ()) in
  Store.put s ~tier:"seg" ~key:"a" ~payload:"payload-for-a";
  let src = Store.entry_path s ~tier:"seg" ~key:"a" in
  let dst = Store.entry_path s ~tier:"seg" ~key:"b" in
  let ic = open_in_bin src in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc body;
  close_out oc;
  Alcotest.(check (option string)) "relocated entry misses" None
    (Store.find s ~tier:"seg" ~key:"b");
  Alcotest.(check int) "counted invalid" 1 (Store.counters s).Store.invalid;
  Alcotest.(check (option string)) "original still hits" (Some "payload-for-a")
    (Store.find s ~tier:"seg" ~key:"a")

let test_store_clear () =
  let s = Store.open_dir (fresh_dir ()) in
  Store.put s ~tier:"seg" ~key:"a" ~payload:"x";
  Store.put s ~tier:"prog" ~key:"b" ~payload:"y";
  Alcotest.(check int) "clear count" 2 (Store.clear s);
  Alcotest.(check int) "empty after clear" 0
    (Store.disk_stats s).Store.total_entries

(* --- payloads ------------------------------------------------------------- *)

let test_prog_payload_round_trip () =
  let g = small_graph () in
  let r = Cmswitch.compile chip g in
  let p =
    {
      Ccache.segments = List.map (fun sp -> sp.Cim_compiler.Placement.plan) r.Cmswitch.places;
      program_md5 = Flow.digest r.Cmswitch.program;
      mip_solves = r.Cmswitch.dp_stats.Segment.mip_solves;
      mip_cache_hits = r.Cmswitch.dp_stats.Segment.mip_cache_hits;
      candidates = r.Cmswitch.dp_stats.Segment.candidates;
      pruned_infeasible = r.Cmswitch.dp_stats.Segment.pruned_infeasible;
      events = r.Cmswitch.degradation.Cim_compiler.Degrade.events;
    }
  in
  match Ccache.prog_payload_of_string (Ccache.prog_payload_to_string p) with
  | Error e -> Alcotest.failf "prog payload round trip: %s" e
  | Ok p' ->
    Alcotest.(check string) "program digest" p.Ccache.program_md5 p'.Ccache.program_md5;
    Alcotest.(check int) "segment count" (List.length p.Ccache.segments)
      (List.length p'.Ccache.segments);
    (* the decoder drops intra_cycles by design — the loader recomputes it
       from the cost model rather than trust a stored float *)
    let strip = List.map (fun pl -> { pl with Cim_compiler.Plan.intra_cycles = 0. }) in
    Alcotest.(check bool) "segments equal modulo intra_cycles" true
      (strip p.Ccache.segments = p'.Ccache.segments);
    Alcotest.(check int) "mip_solves" p.Ccache.mip_solves p'.Ccache.mip_solves;
    Alcotest.(check bool) "events equal" true (p.Ccache.events = p'.Ccache.events)

let test_prog_payload_rejects_garbage () =
  List.iter
    (fun s ->
      match Ccache.prog_payload_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "prog payload accepted %S" s)
    [ ""; "null"; "[]"; "{}"; "{\"segments\":3}" ]

(* --- whole-program tier, end to end --------------------------------------- *)

let compile_with_store ?(jobs = 1) store g =
  let cfg = Cfg.(default |> with_jobs jobs |> with_cache (Some store)) in
  Cmswitch.compile ~config:cfg chip g

let test_compile_twice_hits () =
  let dir = fresh_dir () in
  let g = small_graph () in
  let cold_store = Store.open_dir dir in
  let cold = compile_with_store cold_store g in
  Alcotest.(check int) "cold run has no prog hits" 0
    (Store.tier_counters cold_store Ccache.prog_tier).Store.hits;
  Alcotest.(check bool) "cold run populated the prog tier" true
    ((Store.tier_counters cold_store Ccache.prog_tier).Store.puts > 0);
  (* a fresh store handle on the same directory: cross-process warm start *)
  let warm_store = Store.open_dir dir in
  let warm = compile_with_store warm_store g in
  Alcotest.(check int) "warm run hits the prog tier" 1
    (Store.tier_counters warm_store Ccache.prog_tier).Store.hits;
  (* a store-level hit whose replay failed semantically would recompile and
     re-put: assert the entry was actually trusted *)
  Alcotest.(check int) "warm run rejected nothing" 0
    (Store.counters warm_store).Store.invalid;
  Alcotest.(check int) "warm run re-stored nothing" 0
    (Store.tier_counters warm_store Ccache.prog_tier).Store.puts;
  Alcotest.(check string) "byte-identical program"
    (Flow.to_string cold.Cmswitch.program)
    (Flow.to_string warm.Cmswitch.program);
  Alcotest.(check bool) "identical schedule" true
    (cold.Cmswitch.schedule = warm.Cmswitch.schedule);
  Alcotest.(check bool) "identical dp stats" true
    (cold.Cmswitch.dp_stats = warm.Cmswitch.dp_stats);
  Alcotest.(check bool) "replayed program validates" true
    (Flow.validate chip warm.Cmswitch.program = Ok ())

(* the prog-tier key a default compile of [g] stores under *)
let default_prog_key g =
  Ccache.prog_key
    ~graph_text:(Cim_nnir.Text.to_string g)
    ~chip ~faults:None
    ~config:(Cfg.canonical Cfg.default)
    ~passes:Cim_compiler.Passes.default_fingerprint ()

let test_corrupted_prog_entry_degrades_to_cold () =
  let dir = fresh_dir () in
  let g = small_graph () in
  let cold = compile_with_store (Store.open_dir dir) g in
  let s = Store.open_dir dir in
  let key = default_prog_key g in
  let path = Store.entry_path s ~tier:Ccache.prog_tier ~key in
  Alcotest.(check bool) "entry exists where prog_key points" true
    (Sys.file_exists path);
  corrupt path;
  let warm = compile_with_store s g in
  Alcotest.(check int) "corrupt entry is a miss" 0
    (Store.tier_counters s Ccache.prog_tier).Store.hits;
  Alcotest.(check bool) "and is counted invalid" true
    ((Store.counters s).Store.invalid > 0);
  Alcotest.(check string) "cold recompile, same program"
    (Flow.to_string cold.Cmswitch.program)
    (Flow.to_string warm.Cmswitch.program)

(* a well-formed entry whose program digest is off by one hex digit passes
   the store and the payload decoder; only the replay's [cache_compare]
   catches it, and the compile falls back to cold *)
let test_wrong_digest_fails_compare () =
  let dir = fresh_dir () in
  let g = small_graph () in
  let cold = compile_with_store (Store.open_dir dir) g in
  let s = Store.open_dir dir in
  let key = default_prog_key g in
  let p =
    match Store.find s ~tier:Ccache.prog_tier ~key with
    | None -> Alcotest.fail "cold compile stored no prog entry"
    | Some payload -> (
      match Ccache.prog_payload_of_string payload with
      | Ok p -> p
      | Error e -> Alcotest.failf "stored prog payload does not decode: %s" e)
  in
  let md5 = Bytes.of_string p.Ccache.program_md5 in
  Bytes.set md5 0 (if Bytes.get md5 0 = '0' then '1' else '0');
  Store.put s ~tier:Ccache.prog_tier ~key
    ~payload:
      (Ccache.prog_payload_to_string
         { p with Ccache.program_md5 = Bytes.to_string md5 });
  let s = Store.open_dir dir in
  let warm = compile_with_store s g in
  Alcotest.(check int) "rejected entry is no hit" 0
    (Store.tier_counters s Ccache.prog_tier).Store.hits;
  Alcotest.(check bool) "and is counted invalid" true
    ((Store.tier_counters s Ccache.prog_tier).Store.invalid >= 1);
  Alcotest.(check string) "cold recompile, same program"
    (Flow.to_string cold.Cmswitch.program)
    (Flow.to_string warm.Cmswitch.program)

let test_warm_parallel_matches_cold_serial () =
  (* the determinism contract survives the cache: a warm jobs=4 compile
     replays the jobs=1 cold result byte for byte *)
  let dir = fresh_dir () in
  let g = small_graph () in
  let cold = compile_with_store ~jobs:1 (Store.open_dir dir) g in
  let warm_store = Store.open_dir dir in
  let warm = compile_with_store ~jobs:4 warm_store g in
  Alcotest.(check int) "jobs=4 hits the jobs=1 entry" 1
    (Store.tier_counters warm_store Ccache.prog_tier).Store.hits;
  Alcotest.(check int) "jobs=4 run rejected nothing" 0
    (Store.counters warm_store).Store.invalid;
  Alcotest.(check string) "byte-identical across job counts"
    (Flow.to_string cold.Cmswitch.program)
    (Flow.to_string warm.Cmswitch.program)

let test_config_change_misses () =
  let dir = fresh_dir () in
  let g = small_graph () in
  let _ = compile_with_store (Store.open_dir dir) g in
  let s = Store.open_dir dir in
  let cfg =
    Cfg.(default |> with_max_segment_ops 5 |> with_cache (Some s))
  in
  let _ = Cmswitch.compile ~config:cfg chip g in
  Alcotest.(check int) "different window cap, different key" 0
    (Store.tier_counters s Ccache.prog_tier).Store.hits

(* --- per-segment tier, cross-run ------------------------------------------ *)

let test_seg_tier_skips_resolves () =
  let dir = fresh_dir () in
  let g = small_graph () in
  let ops = Opinfo.extract chip g in
  let opts store =
    { (Cfg.to_segment_options Cfg.default) with Segment.cache = Some store }
  in
  let s1 = Store.open_dir dir in
  let plans1, stats1 = Segment.run ~options:(opts s1) chip ops in
  Alcotest.(check bool) "cold run solves" true (stats1.Segment.mip_solves > 0);
  Alcotest.(check bool) "cold run stores windows" true
    ((Store.tier_counters s1 Ccache.seg_tier).Store.puts > 0);
  let s2 = Store.open_dir dir in
  let plans2, stats2 = Segment.run ~options:(opts s2) chip ops in
  Alcotest.(check int) "warm run re-solves nothing" 0 stats2.Segment.mip_solves;
  Alcotest.(check bool) "warm run hit the seg tier" true
    ((Store.tier_counters s2 Ccache.seg_tier).Store.hits > 0);
  Alcotest.(check bool) "identical segmentation" true (plans1 = plans2)

let suite =
  ( "cache",
    [
      Alcotest.test_case "store round trip" `Quick test_store_round_trip;
      Alcotest.test_case "store overwrite" `Quick test_store_overwrite;
      Alcotest.test_case "corrupt entry is a miss" `Quick
        test_store_corrupt_entry_is_miss;
      Alcotest.test_case "truncated entry is a miss" `Quick
        test_store_truncated_entry_is_miss;
      Alcotest.test_case "relocated entry is a miss" `Quick
        test_store_relocated_entry_is_miss;
      Alcotest.test_case "clear" `Quick test_store_clear;
      Alcotest.test_case "prog payload round trip" `Quick
        test_prog_payload_round_trip;
      Alcotest.test_case "prog payload rejects garbage" `Quick
        test_prog_payload_rejects_garbage;
      Alcotest.test_case "compile twice hits" `Quick test_compile_twice_hits;
      Alcotest.test_case "corrupted entry degrades to cold" `Quick
        test_corrupted_prog_entry_degrades_to_cold;
      Alcotest.test_case "wrong program digest fails the replay compare" `Quick
        test_wrong_digest_fails_compare;
      Alcotest.test_case "warm parallel matches cold serial" `Quick
        test_warm_parallel_matches_cold_serial;
      Alcotest.test_case "config change misses" `Quick test_config_change_misses;
      Alcotest.test_case "seg tier skips re-solves" `Quick
        test_seg_tier_skips_resolves;
    ] )
