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
module Isa = Cim_metaop.Isa
module Check = Cim_metaop.Check
module J = Cim_obs.Json

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
      cmsi_md5 = Isa.digest r.Cmswitch.program;
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
    Alcotest.(check string) "program digest" p.Ccache.cmsi_md5 p'.Ccache.cmsi_md5;
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
    (Check.is_valid (Check.run chip warm.Cmswitch.program))

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
  let md5 = Bytes.of_string p.Ccache.cmsi_md5 in
  Bytes.set md5 0 (if Bytes.get md5 0 = '0' then '1' else '0');
  Store.put s ~tier:Ccache.prog_tier ~key
    ~payload:
      (Ccache.prog_payload_to_string
         { p with Ccache.cmsi_md5 = Bytes.to_string md5 });
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

(* A program CMSI cannot represent has no digest to store: on a one-row
   grid of 65600 arrays whose first 65540 are dead, every array left sits
   past the 16-bit coordinate range. Both cached compiles return the
   uncached program, store nothing in the prog tier and raise nothing. *)
let test_unencodable_program_uncached () =
  let chip =
    Chip.validate { Config.dynaplasia with Chip.n_arrays = 65600; grid_cols = 65600 }
  in
  let faults =
    Cim_arch.Faultmap.of_list chip
      (List.init 65540 (fun i -> (Chip.coord_of_index chip i, Cim_arch.Faultmap.Dead)))
  in
  let g = Cim_models.Mlp.build ~batch:1 ~dims:[ 64; 64; 10 ] () in
  let uncached = Cmswitch.compile ~config:Cfg.(default |> with_faults (Some faults)) chip g in
  Alcotest.(check int) "uncached compile is clean" 0
    (List.length uncached.Cmswitch.degradation.Cim_compiler.Degrade.diagnostics);
  (match Isa.encode uncached.Cmswitch.program with
  | _ -> Alcotest.fail "the program was meant to be unencodable"
  | exception Invalid_argument _ -> ());
  let dir = fresh_dir () in
  List.iter
    (fun run ->
      let s = Store.open_dir dir in
      let cfg = Cfg.(default |> with_faults (Some faults) |> with_cache (Some s)) in
      let r = Cmswitch.compile ~config:cfg chip g in
      let c = Store.tier_counters s Ccache.prog_tier in
      Alcotest.(check string) (run ^ ": the uncached program")
        (Flow.to_string uncached.Cmswitch.program) (Flow.to_string r.Cmswitch.program);
      Alcotest.(check (list int)) (run ^ ": prog hits, puts, invalid") [ 0; 0; 0 ]
        [ c.Store.hits; c.Store.puts; c.Store.invalid ])
    [ "first"; "second" ]

(* The prog key moved to epoch [prog.v2] when the payload's digest became
   the CMSI digest, so an entry an older compiler stored (key line
   [prog.v1], payload field [program_md5], a [Flow.digest]) is never read:
   the compile counts one miss and no invalid entry. *)
let test_old_epoch_entry_is_a_miss () =
  let dir = fresh_dir () in
  let g = small_graph () in
  let r = Cmswitch.compile chip g in
  let key = default_prog_key g in
  let epoch, rest =
    match String.index_opt key '\n' with
    | Some i -> (String.sub key 0 i, String.sub key i (String.length key - i))
    | None -> Alcotest.fail "a prog key has more than one line"
  in
  Alcotest.(check string) "the key's epoch" "prog.v2" epoch;
  let old_payload =
    Ccache.prog_payload_to_string
      {
        Ccache.segments = List.map (fun sp -> sp.Cim_compiler.Placement.plan) r.Cmswitch.places;
        cmsi_md5 = Flow.digest r.Cmswitch.program;
        mip_solves = r.Cmswitch.dp_stats.Segment.mip_solves;
        mip_cache_hits = r.Cmswitch.dp_stats.Segment.mip_cache_hits;
        candidates = r.Cmswitch.dp_stats.Segment.candidates;
        pruned_infeasible = r.Cmswitch.dp_stats.Segment.pruned_infeasible;
        events = [];
      }
    |> J.of_string
    |> (function
         | J.Obj kvs ->
           J.Obj (List.map (fun (k, v) -> ((if k = "cmsi_md5" then "program_md5" else k), v)) kvs)
         | _ -> Alcotest.fail "a prog payload is an object")
    |> J.to_string
  in
  Store.put (Store.open_dir dir) ~tier:Ccache.prog_tier ~key:("prog.v1" ^ rest)
    ~payload:old_payload;
  let s = Store.open_dir dir in
  let warm = compile_with_store s g in
  let c = Store.tier_counters s Ccache.prog_tier in
  Alcotest.(check (list int)) "prog hits, misses, invalid" [ 0; 1; 0 ]
    [ c.Store.hits; c.Store.misses; (Store.counters s).Store.invalid ];
  Alcotest.(check string) "cold program" (Flow.to_string r.Cmswitch.program)
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

(* Seg-tier hits and solves interleave in one queue: a compute-only
   compile warms every window's compute-only mode, so a dual-mode compile
   of the same graph hits that mode and solves the other, window by
   window. At jobs 1 and at jobs 4 it returns the uncached program and
   schedule, and the two agree on stats and degradation events. *)
let test_interleaved_seg_hits () =
  let chip = Config.prime in
  let g = small_graph () in
  let uncached = Cmswitch.compile ~config:Cfg.(with_jobs 1 default) chip g in
  let warmed jobs =
    let dir = fresh_dir () in
    let cfg = Cfg.(default |> with_force_all_compute true) in
    ignore
      (Cmswitch.compile
         ~config:(Cfg.with_cache (Some (Store.open_dir dir)) cfg)
         chip g);
    let s = Store.open_dir dir in
    let r =
      Cmswitch.compile
        ~config:Cfg.(default |> with_jobs jobs |> with_cache (Some s))
        chip g
    in
    let c = Store.tier_counters s Ccache.seg_tier in
    let what = Printf.sprintf "jobs=%d: " jobs in
    Alcotest.(check string) (what ^ "uncached program")
      (Flow.to_string uncached.Cmswitch.program)
      (Flow.to_string r.Cmswitch.program);
    Alcotest.(check bool) (what ^ "uncached schedule") true
      (uncached.Cmswitch.schedule = r.Cmswitch.schedule);
    Alcotest.(check bool) (what ^ "seg-tier hits") true (c.Store.hits > 0);
    Alcotest.(check int) (what ^ "seg-tier invalid") 0 c.Store.invalid;
    Alcotest.(check bool) (what ^ "some windows solved") true
      (r.Cmswitch.dp_stats.Segment.mip_solves > 0);
    r
  in
  let serial = warmed 1 and par = warmed 4 in
  Alcotest.(check bool) "same DP stats" true
    (serial.Cmswitch.dp_stats = par.Cmswitch.dp_stats);
  let events r = r.Cmswitch.degradation.Cim_compiler.Degrade.events in
  Alcotest.(check bool) "the solves fired events" true (events serial <> []);
  Alcotest.(check bool) "same events, in order" true
    (events serial = events par)

(* Every window the DP solves is stored under a seg key that embeds the
   window's signature, so the sorted keys of a cold compile pin every
   signature byte and the set of windows solved. The graphs are the
   compile-time experiment's; [jobs] is left at its default so both the
   serial and the pooled solve paths are covered. *)
let seg_keys_cases =
  [ ("resnet18", Config.dynaplasia, "resnet18", Fun.id, 184,
     "377b0f41fff893a4520db75d89bafbbf", None);
    ("bert-large", Config.dynaplasia, "bert-large", Fun.id, 40,
     "5aa9830d4fb63fe0b9d5e9be857d347d", None);
    ("llama2-7b", Config.dynaplasia, "llama2-7b", Fun.id, 60,
     "e2c912df3eefbb8ad31f94cdcc329fdc", None);
    ("resnet18, 3-op windows", Config.dynaplasia, "resnet18",
     Cfg.with_max_segment_ops 3, 114, "fe13e663d39996d56b5963f5ed1d81fb",
     Some (114, 76, 228, 38));
    ("prime bert-large, 16-op windows", Config.prime, "bert-large",
     Cfg.with_max_segment_ops 16, 64, "e5839810016df1fc845768c30aafe9a7",
     Some (64, 8, 72, 0)) ]

let test_seg_keys_pinned (_, chip, model, tweak, n, md5, stats) () =
  let store = Store.open_dir (fresh_dir ()) in
  let cfg = Cfg.(default |> tweak |> with_cache (Some store)) in
  let r = Cmswitch.compile ~config:cfg chip (T_parallel.graph_of model) in
  let keys =
    List.rev
      (Store.fold_keys store ~tier:Ccache.seg_tier ~init:[] ~f:(fun acc k ->
           k :: acc))
  in
  Alcotest.(check int) "seg-tier entries" n (List.length keys);
  Alcotest.(check string) "md5 of the sorted seg keys" md5
    (Digest.to_hex (Digest.string (String.concat "\000" keys)));
  Option.iter
    (fun (solves, hits, cands, pruned) ->
      let s = r.Cmswitch.dp_stats in
      Alcotest.(check (list int)) "dp stats: solves/hits/candidates/pruned"
        [ solves; hits; cands; pruned ]
        [ s.Segment.mip_solves; s.Segment.mip_cache_hits; s.Segment.candidates;
          s.Segment.pruned_infeasible ])
    stats

(* --- parsers stay total under mutation ------------------------------------ *)

type real_entry = {
  tier : string;
  key : string;
  file : string;       (* the entry file's text *)
  payload : string;
  ops : Opinfo.t array;
  window : int * int;  (* a window a seg payload decodes against *)
}

(* every entry a resnet18 compile and a llama2-7b decode-layer compile
   store; a seg entry is paired with the first window of its plan's length
   on which it decodes *)
let real_entries =
  lazy
    (List.concat_map
       (fun model ->
         let g = T_parallel.graph_of model in
         let s = Store.open_dir (fresh_dir ()) in
         ignore (Cmswitch.compile ~config:Cfg.(default |> with_cache (Some s)) chip g);
         let ops = Opinfo.extract chip g in
         let m = Array.length ops in
         let window payload =
           let len =
             match J.member "plan" (J.of_string payload) with
             | Some plan -> (
               match J.member "hi" plan with Some (J.Int hi) -> hi + 1 | _ -> 1)
             | None -> 1
           in
           let fits lo =
             Result.is_ok
               (Ccache.seg_payload_of_string ~chip ~ops ~lo ~hi:(lo + len - 1) payload)
           in
           match List.find_opt fits (List.init (max 0 (m - len + 1)) Fun.id) with
           | Some lo -> (lo, lo + len - 1)
           | None -> (0, min (m - 1) (len - 1))
         in
         List.concat_map
           (fun tier ->
             Store.fold_keys s ~tier ~init:[] ~f:(fun acc key ->
                 let payload = Option.get (Store.find s ~tier ~key) in
                 let file = In_channel.with_open_bin (Store.entry_path s ~tier ~key) In_channel.input_all in
                 let window = if tier = Ccache.seg_tier then window payload else (0, 0) in
                 { tier; key; file; payload; ops; window } :: acc))
           [ Ccache.seg_tier; Ccache.prog_tier ])
       [ "resnet18"; "llama2-7b" ])

(* one to three steps, each a truncation, a byte flip (half of them to a
   digit or a JSON delimiter, which keeps more mutants parseable) or a
   splice: a run of up to 16 bytes copied to another place, or a list or
   object that is a list element copied to where another such element
   starts, which keeps the JSON well formed and reaches the payload
   decoders' checks *)
(* the list element of [s] that starts at [i], with a comma after it: up
   to the first ',' or closing bracket outside brackets *)
let list_element s i =
  let rec go k depth =
    if k >= String.length s then String.sub s i (k - i)
    else
      match s.[k] with
      | '[' | '{' -> go (k + 1) (depth + 1)
      | (']' | '}') when depth = 0 -> String.sub s i (k - i) ^ ","
      | ']' | '}' -> go (k + 1) (depth - 1)
      | ',' when depth = 0 -> String.sub s i (k - i + 1)
      | _ -> go (k + 1) depth
  in
  go i 0

let gen_byte_mutant s =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (1, map Char.chr (int_bound 255));
        (1, oneofl (List.of_seq (String.to_seq "0123456789-,:[]{}\""))) ]
  in
  let insert s j run = String.sub s 0 j ^ run ^ String.sub s j (String.length s - j) in
  let step s =
    let n = String.length s in
    let starts =
      List.filter
        (fun i -> (s.[i - 1] = '[' || s.[i - 1] = ',') && (s.[i] = '[' || s.[i] = '{'))
        (List.init (max 0 (n - 1)) succ)
    in
    if n = 0 then return s
    else
      frequency
        [ (1, map (fun k -> String.sub s 0 k) (int_bound n));
          ( 2,
            map2
              (fun i b -> String.mapi (fun j c -> if j = i then b else c) s)
              (int_bound (n - 1)) byte );
          ( 1,
            let+ i = int_bound (n - 1) and+ len = int_range 1 16 and+ j = int_bound n in
            insert s j (String.sub s i (min len (n - i))) );
          ( (if starts = [] then 0 else 2),
            let+ i = oneofl (if starts = [] then [ 0 ] else starts)
            and+ j = oneofl (if starts = [] then [ 0 ] else starts) in
            insert s j (list_element s i) ) ]
  in
  let rec go k s = if k = 0 then return s else step s >>= go (k - 1) in
  int_range 1 3 >>= fun k -> go k s

let gen_mutated_entry =
  let open QCheck.Gen in
  let* tier = oneofl [ Ccache.seg_tier; Ccache.prog_tier ] in
  let* e = oneofl (List.filter (fun e -> e.tier = tier) (Lazy.force real_entries)) in
  let+ file = gen_byte_mutant e.file and+ payload = gen_byte_mutant e.payload in
  (e, file, payload)

(* A mutated entry file or payload never makes a reader raise: [Store.find]
   returns [None] or a payload, each tier's payload decoder a [result], and
   [Json.of_string] raises nothing but [Parse_error]. *)
let prop_parsers_total =
  let dir = lazy (fresh_dir ()) in
  QCheck.Test.make ~name:"cache readers are total on mutated entries" ~count:300
    (QCheck.make
       ~print:(fun (e, file, payload) ->
         Printf.sprintf "%s entry\nfile: %S\npayload: %S" e.tier file payload)
       (QCheck.Gen.delay (fun () -> gen_mutated_entry)))
    (fun (e, file, payload) ->
      let total what f =
        match f () with
        | () -> ()
        | exception J.Parse_error _ when what = "Json.of_string" -> ()
        | exception ex -> QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string ex)
      in
      let decode payload =
        if e.tier = Ccache.prog_tier then
          total "prog_payload_of_string" (fun () ->
              ignore (Ccache.prog_payload_of_string payload : (_, string) result))
        else
          let lo, hi = e.window in
          total "seg_payload_of_string" (fun () ->
              ignore
                (Ccache.seg_payload_of_string ~chip ~ops:e.ops ~lo ~hi payload
                  : (_, string) result))
      in
      List.iter (fun s -> total "Json.of_string" (fun () -> ignore (J.of_string s))) [ file; payload ];
      let s = Store.open_dir (Lazy.force dir) in
      Store.put s ~tier:e.tier ~key:e.key ~payload:e.payload;
      Out_channel.with_open_bin (Store.entry_path s ~tier:e.tier ~key:e.key) (fun oc ->
          output_string oc file);
      total "Store.find" (fun () -> Option.iter decode (Store.find s ~tier:e.tier ~key:e.key));
      decode payload;
      true)

let qtest = QCheck_alcotest.to_alcotest

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
      Alcotest.test_case "unencodable program is returned uncached" `Quick
        test_unencodable_program_uncached;
      Alcotest.test_case "old-epoch prog entry is a miss" `Quick
        test_old_epoch_entry_is_a_miss;
      Alcotest.test_case "seg-tier hits interleave with solves" `Quick
        test_interleaved_seg_hits;
      Alcotest.test_case "seg tier skips re-solves" `Quick
        test_seg_tier_skips_resolves;
      qtest prop_parsers_total;
    ]
    @ List.map
        (fun ((name, _, _, _, _, _, _) as case) ->
          Alcotest.test_case ("seg keys pinned: " ^ name) `Quick
            (test_seg_keys_pinned case))
        seg_keys_cases )
