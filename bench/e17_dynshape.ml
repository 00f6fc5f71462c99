(* E17 — dynamic-shape fast path: time-per-token of plan acquisition over
   a 1..2048 decode sweep of llama2-7b, four regimes:

   - cold:      per-length compile into an empty cache (every KV length is
                a distinct program — the dynamic-shape tax)
   - warm:      per-length prog-tier replay (a second process over the same
                cache; still one entry per length)
   - bucketed:  lengths compile at their bucket ceiling, so one program per
                bucket serves every length inside it
   - bkt-warm:  bucketed sweep against the populated cache — every length
                hits the prog tier and re-solves ZERO MILPs (checked via
                the solver.bb.nodes counter, which only moves when the
                branch-and-bound solver actually runs)

   Every length inside a bucket must replay the same program bytes. The
   summary also times the serving fast path: Scenario.bucketed_profile
   walking the lengths in decode order, one compile per ceiling and memo
   hits for every other length. *)

open Common
module Store = Cim_cache.Store
module Bucket = Cim_compiler.Bucket
module Flow = Cim_metaop.Flow
module Metrics = Cim_obs.Metrics
module Scenario = Cim_serve.Scenario
module Serving = Cim_sim.Serving

let model_key = "llama2-7b"

(* boundary-straddling KV lengths: at, just below and just above each
   power-of-two context boundary, plus interior points *)
let kvs =
  [ 1; 16; 31; 32; 33; 63; 64; 100; 127; 128; 200; 255; 256; 400; 511; 512;
    800; 1023; 1024; 1500; 2000; 2047 ]

let md5_of_mc (mc : Cmswitch.model_cost) =
  let part = function
    | None -> ""
    | Some (r : Cmswitch.result) -> Flow.to_string r.Cmswitch.program
  in
  Digest.to_hex
    (Digest.string
       (part mc.Cmswitch.layer ^ part mc.Cmswitch.whole ^ part mc.Cmswitch.head))

let median xs = Stats.percentile_nearest_rank 50. xs

let run () =
  section "E17 | dynamic-shape decode sweep: cold vs warm vs bucketed";
  Metrics.set_enabled true;
  let chip = Config.dynaplasia in
  let e = Option.get (Zoo.find model_key) in
  let policy = Bucket.default in
  let dir_flat = Filename.temp_dir "cmswitch-e17-flat" "" in
  let dir_bkt = Filename.temp_dir "cmswitch-e17-bkt" "" in
  let base = Cmswitch.Config.(default |> with_jobs 1) in
  let flat_cfg store = Cmswitch.Config.with_cache (Some store) base in
  let bkt_cfg store =
    Cmswitch.Config.(
      base |> with_buckets (Some policy) |> with_cache (Some store))
  in
  let sweep cfg =
    List.map
      (fun kv ->
        time (fun () ->
            Cmswitch.compile_model ~config:cfg chip e (Workload.decode ~batch:1 kv)))
      kvs
  in
  let cold = sweep (flat_cfg (Store.open_dir dir_flat)) in
  let warm = sweep (flat_cfg (Store.open_dir dir_flat)) in
  let bcold = sweep (bkt_cfg (Store.open_dir dir_bkt)) in
  (* the warm bucketed sweep must never reach the MILP solver *)
  let bb_nodes = Metrics.counter "solver.bb.nodes" in
  let nodes_before = Metrics.counter_value bb_nodes in
  let bwarm = sweep (bkt_cfg (Store.open_dir dir_bkt)) in
  let warm_bb_nodes = Metrics.counter_value bb_nodes -. nodes_before in
  (* the serving fast path (no disk cache), lengths in decode order *)
  let profile = Scenario.bucketed_profile ~config:base chip e ~batch:1 policy in
  let steps =
    List.map (fun kv -> snd (time (fun () -> profile.Serving.decode_cycles kv))) kvs
  in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "dynamic-shape decode sweep (%s, policy %s, jobs=1)"
           model_key (Bucket.to_string policy))
      [ ("kv", Table.Right); ("ceiling", Table.Right); ("cold (ms)", Table.Right);
        ("warm (ms)", Table.Right); ("bucketed (ms)", Table.Right);
        ("bkt-warm (ms)", Table.Right) ]
  in
  let ms t = Table.cell_f ~digits:2 (1e3 *. t) in
  List.iteri
    (fun i kv ->
      let mc_b, t_b = List.nth bcold i in
      let _, t_c = List.nth cold i in
      let _, t_w = List.nth warm i in
      let _, t_bw = List.nth bwarm i in
      Table.add_row tbl
        [ string_of_int kv;
          (match mc_b.Cmswitch.bucket_ceiling with
          | Some c -> string_of_int c
          | None -> "-");
          ms t_c; ms t_w; ms t_b; ms t_bw ])
    kvs;
  Table.print tbl;
  (* byte-identity: every length in a bucket must replay the same program *)
  let by_ceiling =
    List.fold_left
      (fun acc (mc, _) ->
        match mc.Cmswitch.bucket_ceiling with
        | None -> acc
        | Some c ->
          let m = md5_of_mc mc in
          (match List.assoc_opt c acc with
          | Some ms when not (List.mem m ms) -> (c, m :: ms) :: List.remove_assoc c acc
          | Some _ -> acc
          | None -> (c, [ m ]) :: acc))
      [] bwarm
  in
  let md5_within_bucket =
    List.for_all (fun (_, ms) -> List.length ms = 1) by_ceiling
  in
  let seconds xs = List.map snd xs in
  let med_cold = median (seconds cold) in
  let med_bwarm = median (seconds bwarm) in
  let med_step = median steps in
  let summary =
    Table.create ~title:"dynamic-shape summary"
      [ ("metric", Table.Left); ("value", Table.Right) ]
  in
  List.iter
    (fun row -> Table.add_row summary row)
    [
      [ "median cold compile (ms/token)"; Table.cell_f ~digits:3 (1e3 *. med_cold) ];
      [ "median warm per-length (ms/token)";
        Table.cell_f ~digits:3 (1e3 *. median (seconds warm)) ];
      (* cross-process replay: zero MILPs but the deterministic passes
         (extract, placement, codegen, validate) re-run at the ceiling *)
      [ "median bucketed warm replay (ms/token)";
        Table.cell_f ~digits:3 (1e3 *. med_bwarm) ];
      (* the serving fast path: a decode step is a memo hit for every
         length inside an already-compiled bucket *)
      [ "median bucketed decode step (ms/token)";
        Table.cell_f ~digits:3 (1e3 *. med_step) ];
      [ "bucketed decode-step speedup vs cold";
        Table.cell_f ~digits:1 (med_cold /. Float.max 1e-6 med_step) ];
      [ "warm bucketed B&B nodes"; Printf.sprintf "%.0f" warm_bb_nodes ];
      [ "md5 identical within bucket"; (if md5_within_bucket then "yes" else "NO") ];
      [ "distinct bucket ceilings"; string_of_int (List.length by_ceiling) ];
      [ "lengths swept"; string_of_int (List.length kvs) ];
    ];
  Table.print summary;
  ignore (Store.clear (Store.open_dir dir_flat));
  ignore (Store.clear (Store.open_dir dir_bkt));
  print_endline
    "bucketed compilation prices every length at its bucket ceiling: the\n\
     padded program is what executes, its cost is what Eq. 10 reports, and\n\
     every length inside a bucket replays one cached program - warm decode\n\
     steps re-solve zero MILPs"
