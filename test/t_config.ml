(* The unified Cmswitch.Config record: builder combinators, the slotting
   into the engine's internal options records, and — the part the
   compilation cache depends on — the canonical serialization. [canonical] must be a stable
   total function of the semantic fields (fixed field order, exact hex
   floats) and [of_canonical] its strict inverse, so that
   serialize -> parse -> serialize is a byte-for-byte fixed point. *)

module Cmswitch = Cim_compiler.Cmswitch
module Cfg = Cim_compiler.Cmswitch.Config
module Segment = Cim_compiler.Segment
module Alloc = Cim_compiler.Alloc
module Bucket = Cim_compiler.Bucket

let sample_configs =
  [
    Cfg.default;
    Cfg.(default |> with_partition_fraction 0.25);
    (* a fraction with no short decimal form: exercises the hex printer *)
    Cfg.(default |> with_partition_fraction (1. /. 3.));
    Cfg.(default |> with_max_segment_ops 3);
    Cfg.(default |> with_milp_max_nodes 17);
    Cfg.(default |> with_refine false);
    Cfg.(default |> with_force_all_compute true);
    Cfg.(default |> with_buckets (Some Bucket.default));
    Cfg.(default |> with_buckets (Some (Bucket.pow2 ~min_ceiling:16 ~max_ceiling:4096 ())));
    Cfg.(default |> with_buckets (Some (Bucket.explicit [ 32; 64; 128; 512 ])));
    Cfg.(
      default |> with_partition_fraction 0.75 |> with_max_segment_ops 6
      |> with_milp_max_nodes 123 |> with_refine false
      |> with_force_all_compute true
      |> with_buckets (Some (Bucket.explicit [ 1; 7; 2048 ])));
  ]

let test_canonical_fixed_point () =
  List.iter
    (fun c ->
      let s = Cfg.canonical c in
      match Cfg.of_canonical s with
      | Error e -> Alcotest.failf "of_canonical rejected %s: %s" s e
      | Ok c' ->
        Alcotest.(check string) ("fixed point of " ^ s) s (Cfg.canonical c'))
    sample_configs

let test_canonical_field_order_stable () =
  (* the exact default serialization is a compatibility surface: changing
     field order, float formatting, or the version tag silently invalidates
     every cache on disk, so any intentional change must bump the version
     (v1 -> v2 added the buckets field, v2 -> v3 dropped memoize, v3 -> v4
     dropped lp_backend) *)
  Alcotest.(check string) "default canonical"
    "cmswitch.config.v4{partition_fraction=0x1p-1;max_segment_ops=10;milp_max_nodes=600;refine=true;force_all_compute=false;buckets=none}"
    (Cfg.canonical Cfg.default);
  Alcotest.(check string) "bucketed canonical"
    "cmswitch.config.v4{partition_fraction=0x1p-1;max_segment_ops=10;milp_max_nodes=600;refine=true;force_all_compute=false;buckets=buckets.v1(pow2:32:2048)}"
    (Cfg.canonical Cfg.(default |> with_buckets (Some Bucket.default)))

let test_canonical_excludes_execution_knobs () =
  (* jobs / faults / cache are not semantics: two configs differing only
     there must share one cache key *)
  let base = Cfg.canonical Cfg.default in
  Alcotest.(check string) "jobs excluded" base
    (Cfg.canonical Cfg.(default |> with_jobs 7));
  let fm = Cim_arch.Faultmap.inject Cim_arch.Config.dynaplasia ~seed:1 ~dead_rate:0.1 () in
  Alcotest.(check string) "faults excluded" base
    (Cfg.canonical Cfg.(default |> with_faults (Some fm)))

let test_of_canonical_rejects_garbage () =
  let reject s =
    match Cfg.of_canonical s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "of_canonical accepted %S" s
  in
  reject "";
  reject "not a config";
  (* the retired v1, v2 and v3 tags (and any other version) are rejected
     wholesale *)
  reject
    "cmswitch.config.v1{partition_fraction=0x1p-1;max_segment_ops=10;memoize=true;milp_max_nodes=600;refine=true;force_all_compute=false;lp_backend=revised}";
  reject
    "cmswitch.config.v2{partition_fraction=0x1p-1;max_segment_ops=10;memoize=true;milp_max_nodes=600;refine=true;force_all_compute=false;lp_backend=revised;buckets=none}";
  reject
    "cmswitch.config.v3{partition_fraction=0x1p-1;max_segment_ops=10;milp_max_nodes=600;refine=true;force_all_compute=false;lp_backend=revised;buckets=none}";
  reject
    "cmswitch.config.v3{partition_fraction=0x1p-1;max_segment_ops=10;milp_max_nodes=600;refine=true;force_all_compute=false;lp_backend=revised;buckets=buckets.v1(pow2:32:2048)}";
  reject "cmswitch.config.v5{partition_fraction=0x1p-1}";
  (* missing closing brace *)
  reject "cmswitch.config.v4{partition_fraction=0x1p-1";
  (* missing fields *)
  reject "cmswitch.config.v4{partition_fraction=0x1p-1}";
  (* a retired field in place of a current one *)
  reject
    "cmswitch.config.v4{partition_fraction=0x1p-1;max_segment_ops=10;memoize=true;refine=true;force_all_compute=false;buckets=none}";
  reject
    "cmswitch.config.v4{partition_fraction=0x1p-1;max_segment_ops=10;milp_max_nodes=600;refine=true;lp_backend=revised;buckets=none}";
  (* the retired lp_backend field on top of the six current ones *)
  reject
    "cmswitch.config.v4{partition_fraction=0x1p-1;max_segment_ops=10;milp_max_nodes=600;refine=true;force_all_compute=false;lp_backend=revised;buckets=none}";
  (* bad value types *)
  reject
    "cmswitch.config.v4{partition_fraction=abc;max_segment_ops=10;milp_max_nodes=600;refine=true;force_all_compute=false;buckets=none}";
  reject
    "cmswitch.config.v4{partition_fraction=0x1p-1;max_segment_ops=10;milp_max_nodes=600;refine=maybe;force_all_compute=false;buckets=none}";
  (* malformed bucket policies *)
  reject
    "cmswitch.config.v4{partition_fraction=0x1p-1;max_segment_ops=10;milp_max_nodes=600;refine=true;force_all_compute=false;buckets=pow2}";
  reject
    "cmswitch.config.v4{partition_fraction=0x1p-1;max_segment_ops=10;milp_max_nodes=600;refine=true;force_all_compute=false;buckets=buckets.v1(pow2:64:32)}";
  reject
    "cmswitch.config.v4{partition_fraction=0x1p-1;max_segment_ops=10;milp_max_nodes=600;refine=true;force_all_compute=false;buckets=buckets.v1(list:64,32)}"

let test_options_bridge () =
  (* the flattened fields land in the right nested slots *)
  let c =
    Cfg.(
      default |> with_jobs 3 |> with_max_segment_ops 4
      |> with_milp_max_nodes 55 |> with_force_all_compute true)
  in
  let seg = Cfg.to_segment_options c in
  Alcotest.(check int) "segment jobs" 3 seg.Segment.jobs;
  Alcotest.(check int) "segment window" 4 seg.Segment.max_segment_ops;
  let al = Cfg.to_alloc_options c in
  Alcotest.(check int) "alloc nodes" 55 al.Alloc.milp_max_nodes;
  Alcotest.(check bool) "alloc forced" true al.Alloc.force_all_compute

(* random but valid bucket policy, derived from three small ints: none,
   pow2 with arbitrary bounds, or an explicit boundary list *)
let bucket_of_ints kind a b =
  let a = 1 + (abs a mod 4096) and b = 1 + (abs b mod 4096) in
  let lo = min a b and hi = max a b in
  match abs kind mod 3 with
  | 0 -> None
  | 1 -> Some (Bucket.pow2 ~min_ceiling:lo ~max_ceiling:hi ())
  | _ -> Some (Bucket.explicit [ lo; hi; lo + hi ])

let prop_canonical_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"canonical round-trip is a fixed point" ~count:300
       QCheck.(
         pair
           (triple (float_bound_exclusive 1.) (int_range 1 64)
              (int_range 0 100_000))
           (triple small_int small_int small_int))
       (fun ((frac, window, nodes), (bk, ba, bb)) ->
         let c =
           Cfg.(
             default
             |> with_partition_fraction (frac +. 1e-3)
             |> with_max_segment_ops window
             |> with_milp_max_nodes nodes
             |> with_buckets (bucket_of_ints bk ba bb))
         in
         let s = Cfg.canonical c in
         match Cfg.of_canonical s with
         | Error _ -> false
         | Ok c' -> Cfg.canonical c' = s))

let suite =
  ( "config",
    [
      Alcotest.test_case "canonical fixed point" `Quick test_canonical_fixed_point;
      Alcotest.test_case "canonical field order stable" `Quick
        test_canonical_field_order_stable;
      Alcotest.test_case "canonical excludes execution knobs" `Quick
        test_canonical_excludes_execution_knobs;
      Alcotest.test_case "of_canonical rejects garbage" `Quick
        test_of_canonical_rejects_garbage;
      Alcotest.test_case "legacy options bridge" `Quick test_options_bridge;
      prop_canonical_round_trip;
    ] )
