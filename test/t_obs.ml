(* Tests for the observability layer: JSON round-trips, Chrome trace-event
   structure (span nesting recovered by interval containment), metrics
   accumulation, the zero-cost-when-disabled guarantee, and a golden trace
   of a real compile + simulate run. *)

module J = Cim_obs.Json
module Trace = Cim_obs.Trace
module Metrics = Cim_obs.Metrics
module Config = Cim_arch.Config
module Cmswitch = Cim_compiler.Cmswitch
module Functional = Cim_sim.Functional
module Timing = Cim_sim.Timing
module Tensor = Cim_tensor.Tensor
module Shape = Cim_tensor.Shape
module Rng = Cim_util.Rng

let chip = Config.dynaplasia

(* trace and metrics state is global to the process; every test that
   enables it must restore the disabled default or it would leak into the
   other suites *)
let with_obs f =
  Trace.set_enabled true;
  Trace.reset ();
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ();
      Metrics.set_enabled false;
      Metrics.reset ())
    f

(* --- Json --- *)

let test_json_roundtrip () =
  let doc =
    J.Obj
      [ ("s", J.String "a \"quoted\"\nline\twith \\ specials");
        ("i", J.Int (-42));
        ("f", J.Float 2.5);
        ("tiny", J.Float 1.25e-8);
        ("b", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.Obj [ ("k", J.Bool false) ]; J.List [] ]) ]
  in
  let reparsed = J.of_string (J.to_string doc) in
  Alcotest.(check bool) "compact round-trip" true (reparsed = doc);
  let reparsed = J.of_string (J.to_string ~pretty:true doc) in
  Alcotest.(check bool) "pretty round-trip" true (reparsed = doc);
  (* non-finite floats have no JSON encoding and must degrade to null *)
  Alcotest.(check string) "NaN is null" "null" (J.to_string (J.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (J.to_string (J.Float Float.infinity));
  Alcotest.(check bool) "member hit" true
    (J.member "i" doc = Some (J.Int (-42)));
  Alcotest.(check bool) "member miss" true (J.member "zz" doc = None);
  Alcotest.(check bool) "to_float of int" true (J.to_float (J.Int 3) = Some 3.)

let test_json_malformed () =
  List.iter
    (fun src ->
      match J.of_string src with
      | exception J.Parse_error _ -> ()
      | v -> Alcotest.failf "%S parsed to %s" src (J.to_string v))
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "" ]

(* The parser's value or message on escapes, the edges of the integer
   range and malformed tails, pinned: a faster reader must accept the
   same language and fail at the same position with the same words. *)
let json_parse_pins =
  let s x = Ok (J.String x) and i x = Ok (J.Int x) and f x = Ok (J.Float x) in
  [ ({|"a\"b\\c\nd"|}, s "a\"b\\c\nd");
    ({|"\u00e9"|}, s "\195\169");
    ("\"\195\169\"", s "\195\169");
    ({|"\u12"|}, Error "at 2: truncated \\u escape");
    ({|"unterminated|}, Error "at 13: unterminated string");
    ({|"bad \q"|}, Error "at 6: bad escape");
    ("123456789012345678", i 123456789012345678);
    ("1234567890123456789", i 1234567890123456789);
    ("99999999999999999999", f 0x1.5af1d78b58c4p+66);
    ("-0", i 0);
    ("007", i 7);
    ("1e5", f 100000.);
    ("1.", f 1.);
    ("-", Error "at 1: bad number \"-\"");
    ("+5", Error "at 0: unexpected character '+'");
    ("[1,]", Error "at 3: unexpected character ']'");
    ({|{"a":1,}|}, Error "at 7: expected '\"', found '}'") ]

let test_json_parse_pins () =
  let json = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (J.to_string v)) ( = ) in
  List.iter
    (fun (src, want) ->
      let got = match J.of_string src with v -> Ok v | exception J.Parse_error m -> Error m in
      Alcotest.(check (result json string)) src want got)
    json_parse_pins

(* --- trace structure --- *)

type span = { name : string; ts : float; dur : float; pid : int; tid : int }

let spans_of_trace j =
  let evs =
    match J.member "traceEvents" j with
    | Some (J.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents list"
  in
  List.filter_map
    (fun e ->
      let str k = match J.member k e with Some (J.String s) -> Some s | _ -> None in
      let num k = Option.bind (J.member k e) J.to_float in
      let int k = match J.member k e with Some (J.Int i) -> Some i | _ -> None in
      match (str "ph", str "name") with
      | Some "X", Some name ->
        let get what o = match o with Some v -> v | None -> Alcotest.failf "span %s lacks %s" name what in
        Some
          { name;
            ts = get "ts" (num "ts");
            dur = get "dur" (num "dur");
            pid = get "pid" (int "pid");
            tid = get "tid" (int "tid") }
      | _ -> None)
    evs

let contains outer inner =
  outer.ts <= inner.ts +. 1e-9
  && inner.ts +. inner.dur <= outer.ts +. outer.dur +. 1e-9

let test_span_nesting () =
  with_obs @@ fun () ->
  let v =
    Trace.with_span "outer" @@ fun () ->
    Trace.with_span "child1" (fun () -> ignore (Sys.opaque_identity 1));
    Trace.with_span "child2" ~args:[ ("k", J.Int 7) ] (fun () -> ());
    17
  in
  Alcotest.(check int) "with_span returns" 17 v;
  (* parse the emitted text back, as an external consumer would *)
  let j = J.of_string (J.to_string (Trace.export ())) in
  let spans = spans_of_trace j in
  let find n =
    match List.find_opt (fun s -> s.name = n) spans with
    | Some s -> s
    | None -> Alcotest.failf "span %s missing" n
  in
  let outer = find "outer" and c1 = find "child1" and c2 = find "child2" in
  Alcotest.(check bool) "child1 nested" true (contains outer c1);
  Alcotest.(check bool) "child2 nested" true (contains outer c2);
  Alcotest.(check bool) "children ordered" true (c1.ts <= c2.ts);
  Alcotest.(check bool) "children disjoint" true (c1.ts +. c1.dur <= c2.ts +. 1e-9);
  (* export sorts by (pid, ts): the parent precedes its children even
     though spans are recorded at exit *)
  let names = List.map (fun s -> s.name) spans in
  Alcotest.(check (list string)) "begin order" [ "outer"; "child1"; "child2" ] names

let test_span_survives_raise () =
  with_obs @@ fun () ->
  (match Trace.with_span "raiser" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "exception swallowed");
  let spans = spans_of_trace (Trace.export ()) in
  Alcotest.(check bool) "span recorded despite raise" true
    (List.exists (fun s -> s.name = "raiser") spans)

(* --- domain safety: the clock, buffered recording, atomic metrics --- *)

let test_monotone_clock_across_domains () =
  (* stamps must be strictly increasing within each domain and globally
     distinct, so per-domain buffers merge onto one monotone timeline *)
  let per_domain = 2_000 in
  let sample () = Array.init per_domain (fun _ -> Trace.now_us ()) in
  let d1 = Domain.spawn sample and d2 = Domain.spawn sample in
  let here = sample () in
  let a = Domain.join d1 and b = Domain.join d2 in
  let strictly_increasing ts =
    Array.for_all Fun.id (Array.init (per_domain - 1) (fun i -> ts.(i) < ts.(i + 1)))
  in
  List.iter
    (fun (who, ts) ->
      Alcotest.(check bool) (who ^ " strictly increasing") true
        (strictly_increasing ts))
    [ ("domain1", a); ("domain2", b); ("caller", here) ];
  let all = Array.concat [ a; b; here ] in
  let module FS = Set.Make (Float) in
  Alcotest.(check int) "no stamp issued twice"
    (Array.length all)
    (FS.cardinal (FS.of_list (Array.to_list all)))

let test_buffered_merge () =
  with_obs @@ fun () ->
  (* two domains record into local buffers on distinct lanes; the
     coordinator merges in an order of its choosing and the merged export
     is exactly the usual span structure *)
  let worker tid name =
    Domain.spawn (fun () ->
        Trace.set_domain_tid tid;
        Trace.with_buffer (fun () ->
            Trace.with_span name (fun () -> ignore (Sys.opaque_identity 1))))
  in
  let d1 = worker 7 "buffered1" and d2 = worker 8 "buffered2" in
  let (), ev1 = Domain.join d1 in
  let (), ev2 = Domain.join d2 in
  Trace.with_span "direct" (fun () -> ());
  Trace.merge ev1;
  Trace.merge ev2;
  let spans = spans_of_trace (J.of_string (J.to_string (Trace.export ()))) in
  let find n =
    match List.find_opt (fun s -> s.name = n) spans with
    | Some s -> s
    | None -> Alcotest.failf "span %s missing after merge" n
  in
  Alcotest.(check int) "worker lane preserved" 7 (find "buffered1").tid;
  Alcotest.(check int) "second lane preserved" 8 (find "buffered2").tid;
  Alcotest.(check int) "unbuffered span on the default lane" 1 (find "direct").tid;
  (* a raising buffered section drops its events with the exception *)
  (match Trace.with_buffer (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed by with_buffer")

let test_atomic_metrics_across_domains () =
  with_obs @@ fun () ->
  let c = Metrics.counter "test.par.counter" in
  let h = Metrics.histogram "test.par.hist" in
  let n = 10_000 in
  let hammer () =
    for i = 1 to n do
      Metrics.incr c;
      Metrics.observe h (float_of_int i)
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn hammer) in
  hammer ();
  List.iter Domain.join ds;
  Alcotest.(check (float 1e-9)) "no lost counter increments"
    (float_of_int (4 * n))
    (Metrics.counter_value c);
  Alcotest.(check int) "no lost histogram samples" (4 * n)
    (Metrics.histogram_count h)

(* --- metrics --- *)

let test_metrics_accumulation () =
  with_obs @@ fun () ->
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.incr ~by:2.5 c;
  Alcotest.(check (float 1e-9)) "counter sums" 3.5 (Metrics.counter_value c);
  Alcotest.(check bool) "find-or-create aliases" true
    (Metrics.counter_value (Metrics.counter "test.counter") = 3.5);
  let g = Metrics.gauge "test.gauge" in
  Metrics.set_gauge g 4.;
  Metrics.set_gauge g 9.;
  let h = Metrics.histogram "test.hist" in
  List.iter (Metrics.observe h) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "histogram count" 4 (Metrics.histogram_count h);
  (match J.of_string (J.to_string (Metrics.to_json ())) with
  | J.Obj _ as j ->
    let counters = Option.get (J.member "counters" j) in
    Alcotest.(check bool) "counter in json" true
      (J.member "test.counter" counters = Some (J.Float 3.5));
    let gauges = Option.get (J.member "gauges" j) in
    Alcotest.(check bool) "gauge keeps last" true
      (J.member "test.gauge" gauges = Some (J.Float 9.));
    let hist = Option.get (J.member "test.hist" (Option.get (J.member "histograms" j))) in
    Alcotest.(check bool) "hist p50" true
      (match J.to_float (Option.get (J.member "p50" hist)) with
      | Some v -> v >= 2. && v <= 3.
      | None -> false)
  | _ -> Alcotest.fail "metrics json not an object");
  let md = Metrics.to_markdown () in
  let has needle =
    let n = String.length needle and h = String.length md in
    let rec go i = i + n <= h && (String.sub md i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "markdown lists counter" true (has "test.counter");
  Alcotest.(check bool) "markdown lists hist" true (has "test.hist");
  (* a type clash on one name is a programming error, not a silent alias *)
  (match Metrics.gauge "test.counter" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type clash must raise");
  Metrics.reset ();
  Alcotest.(check (float 1e-9)) "reset zeroes" 0. (Metrics.counter_value c);
  Alcotest.(check int) "reset empties hist" 0 (Metrics.histogram_count h)

(* --- disabled mode: no effect, and no observable cost --- *)

let test_disabled_noop () =
  Trace.set_enabled false;
  Trace.reset ();
  Metrics.set_enabled false;
  Metrics.reset ();
  let v = Trace.with_span "ghost" (fun () -> 3) in
  Alcotest.(check int) "with_span passthrough" 3 v;
  Trace.instant "ghost-mark";
  Trace.complete ~pid:1 ~tid:1 ~ts:0. ~dur:1. "ghost-complete";
  Alcotest.(check bool) "no events recorded" true
    (spans_of_trace (Trace.export ()) = []);
  let c = Metrics.counter "test.disabled" in
  Metrics.incr c;
  let h = Metrics.histogram "test.disabled.h" in
  Metrics.observe h 1.;
  Alcotest.(check (float 1e-9)) "counter untouched" 0. (Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.histogram_count h)

let test_disabled_overhead () =
  Trace.set_enabled false;
  Metrics.set_enabled false;
  let c = Metrics.counter "test.overhead" in
  let g = Metrics.gauge "test.overhead.g" in
  let h = Metrics.histogram "test.overhead.h" in
  let n = 1_000_000 in
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for i = 1 to n do
    Trace.with_span "hot" (fun () -> acc := !acc + i);
    Metrics.incr c;
    Metrics.set_gauge g (float_of_int i);
    Metrics.observe h (float_of_int i)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "work ran" (n * (n + 1) / 2) !acc;
  (* a disabled span or metric update is one flag check (now an Atomic.get)
     + calling f; 1e6 iterations of all four finish in a few ms, so a full
     second means the fast path regressed badly *)
  Alcotest.(check bool)
    (Printf.sprintf "1e6 disabled spans took %.3fs (< 1s)" dt)
    true (dt < 1.)

(* --- golden trace of a real compile + simulate --- *)

let small_model rng = Cim_models.Mlp.build ~rng ~batch:2 ~dims:[ 64; 128; 32 ] ()

let test_compile_trace () =
  with_obs @@ fun () ->
  let rng = Rng.create 31 in
  let g = small_model rng in
  let r = Cmswitch.compile chip g in
  ignore (Timing.run chip r.Cmswitch.program);
  let x = Tensor.rand rng (Shape.of_list [ 2; 64 ]) ~lo:(-1.) ~hi:1. in
  ignore (Functional.run chip g r.Cmswitch.program ~inputs:[ ("x", x) ]);
  let j = J.of_string (J.to_string (Trace.export ())) in
  let spans = spans_of_trace j in
  let named n = List.filter (fun s -> s.name = n) spans in
  let compile =
    match named "compile" with
    | [ s ] -> s
    | l -> Alcotest.failf "expected one compile span, got %d" (List.length l)
  in
  (* every pass span sits inside the root compile span *)
  List.iter
    (fun pass ->
      match named pass with
      | [] -> Alcotest.failf "missing %s span" pass
      | l ->
        List.iter
          (fun s ->
            Alcotest.(check bool) (pass ^ " inside compile") true
              (contains compile s))
          l)
    [ "partition"; "dp.segmentation"; "placement"; "codegen"; "flow.validate" ];
  Alcotest.(check bool) "per-segment solver spans" true (named "milp.segment" <> []);
  (* the timing simulator contributes per-array residency tracks and
     per-segment slabs on its own process; it is the one trace of array
     modes, so the functional run adds none *)
  let residency =
    List.filter
      (fun s ->
        s.name = "memory" || s.name = "compute"
        || String.length s.name >= 6 && String.sub s.name 0 6 = "switch")
      spans
  in
  Alcotest.(check bool) "timing residency track events" true
    (List.exists (fun s -> s.pid = Trace.pid_simulator) residency);
  Alcotest.(check (list int)) "residency only on the timing process" []
    (List.filter_map
       (fun s -> if s.pid = Trace.pid_simulator then None else Some s.pid)
       residency);
  (* metrics populated by the same run *)
  let cv n = Metrics.counter_value (Metrics.counter n) in
  Alcotest.(check bool) "bb nodes counted" true (cv "solver.bb.nodes" > 0.);
  Alcotest.(check bool) "simplex pivots counted" true (cv "solver.simplex.pivots" > 0.);
  Alcotest.(check bool) "segments counted" true (cv "compile.segments" > 0.);
  Alcotest.(check bool) "sim cycles counted" true (cv "sim.cycles.total" > 0.);
  Alcotest.(check bool) "mode switches counted" true
    (cv "sim.switches.m2c" +. cv "sim.switches.c2m" > 0.)

let test_write_file () =
  with_obs @@ fun () ->
  Trace.with_span "io" (fun () -> ());
  let file = Filename.temp_file "cmswitch_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace.write_file file;
      let ic = open_in file in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let spans = spans_of_trace (J.of_string src) in
      Alcotest.(check bool) "file parses with span" true
        (List.exists (fun s -> s.name = "io") spans))

(* --- bounded histograms: memory capped, exact counts, sane percentiles --- *)

let test_histogram_bounded () =
  with_obs @@ fun () ->
  let h = Metrics.histogram "test.bounded" in
  let n = 1_000_000 in
  for i = 1 to n do
    Metrics.observe h (float_of_int i)
  done;
  let s = Metrics.summarize h in
  (* count, sum, extrema and the bucket vector are exact at any volume;
     only the percentile summary is reservoir-estimated *)
  Alcotest.(check int) "count exact" n s.Metrics.n;
  Alcotest.(check (float 0.)) "sum exact" 500_000_500_000. s.Metrics.sum;
  Alcotest.(check (float 0.)) "min exact" 1. s.Metrics.min;
  Alcotest.(check (float 0.)) "max exact" 1e6 s.Metrics.max;
  (match List.rev s.Metrics.buckets with
  | (le, c) :: _ ->
    Alcotest.(check bool) "last bucket is +Inf" true (le = Float.infinity);
    Alcotest.(check int) "overflow bucket holds every sample" n c
  | [] -> Alcotest.fail "no buckets");
  ignore
    (List.fold_left
       (fun prev (_, c) ->
         Alcotest.(check bool) "bucket series cumulative" true (c >= prev);
         c)
       0 s.Metrics.buckets);
  (match List.assoc_opt 5e5 s.Metrics.buckets with
  | Some c -> Alcotest.(check int) "le=5e5 bucket exact" 500_000 c
  | None -> Alcotest.fail "default ladder lacks the 5e5 bound");
  (* uniform 1..1e6 through a 2048-sample reservoir: estimates, so loose
     bounds — but always ordered *)
  Alcotest.(check bool) "p50 near the median" true
    (s.Metrics.p50 > 4e5 && s.Metrics.p50 < 6e5);
  Alcotest.(check bool) "p95 in the upper tail" true
    (s.Metrics.p95 > 8.5e5 && s.Metrics.p95 <= 1e6);
  Alcotest.(check bool) "percentiles ordered" true
    (s.Metrics.p50 <= s.Metrics.p95
    && s.Metrics.p95 <= s.Metrics.p99
    && s.Metrics.p99 <= s.Metrics.p999
    && s.Metrics.p999 <= s.Metrics.max);
  (* the reservoir stream is deterministic: reset + identical observations
     reproduce the summary bit for bit *)
  Metrics.reset ();
  for i = 1 to n do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check bool) "deterministic reservoir stream" true
    (Metrics.summarize h = s);
  (* the tail quantiles reach the exporters *)
  let j = Metrics.to_json () in
  let hist =
    Option.get (J.member "test.bounded" (Option.get (J.member "histograms" j)))
  in
  Alcotest.(check bool) "p99 in json" true (J.member "p99" hist <> None);
  Alcotest.(check bool) "p999 in json" true (J.member "p999" hist <> None)

(* --- trace ring buffer --- *)

let test_trace_ring () =
  with_obs @@ fun () ->
  Fun.protect ~finally:(fun () -> Trace.set_capacity None) @@ fun () ->
  (match Trace.set_capacity (Some 0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "capacity 0 must raise");
  Trace.set_capacity (Some 4);
  Alcotest.(check bool) "capacity readable" true (Trace.get_capacity () = Some 4);
  Trace.name_process ~pid:Trace.pid_fleet "fleet";
  for i = 0 to 9 do
    Trace.complete ~pid:Trace.pid_fleet ~tid:1 ~ts:(float_of_int i) ~dur:1.
      (Printf.sprintf "ev%d" i)
  done;
  Alcotest.(check int) "six oldest evicted" 6 (Trace.dropped_count ());
  Alcotest.(check (float 1e-9)) "eviction surfaces as trace.dropped" 6.
    (Metrics.counter_value (Metrics.counter "trace.dropped"));
  let j = Trace.export () in
  Alcotest.(check (list string)) "ring keeps the newest window"
    [ "ev6"; "ev7"; "ev8"; "ev9" ]
    (List.map (fun s -> s.name) (spans_of_trace j));
  Alcotest.(check bool) "export reports droppedEvents" true
    (J.member "droppedEvents" j = Some (J.Int 6));
  (* metadata (track names) is never evicted by the ring *)
  (match J.member "traceEvents" j with
  | Some (J.List evs) ->
    Alcotest.(check bool) "track names retained" true
      (List.exists (fun e -> J.member "ph" e = Some (J.String "M")) evs)
  | _ -> Alcotest.fail "no traceEvents");
  (* shrinking below the live count evicts immediately *)
  Trace.set_capacity (Some 2);
  Alcotest.(check int) "shrink evicts" 8 (Trace.dropped_count ());
  (* lifting the cap restores unbounded recording *)
  Trace.set_capacity None;
  Trace.complete ~pid:Trace.pid_fleet ~tid:1 ~ts:20. ~dur:1. "after";
  Alcotest.(check int) "no further drops" 8 (Trace.dropped_count ());
  Trace.reset ();
  Alcotest.(check int) "reset zeroes the dropped count" 0 (Trace.dropped_count ())

(* --- JSON round-trip property --- *)

let json_gen =
  let open QCheck.Gen in
  (* strings built from fragments that exercise every escape path: quotes,
     backslashes, control characters, and multi-byte UTF-8 *)
  let string_gen =
    let fragment =
      oneofl
        [ "\""; "\\"; "\n"; "\r"; "\t"; "\x01"; "\x1f"; "/"; "k"; "plain";
          "caf\xc3\xa9"; "\xe6\xbc\xa2\xe5\xad\x97" ]
    in
    map (String.concat "") (list_size (int_bound 5) fragment)
  in
  (* non-finite floats print as null by design, so they cannot round-trip *)
  let finite_float = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let scalar =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun f -> J.Float f) finite_float;
        map (fun s -> J.String s) string_gen ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [ (3, scalar);
               (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2))));
               (1,
                map
                  (fun kvs -> J.Obj kvs)
                  (list_size (int_bound 4) (pair string_gen (self (n / 2))))) ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json documents survive print/parse" ~count:500
    (QCheck.make ~print:J.to_string json_gen)
    (fun doc ->
      J.of_string (J.to_string doc) = doc
      && J.of_string (J.to_string ~pretty:true doc) = doc)

let test_json_deep_nesting () =
  let rec build n acc =
    if n = 0 then acc else build (n - 1) (J.Obj [ ("k", J.List [ acc ]) ])
  in
  let deep = build 200 (J.String "leaf") in
  Alcotest.(check bool) "deep round-trip" true
    (J.of_string (J.to_string deep) = deep);
  Alcotest.(check bool) "deep pretty round-trip" true
    (J.of_string (J.to_string ~pretty:true deep) = deep);
  (* integral floats keep a decimal point so the type survives the trip *)
  Alcotest.(check string) "integral float prints a point" "42.0"
    (J.to_string (J.Float 42.));
  Alcotest.(check bool) "integral float stays float" true
    (J.of_string (J.to_string (J.Float 42.)) = J.Float 42.)

(* --- OpenMetrics exposition --- *)

let has_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_openmetrics_sanitize () =
  let module O = Cim_obs.Openmetrics in
  Alcotest.(check string) "dots become underscores" "serving_chip_served"
    (O.sanitize_name "serving.chip.served");
  Alcotest.(check string) "leading digit masked" "_9lives"
    (O.sanitize_name "99lives");
  Alcotest.(check string) "colons survive" "a:b_c" (O.sanitize_name "a:b-c")

let test_openmetrics_grammar () =
  with_obs @@ fun () ->
  let c = Metrics.counter ~labels:[ ("chip", "0"); ("model", "a\"b\\c") ]
      "serving.chip.served"
  in
  Metrics.incr ~by:3. c;
  Metrics.set_gauge (Metrics.gauge "fleet.queue.depth") 7.5;
  let h = Metrics.histogram ~buckets:[ 1.; 2.; 5. ] "serving.latency" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.; 100. ];
  let text = Cim_obs.Openmetrics.to_string () in
  let lines = String.split_on_char '\n' text in
  (* the exposition must terminate with "# EOF" *)
  let len = String.length text in
  Alcotest.(check string) "terminates with EOF" "# EOF\n"
    (String.sub text (len - 6) 6);
  (* every line obeys the grammar: a comment, or NAME[{LABELS}] VALUE with
     NAME in [a-zA-Z_:][a-zA-Z0-9_:]* and VALUE a float *)
  let valid_name s =
    String.length s > 0
    && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         s
  in
  List.iter
    (fun line ->
      if line <> "" && not (String.starts_with ~prefix:"# " line) then begin
        let name_end =
          match (String.index_opt line '{', String.index_opt line ' ') with
          | Some b, Some sp when b < sp -> b
          | _, Some sp -> sp
          | _ -> Alcotest.failf "no sample value in %S" line
        in
        Alcotest.(check bool)
          (Printf.sprintf "metric name in %S is legal" line)
          true
          (valid_name (String.sub line 0 name_end));
        let sp = String.rindex line ' ' in
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        match float_of_string_opt value with
        | Some _ -> ()
        | None -> Alcotest.failf "unparseable sample value %S in %S" value line
      end)
    lines;
  (* family-specific structure *)
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true (List.mem expected lines))
    [ "# TYPE serving_chip_served counter";
      "# TYPE fleet_queue_depth gauge";
      "# TYPE serving_latency histogram";
      "fleet_queue_depth 7.5";
      "serving_latency_bucket{le=\"1\"} 1";
      "serving_latency_bucket{le=\"2\"} 2";
      "serving_latency_bucket{le=\"5\"} 3";
      "serving_latency_bucket{le=\"+Inf\"} 4";
      "serving_latency_sum 105";
      "serving_latency_count 4" ];
  (* the counter sample carries the _total suffix and its escaped labels *)
  Alcotest.(check bool) "counter _total with labels" true
    (has_sub text
       "serving_chip_served_total{chip=\"0\",model=\"a\\\"b\\\\c\"} 3")

(* --- timeline snapshots --- *)

module Timeline = Cim_obs.Timeline

let test_timeline_sampling () =
  (match Timeline.create ~interval:0. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero interval accepted");
  (match Timeline.create ~interval:Float.nan () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nan interval accepted");
  let tl = Timeline.create ~interval:10. () in
  Alcotest.(check string) "empty timeline renders no csv" "" (Timeline.to_csv tl);
  Alcotest.(check bool) "first tick due at start" true (Timeline.due tl ~now:0.);
  Timeline.record tl ~now:0. [ ("q", 1.) ];
  Alcotest.(check bool) "mid-interval not due" false (Timeline.due tl ~now:9.9);
  Timeline.record tl ~now:5. [ ("q", 2.) ];
  (* second tick at 10 fires on the first event at-or-after it *)
  Timeline.record tl ~now:12. [ ("q", 3.) ];
  Timeline.record tl ~now:13. [ ("q", 4.) ];
  (* a quiet stretch: ticks 20/30/40/50 are skipped, never back-filled *)
  Timeline.record tl ~now:57. [ ("q", 5.) ];
  Alcotest.(check bool) "skipped ticks not back-filled" false
    (Timeline.due tl ~now:59.);
  Timeline.force tl ~now:59. [ ("q", 6.) ];
  Alcotest.(check int) "one sample per due tick" 4 (Timeline.count tl);
  Alcotest.(check bool) "samples stamped with the driving clock" true
    (List.map (fun s -> s.Timeline.t) (Timeline.samples tl)
    = [ 0.; 12.; 57.; 59. ]);
  let csv_lines = String.split_on_char '\n' (Timeline.to_csv tl) in
  Alcotest.(check string) "csv header from field names" "t,q"
    (List.nth csv_lines 0);
  Alcotest.(check string) "csv first row" "0,1" (List.nth csv_lines 1);
  Alcotest.(check string) "csv last row" "59,6" (List.nth csv_lines 4)

let test_timeline_codec () =
  let tl = Timeline.create ~interval:1. () in
  Timeline.record tl ~now:0. [ ("a", 1.5); ("b", 2.) ];
  Timeline.record tl ~now:3.25 [ ("a", 0.25); ("b", -1.) ];
  (match
     Timeline.samples_of_json (J.of_string (J.to_string (Timeline.to_json tl)))
   with
  | Ok ss ->
    Alcotest.(check bool) "samples survive json" true (ss = Timeline.samples tl)
  | Error m -> Alcotest.fail m);
  match Timeline.samples_of_json (J.String "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-list accepted as snapshots"

(* --- telemetry collector and the offline dashboard --- *)

module Telemetry = Cim_obs.Telemetry

let test_telemetry_collector () =
  (match Telemetry.create ~slo_budget:0. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "budget 0 accepted");
  (match Telemetry.create ~slo_budget:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "budget 1.5 accepted");
  let tele = Telemetry.create ~snapshot_interval:10. ~slo_budget:0.1 () in
  Alcotest.(check (float 0.)) "interval kept" 10.
    (Telemetry.snapshot_interval tele);
  Alcotest.(check bool) "budget kept" true (Telemetry.slo_budget tele = Some 0.1);
  Telemetry.set_meta tele "model" (J.String "mlp");
  Telemetry.set_meta tele "chips" (J.Int 2);
  Telemetry.set_meta tele "model" (J.String "cnn");
  Telemetry.span tele ~lane:"chip0" ~ts:0. ~dur:5. "prefill";
  Telemetry.span tele ~lane:"chip0" ~ts:5. ~dur:15. "decode"
    ~attrs:[ ("req", J.Int 0) ];
  Telemetry.span tele ~lane:"fleet" ~ts:0. ~dur:2. "queue";
  Telemetry.mark tele ~lane:"chip1" ~ts:3. "fault";
  Alcotest.(check int) "span count" 3 (Telemetry.span_count tele);
  Timeline.record (Telemetry.timeline tele) ~now:0. [ ("queue_depth", 1.) ];
  Timeline.record (Telemetry.timeline tele) ~now:25. [ ("queue_depth", 0.) ];
  Telemetry.set_extra tele "slo"
    (Telemetry.slo_summary ~budget:0.1 ~violations:2 ~completed:50);
  let file = Filename.temp_file "cmswitch_tele" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Telemetry.write_file tele file;
  let doc = Telemetry.load file in
  (match J.member "meta" doc with
  | Some (J.Obj kvs) ->
    Alcotest.(check int) "meta rekey replaces, not duplicates" 2
      (List.length kvs);
    Alcotest.(check bool) "meta keeps the last value" true
      (List.assoc_opt "model" kvs = Some (J.String "cnn"))
  | _ -> Alcotest.fail "no meta object");
  Alcotest.(check int) "both snapshots serialized" 2
    (match J.member "snapshots" doc with Some (J.List l) -> List.length l | _ -> -1);
  Alcotest.(check int) "spans serialized in order" 3
    (match J.member "spans" doc with Some (J.List l) -> List.length l | _ -> -1);
  (* 2 violations over 50 completions is 4% of a 10% budget: burn rate 0.4 *)
  (match Option.bind (J.member "slo" doc) (J.member "burn_rate") with
  | Some b ->
    Alcotest.(check bool) "burn rate arithmetic" true
      (match J.to_float b with
      | Some v -> Float.abs (v -. 0.4) < 1e-9
      | None -> false)
  | None -> Alcotest.fail "slo extra missing");
  Alcotest.(check bool) "openmetrics text embedded" true
    (match J.member "openmetrics" doc with
    | Some (J.String s) -> has_sub s "# EOF"
    | _ -> false)

let test_telemetry_report () =
  with_obs @@ fun () ->
  Metrics.incr ~by:10. (Metrics.counter "serving.completed");
  List.iter
    (Metrics.observe (Metrics.histogram "serving.latency_cycles"))
    [ 100.; 200.; 300.; 400. ];
  let tele = Telemetry.create ~snapshot_interval:10. ~slo_budget:0.05 () in
  Telemetry.set_meta tele "model" (J.String "mlp");
  Telemetry.set_meta tele "horizon" (J.Float 100.);
  Telemetry.span tele ~lane:"chip0" ~ts:0. ~dur:50. "prefill";
  Telemetry.span tele ~lane:"chip1" ~ts:0. ~dur:25. "decode";
  Telemetry.span tele ~lane:"fleet" ~ts:0. ~dur:10. "queue";
  Telemetry.mark tele ~lane:"chip1" ~ts:30. "fault";
  Timeline.record (Telemetry.timeline tele) ~now:0. [ ("queue_depth", 3.) ];
  Timeline.force (Telemetry.timeline tele) ~now:100. [ ("queue_depth", 0.) ];
  Telemetry.set_extra tele "drift"
    (J.Obj
       [ ("source", J.String "test");
         ("summary",
          J.List
            [ J.Obj
                [ ("mode", J.String "cim/intra");
                  ("predicted", J.Float 100.);
                  ("measured", J.Float 110.);
                  ("drift_pct", J.Float 10.) ] ]);
         ("rows", J.List []) ]);
  Telemetry.set_extra tele "slo"
    (Telemetry.slo_summary ~budget:0.05 ~violations:1 ~completed:10);
  (* render from the parsed-back document, exactly as `cmswitch report`
     does on a file from a previous run *)
  let md = Telemetry.report (J.of_string (J.to_string (Telemetry.to_json tele))) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " rendered") true (has_sub md needle))
    [ "# cmswitch telemetry report"; "## Run"; "## Serving"; "## Latency";
      "p999"; "## Request phases"; "## Chip utilization";
      "## Cost-model drift"; "## SLO error budget"; "## Timeline";
      "serving.completed"; "serving.latency_cycles"; "cim/intra"; "+10.00%";
      (* chip0 is busy 50 of the 100-cycle horizon *)
      "| chip0 | 50 | 50.0% |"; "queue_depth" ];
  (* the fleet lane must not appear in the utilization table *)
  Alcotest.(check bool) "fleet lane not a chip" false (has_sub md "| fleet |");
  (* a document with none of the optional members renders just the title *)
  let bare = Telemetry.report (J.Obj []) in
  Alcotest.(check bool) "bare document renders no sections" false
    (has_sub bare "## ")

(* observe_n is k single observes, bit for bit: counts, the exact sum
   (added k times, never v *. k), extrema, buckets and the reservoir's
   draws, across the reservoir's capacity *)
let prop_observe_n_is_k_observes =
  QCheck.Test.make ~name:"observe_n = k single observes" ~count:100
    QCheck.(
      list_of_size Gen.(int_range 0 12)
        (pair (float_range (-1e6) 1e9) (int_range 0 700)))
    (fun runs ->
      with_obs @@ fun () ->
      let one = Metrics.histogram "test.observe_one"
      and many = Metrics.histogram "test.observe_n" in
      List.iter
        (fun (v, k) ->
          for _ = 1 to k do Metrics.observe one v done;
          Metrics.observe_n many v k)
        runs;
      let bits (s : Metrics.summary) =
        Printf.sprintf "%d %h %h %h %h %h %h %h %h %s" s.Metrics.n s.Metrics.sum
          s.Metrics.mean s.Metrics.min s.Metrics.p50 s.Metrics.p95
          s.Metrics.p99 s.Metrics.p999 s.Metrics.max
          (String.concat ","
             (List.map (fun (le, c) -> Printf.sprintf "%h:%d" le c)
                s.Metrics.buckets))
      in
      bits (Metrics.summarize one) = bits (Metrics.summarize many))

let suite =
  ( "obs",
    [
      Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "json malformed" `Quick test_json_malformed;
      Alcotest.test_case "json parser pinned" `Quick test_json_parse_pins;
      Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "span survives raise" `Quick test_span_survives_raise;
      Alcotest.test_case "monotone clock across domains" `Quick
        test_monotone_clock_across_domains;
      Alcotest.test_case "buffered spans merge" `Quick test_buffered_merge;
      Alcotest.test_case "atomic metrics across domains" `Quick
        test_atomic_metrics_across_domains;
      Alcotest.test_case "metrics accumulation" `Quick test_metrics_accumulation;
      Alcotest.test_case "disabled is no-op" `Quick test_disabled_noop;
      Alcotest.test_case "disabled overhead guard" `Quick test_disabled_overhead;
      Alcotest.test_case "golden compile trace" `Quick test_compile_trace;
      Alcotest.test_case "trace file round-trip" `Quick test_write_file;
      Alcotest.test_case "bounded histogram" `Quick test_histogram_bounded;
      Alcotest.test_case "trace ring buffer" `Quick test_trace_ring;
      QCheck_alcotest.to_alcotest prop_json_roundtrip;
      QCheck_alcotest.to_alcotest prop_observe_n_is_k_observes;
      Alcotest.test_case "json deep nesting" `Quick test_json_deep_nesting;
      Alcotest.test_case "openmetrics name sanitizer" `Quick
        test_openmetrics_sanitize;
      Alcotest.test_case "openmetrics grammar" `Quick test_openmetrics_grammar;
      Alcotest.test_case "timeline sampling" `Quick test_timeline_sampling;
      Alcotest.test_case "timeline codec" `Quick test_timeline_codec;
      Alcotest.test_case "telemetry collector" `Quick test_telemetry_collector;
      Alcotest.test_case "telemetry report" `Quick test_telemetry_report;
    ] )
