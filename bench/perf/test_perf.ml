(* Checks the benchmark itself: its statistics, the [compare] verdicts,
   and that a smoke run of every workload emits exactly the metrics
   BENCHMARK.json names, with their units. *)

open Perf_bench
module J = Cim_obs.Json

let feq = Alcotest.float 1e-12

let test_percentile () =
  let xs = List.map float_of_int [ 5; 1; 4; 2; 3 ] in
  Alcotest.check feq "p50" 3. (Measure.percentile 50. xs);
  Alcotest.check feq "p90 is an observation" 5. (Measure.percentile 90. xs);
  Alcotest.check feq "p20" 1. (Measure.percentile 20. xs)

let test_tail_rule () =
  let tail n = Measure.tail_percentile n in
  Alcotest.(check (option (float 0.))) "600 samples: p98 leaves 12 beyond" (Some 98.) (tail 600);
  Alcotest.(check (option (float 0.))) "400 samples: p97" (Some 97.) (tail 400);
  Alcotest.(check (option (float 0.))) "20 samples: p50" (Some 50.) (tail 20);
  Alcotest.(check (option (float 0.))) "10 samples: none" None (tail 10);
  List.iter
    (fun n ->
      match tail n with
      | Some p -> Alcotest.(check bool) "at least ten beyond" true (n - Measure.rank p n >= 10)
      | None -> ())
    [ 11; 50; 99; 1000; 12345 ]

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Measure.quartiles (List.map float_of_int xs) in
  let check name (a, b, c) (a', b', c') =
    Alcotest.check feq (name ^ " q1") a a';
    Alcotest.check feq (name ^ " q2") b b';
    Alcotest.check feq (name ^ " q3") c c'
  in
  check "1..10" (2.75, 5.5, 8.25) (q [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]);
  check "three" (1., 2., 3.) (q [ 3; 1; 2 ]);
  check "four" (1.25, 2.5, 3.75) (q [ 1; 2; 3; 4 ]);
  Alcotest.check feq "spread" ((8.25 -. 2.75) /. 5.5)
    (Measure.spread (List.map float_of_int [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]))

let verdict = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_to_string v)) ( = )

let test_verdicts () =
  let v old_ new_ = Compare.verdict ~lower_better:true ~bound:0.10 ~old_ ~new_ in
  (* ten runs around [m], 1% apart *)
  let ten m = List.init 10 (fun i -> m *. (0.95 +. (0.01 *. float_of_int i))) in
  Alcotest.check verdict "same" Compare.Unchanged (v [ 100.; 101.; 99. ] [ 100.5; 99.5; 100. ]);
  Alcotest.check verdict "15% slower" Compare.Worse (v [ 100.; 101.; 99. ] [ 115.; 116.; 114. ]);
  Alcotest.check verdict "20% faster, ten runs" Compare.Better (v (ten 100.) (ten 80.));
  Alcotest.check verdict "20% faster, three runs: no claim" Compare.Unchanged
    (v [ 100.; 101.; 99. ] [ 80.; 81.; 79. ]);
  Alcotest.check verdict "spread beyond bound" Compare.Unresolved (v [ 80.; 100.; 120. ] [ 100.; 101.; 99. ]);
  Alcotest.check verdict "noisy but every run faster" Compare.Better
    (v (List.init 10 (fun i -> 80. +. (5. *. float_of_int i))) (ten 40.));
  let hv old_ new_ = Compare.verdict ~lower_better:false ~bound:0.10 ~old_ ~new_ in
  Alcotest.check verdict "throughput fell" Compare.Worse (hv [ 10.; 10.1; 9.9 ] [ 8.; 8.1; 7.9 ]);
  let ex = Compare.exact_verdict ~lower_better:true in
  Alcotest.check verdict "exact equal" Compare.Unchanged (ex [ (5., 5.); (7., 7.) ]);
  Alcotest.check verdict "exact: one seed worse" Compare.Worse (ex [ (5., 5.); (7., 7.0001) ]);
  Alcotest.check verdict "exact: better" Compare.Better (ex [ (5., 4.); (7., 7.) ]);
  Alcotest.check verdict "exact: no common seed" Compare.Unresolved (ex [])

let spec =
  lazy
    (let j = J.of_string (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) in
     let entries key =
       match J.member key j with
       | Some (J.List l) ->
         List.map
           (fun m ->
             match (J.member "name" m, J.member "unit" m) with
             | Some (J.String n), Some (J.String u) -> (n, u)
             | _ -> Alcotest.fail ("malformed entry under " ^ key))
           l
       | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)
     in
     (entries "end_to_end", entries "per_layer"))

let units catalogue = List.sort compare catalogue

let test_catalogue () =
  let e2e, per_layer = Lazy.force spec in
  Alcotest.(check (list (pair string string))) "end_to_end" (List.sort compare e2e) (units Report.end_to_end);
  Alcotest.(check (list (pair string string))) "per_layer" (List.sort compare per_layer) (units Report.per_layer)

let work_dir = "_perf_test"

let smoke ~traced name =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
  let w = Option.get (Workloads.find name) in
  let ctx = { Workloads.seed = 3; seconds = 0.; traced; smoke = true; work_dir } in
  Runner.run ctx name w

(* The printed result line: exactly the four keys, every catalogue
   metric with its unit, finite values. *)
let check_result_line catalogue (o : Runner.outcome) =
  let line = Report.result_line ~attempted:o.Runner.attempted ~failed:o.Runner.failed
      (Report.metrics_json catalogue o.Runner.metrics) in
  match J.of_string line with
  | J.Obj kvs ->
    Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kvs);
    (match List.assoc "metrics" kvs with
    | J.Obj ms ->
      Alcotest.(check (list string)) "metric names" (Report.names catalogue) (List.map fst ms);
      List.iter2
        (fun (name, unit) (_, m) ->
          Alcotest.(check (option string)) (name ^ " unit") (Some unit)
            (match J.member "unit" m with Some (J.String u) -> Some u | _ -> None);
          match Option.bind (J.member "value" m) J.to_float with
          | Some v -> Alcotest.(check bool) (name ^ " finite") true (Float.is_finite v)
          | None -> Alcotest.fail (name ^ " has no numeric value"))
        catalogue ms
    | _ -> Alcotest.fail "metrics is not an object")
  | _ -> Alcotest.fail "result line is not an object"

let test_workload name () =
  let o = smoke ~traced:false name in
  Alcotest.(check int) "no failed op" 0 o.Runner.failed;
  check_result_line Report.end_to_end o;
  List.iter
    (fun (m, _) ->
      match List.assoc_opt m o.Runner.metrics with
      | Some v -> Alcotest.(check bool) (m ^ " measured and positive") true (v > 0.)
      | None -> Alcotest.fail (m ^ " not measured"))
    Report.end_to_end;
  let t = smoke ~traced:true name in
  Alcotest.(check int) "no failed op (traced)" 0 t.Runner.failed;
  check_result_line Report.per_layer t;
  List.iter
    (fun (m, _) ->
      Alcotest.(check bool) (m ^ " is a per-layer metric") true
        (List.mem_assoc m Report.per_layer))
    t.Runner.metrics;
  t.Runner.metrics

(* Every per-layer metric is measured by at least one workload. *)
let test_layer_coverage measured () =
  List.iter
    (fun (m, _) ->
      Alcotest.(check bool) (m ^ " measured somewhere") true
        (List.exists (fun ms -> List.mem_assoc m ms) !measured))
    Report.per_layer

let () =
  Unix.putenv "CMSWITCH_JOBS" "1";
  let measured = ref [] in
  Alcotest.run "perf"
    [ ( "measure",
        [ Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "python quartiles" `Quick test_quartiles ] );
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ]);
      ("catalogue", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalogue ]);
      ( "smoke",
        List.map
          (fun name ->
            Alcotest.test_case name `Quick (fun () -> measured := test_workload name () :: !measured))
          Workloads.names
        @ [ Alcotest.test_case "every per-layer metric measured" `Quick (test_layer_coverage measured) ] ) ]
