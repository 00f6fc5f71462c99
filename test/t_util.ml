(* Unit and property tests for Cim_util: statistics, deterministic RNG,
   table rendering, byte-size helpers. *)

open Cim_util

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_f ?(eps = 1e-9) what expected got =
  Alcotest.(check bool) (Printf.sprintf "%s: %g vs %g" what expected got) true
    (feq ~eps expected got)

(* --- Stats --- *)

let test_mean () =
  check_f "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_f "mean singleton" 5. (Stats.mean [ 5. ]);
  Alcotest.check_raises "mean empty" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Stats.mean []))

let test_geomean () =
  check_f "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ]);
  check_f "geomean of equal" 3. (Stats.geomean [ 3.; 3.; 3. ]);
  Alcotest.check_raises "geomean nonpositive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.; 0. ]))

let test_stdev () =
  check_f "stdev singleton" 0. (Stats.stdev [ 42. ]);
  check_f ~eps:1e-6 "stdev" 1. (Stats.stdev [ 1.; 2.; 3. ])

let test_percentile () =
  let xs = [ 10.; 20.; 30.; 40. ] in
  check_f "p0" 10. (Stats.percentile 0. xs);
  check_f "p100" 40. (Stats.percentile 100. xs);
  check_f "p50" 25. (Stats.percentile 50. xs);
  check_f "median odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check_raises "percentile range"
    (Invalid_argument "Stats.percentile: p out of [0,100]") (fun () ->
      ignore (Stats.percentile 101. xs))

let test_percentile_nan () =
  let xs = [ 10.; Float.nan; 30. ] in
  Alcotest.check_raises "percentile NaN input"
    (Invalid_argument "Stats.percentile: NaN in input") (fun () ->
      ignore (Stats.percentile 50. xs));
  Alcotest.check_raises "nearest-rank NaN input"
    (Invalid_argument "Stats.percentile_nearest_rank: NaN in input") (fun () ->
      ignore (Stats.percentile_nearest_rank 50. xs));
  Alcotest.check_raises "percentile NaN p"
    (Invalid_argument "Stats.percentile: p is NaN") (fun () ->
      ignore (Stats.percentile Float.nan [ 1.; 2. ]));
  Alcotest.check_raises "nearest-rank NaN p"
    (Invalid_argument "Stats.percentile_nearest_rank: p is NaN") (fun () ->
      ignore (Stats.percentile_nearest_rank Float.nan [ 1.; 2. ]));
  (* infinities are legal and must sort totally (Float.compare, not
     polymorphic compare) *)
  Alcotest.(check bool) "p100 with +inf" true
    (Stats.percentile 100. [ 1.; Float.infinity; 0. ] = Float.infinity);
  Alcotest.(check bool) "p0 with -inf" true
    (Stats.percentile 0. [ 1.; Float.neg_infinity; 0. ] = Float.neg_infinity)

let test_nearest_rank () =
  let xs = [ 40.; 10.; 30.; 20. ] in
  check_f "nr p95 = max" 40. (Stats.percentile_nearest_rank 95. xs);
  check_f "nr p50" 20. (Stats.percentile_nearest_rank 50. xs);
  check_f "nr p0 = min" 10. (Stats.percentile_nearest_rank 0. xs)

let test_normalize () =
  Alcotest.(check (list (float 1e-9))) "normalize" [ 0.5; 1. ]
    (Stats.normalize_to_max [ 2.; 4. ]);
  Alcotest.(check (list (float 1e-9))) "normalize empty" [] (Stats.normalize_to_max []);
  Alcotest.(check (list (float 1e-9))) "normalize zeros" [ 0.; 0. ]
    (Stats.normalize_to_max [ 0.; 0. ])

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile lies within min/max" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 20) (float_range (-100.) 100.)) (float_range 0. 100.))
    (fun (xs, p) ->
      let v = Cim_util.Stats.percentile p xs in
      v >= Cim_util.Stats.minimum xs -. 1e-9 && v <= Cim_util.Stats.maximum xs +. 1e-9)

let prop_geomean_between =
  QCheck.Test.make ~name:"geomean between min and max" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.001 1000.))
    (fun xs ->
      let g = Cim_util.Stats.geomean xs in
      g >= Cim_util.Stats.minimum xs -. 1e-6 && g <= Cim_util.Stats.maximum xs +. 1e-6)

(* The count table must rank exactly as the expanded list does, to the
   bit: ties (-0 against 0 too), the infinities and counts of 1 included;
   a NaN value or an empty table must raise the same kind of
   [Invalid_argument]. *)
let prop_nearest_rank_counts =
  let value =
    QCheck.Gen.(
      frequency
        [ (8, map float_of_int (int_range (-3) 3));
          (2, float_range (-1e3) 1e3);
          (1, oneofl [ Float.infinity; Float.neg_infinity; -0. ]);
          (1, return Float.nan) ])
  in
  let count = QCheck.Gen.(frequency [ (3, return 1); (1, int_range 2 6) ]) in
  let p =
    QCheck.Gen.(
      frequency
        [ (1, oneofl [ 0.; 50.; 95.; 99.; 99.9; 100. ]);
          (1, float_bound_inclusive 100.) ])
  in
  QCheck.Test.make ~name:"count-table nearest rank = nearest rank of the list"
    ~count:1000
    (QCheck.make
       ~print:(fun (counts, p) ->
         Printf.sprintf "p=%h [%s]" p
           (String.concat "; "
              (List.map (fun (v, k) -> Printf.sprintf "%h x%d" v k) counts)))
       QCheck.Gen.(pair (list_size (int_range 0 10) (pair value count)) p))
    (fun (counts, p) ->
      let xs = List.concat_map (fun (v, k) -> List.init k (fun _ -> v)) counts in
      (* the message after the function name: "empty list", "NaN in input" *)
      let outcome f =
        match f () with
        | v -> Ok v
        | exception Invalid_argument m ->
          let i = String.index m ':' in
          Error (String.sub m i (String.length m - i))
      in
      match
        ( outcome (fun () -> Stats.percentile_nearest_rank p xs),
          outcome (fun () -> Stats.nearest_rank_counts counts p) )
      with
      | Ok a, Ok b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      | Error a, Error b -> a = b
      | _ -> false)

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 1 and b = Rng.create 1 in
  let xs = List.init 32 (fun _ -> Rng.int a 1000) in
  let ys = List.init 32 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.create 2 in
  let zs = List.init 32 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed, different stream" true (xs <> zs)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "int in bounds" true (v >= 0 && v < 7);
    let f = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in bounds" true (f >= 0. && f < 2.5);
    let r = Rng.int_range rng (-3) 4 in
    Alcotest.(check bool) "range in bounds" true (r >= -3 && r <= 4)
  done;
  Alcotest.check_raises "int bound positive"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_copy_split () =
  let rng = Rng.create 4 in
  ignore (Rng.int rng 10);
  let dup = Rng.copy rng in
  Alcotest.(check int) "copy continues identically" (Rng.int rng 1000) (Rng.int dup 1000);
  let child = Rng.split rng in
  Alcotest.(check bool) "split diverges" true
    (List.init 8 (fun _ -> Rng.int child 1000)
    <> List.init 8 (fun _ -> Rng.int rng 1000))

let test_rng_gaussian () =
  let rng = Rng.create 5 in
  let n = 5000 in
  let xs = List.init n (fun _ -> Rng.gaussian rng ~mu:2. ~sigma:3.) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "gaussian mean" true (Float.abs (m -. 2.) < 0.2);
  let s = Stats.stdev xs in
  Alcotest.(check bool) "gaussian stdev" true (Float.abs (s -. 3.) < 0.2)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Cim_util.Rng.shuffle (Cim_util.Rng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* --- Table --- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"demo" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_rule t;
  Table.add_row t [ "longer"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "title present" true (String.length s > 4 && String.sub s 0 4 = "demo");
  Alcotest.(check bool) "contains row" true (contains s "longer");
  Alcotest.(check bool) "contains cell" true (contains s "| x")

let test_table_csv () =
  let t = Table.create ~title:"csv demo" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_rule t;
  Table.add_row t [ "with,comma"; "say \"hi\"" ];
  let csv = Table.render_csv t in
  Alcotest.(check string) "csv content"
    "a,b\nplain,1\n\"with,comma\",\"say \"\"hi\"\"\"\n" csv

let test_table_arity () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "arity mismatch" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_cells () =
  Alcotest.(check string) "speedup" "1.31x" (Table.cell_speedup 1.311);
  Alcotest.(check string) "pct" "12.5%" (Table.cell_pct 0.125);
  Alcotest.(check string) "si k" "1.50k" (Table.cell_si 1500.);
  Alcotest.(check string) "si M" "2.00M" (Table.cell_si 2e6);
  Alcotest.(check string) "si G" "3.00G" (Table.cell_si 3e9);
  Alcotest.(check string) "fixed" "2.7" (Table.cell_f ~digits:1 2.71)

(* --- Bytesize --- *)

let test_bytesize () =
  Alcotest.(check int) "kib" 1024 (Bytesize.kib 1);
  Alcotest.(check int) "mib" (1024 * 1024) (Bytesize.mib 1);
  Alcotest.(check string) "pretty KiB" "80.00 KiB" (Bytesize.to_string (Bytesize.kib 80));
  Alcotest.(check string) "pretty B" "37 B" (Bytesize.to_string 37);
  Alcotest.(check int) "of_bits" 2 (Bytesize.of_bits 9);
  Alcotest.(check int) "ceil_div exact" 3 (Bytesize.ceil_div 9 3);
  Alcotest.(check int) "ceil_div up" 4 (Bytesize.ceil_div 10 3);
  Alcotest.(check int) "ceil_div zero" 0 (Bytesize.ceil_div 0 5);
  Alcotest.check_raises "ceil_div bad divisor"
    (Invalid_argument "Bytesize.ceil_div: non-positive divisor") (fun () ->
      ignore (Bytesize.ceil_div 1 0))

let prop_ceil_div =
  QCheck.Test.make ~name:"ceil_div is ceiling" ~count:500
    QCheck.(pair (int_bound 10000) (int_range 1 100))
    (fun (a, b) ->
      let q = Cim_util.Bytesize.ceil_div a b in
      (q * b >= a) && ((q - 1) * b < a))

let qtest = QCheck_alcotest.to_alcotest

let suite =
  ( "util",
    [
      Alcotest.test_case "stats mean" `Quick test_mean;
      Alcotest.test_case "stats geomean" `Quick test_geomean;
      Alcotest.test_case "stats stdev" `Quick test_stdev;
      Alcotest.test_case "stats percentile" `Quick test_percentile;
      Alcotest.test_case "stats percentile NaN guard" `Quick test_percentile_nan;
      Alcotest.test_case "stats nearest rank" `Quick test_nearest_rank;
      Alcotest.test_case "stats normalize" `Quick test_normalize;
      qtest prop_percentile_bounds;
      qtest prop_geomean_between;
      qtest prop_nearest_rank_counts;
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
      Alcotest.test_case "rng copy/split" `Quick test_rng_copy_split;
      Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian;
      qtest prop_shuffle_is_permutation;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table csv" `Quick test_table_csv;
      Alcotest.test_case "table arity" `Quick test_table_arity;
      Alcotest.test_case "table cells" `Quick test_table_cells;
      Alcotest.test_case "bytesize" `Quick test_bytesize;
      qtest prop_ceil_div;
    ] )
