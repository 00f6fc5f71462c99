let fail_empty name = invalid_arg (name ^ ": empty list")

let mean = function
  | [] -> fail_empty "Stats.mean"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> fail_empty "Stats.geomean"
  | xs ->
    let log_sum =
      List.fold_left
        (fun acc x ->
          if x <= 0. then invalid_arg "Stats.geomean: non-positive value"
          else acc +. log x)
        0. xs
    in
    exp (log_sum /. float_of_int (List.length xs))

let stdev = function
  | [] -> fail_empty "Stats.stdev"
  | [ _ ] -> 0.
  | xs ->
    let m = mean xs in
    let sq_sum = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    sqrt (sq_sum /. float_of_int (List.length xs - 1))

let minimum = function
  | [] -> fail_empty "Stats.minimum"
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> fail_empty "Stats.maximum"
  | x :: xs -> List.fold_left max x xs

(* NaN poisons comparison-based sorting: polymorphic [compare] places NaN
   inconsistently, so a silently mis-sorted array would yield an arbitrary
   "percentile". Reject NaN up front and sort with the total order
   [Float.compare]. *)
let sorted_finite name xs =
  if List.exists Float.is_nan xs then invalid_arg (name ^ ": NaN in input");
  Array.of_list (List.sort Float.compare xs)

let percentile p xs =
  if xs = [] then fail_empty "Stats.percentile";
  if Float.is_nan p then invalid_arg "Stats.percentile: p is NaN";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of [0,100]";
  let arr = sorted_finite "Stats.percentile" xs in
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (* short-circuit exact ranks: with infinities in play the blended form
       would evaluate inf - inf = NaN even though frac is 0 *)
    if frac = 0. then arr.(lo)
    else arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
  end

let percentile_nearest_rank p xs =
  if xs = [] then fail_empty "Stats.percentile_nearest_rank";
  if Float.is_nan p then invalid_arg "Stats.percentile_nearest_rank: p is NaN";
  if p < 0. || p > 100. then
    invalid_arg "Stats.percentile_nearest_rank: p out of [0,100]";
  let arr = sorted_finite "Stats.percentile_nearest_rank" xs in
  let n = Array.length arr in
  (* multiply before dividing: p/100 is not exactly representable (95/100
     rounds up), so (p /. 100.) *. n lands just above whole-number ranks
     and ceil then overshoots by one — visible at n = 20, where p95 must be
     the 19th order statistic, not the maximum *)
  let rank = int_of_float (ceil (p *. float_of_int n /. 100.)) in
  arr.(max 0 (min (n - 1) (rank - 1)))

(* The same rank as [percentile_nearest_rank] over the multiset, found by
   walking cumulative counts instead of indexing an expanded array. *)
let nearest_rank_counts counts =
  let name = "Stats.nearest_rank_counts" in
  if counts = [] then fail_empty name;
  if List.exists (fun (v, _) -> Float.is_nan v) counts then
    invalid_arg (name ^ ": NaN in input");
  if List.exists (fun (_, k) -> k < 1) counts then
    invalid_arg (name ^ ": count below 1");
  let sorted =
    Array.of_list
      (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) counts)
  in
  (* upto.(i): samples in entries 0..i *)
  let upto = Array.make (Array.length sorted) 0 in
  Array.iteri
    (fun i (_, k) -> upto.(i) <- (if i = 0 then k else upto.(i - 1) + k))
    sorted;
  let n = upto.(Array.length upto - 1) in
  fun p ->
    if Float.is_nan p then invalid_arg (name ^ ": p is NaN");
    if p < 0. || p > 100. then invalid_arg (name ^ ": p out of [0,100]");
    let rank = int_of_float (ceil (p *. float_of_int n /. 100.)) in
    let i = max 0 (min (n - 1) (rank - 1)) in
    let rec find e = if upto.(e) > i then fst sorted.(e) else find (e + 1) in
    find 0

let median xs = percentile 50. xs

let normalize_to_max = function
  | [] -> []
  | xs ->
    let m = maximum xs in
    if m = 0. then xs else List.map (fun x -> x /. m) xs

let ratio a b = if b = 0. then invalid_arg "Stats.ratio: zero denominator" else a /. b
