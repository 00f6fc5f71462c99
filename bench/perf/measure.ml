(* Sample statistics shared by the runner and by [compare]. *)

let percentile p xs = Cim_util.Stats.percentile_nearest_rank p xs

let median xs = percentile 50. xs

(* Nearest-rank position of percentile [p] among [n] sorted samples. *)
let rank p n = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

let tail_candidates = [ 99.9; 99.5; 99.; 98.; 97.; 95.; 90.; 75.; 50. ]

(* The highest percentile that still has at least ten samples above it:
   the tail a sample of [n] can actually resolve. [None] below 11 samples. *)
let tail_percentile n =
  List.find_opt (fun p -> n - rank p n >= 10) tail_candidates

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] computes
   them (the default "exclusive" method), so the spreads printed here match
   the ones an outside checker computes from the same values. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Measure.quartiles: empty sample";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = min (ld - 1) (max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs q2

let geomean xs = Cim_util.Stats.geomean xs

(* Peak resident set of this process in MB (Linux [VmHWM]); falls back to
   the OCaml heap's high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
