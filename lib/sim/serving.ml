type request = { arrival : float; prompt : int; output : int }

type cost_profile = {
  prefill_cycles : int -> float;
  decode_cycles : int -> float;
}

let interpolate samples =
  (* dedupe by x KEY, keeping the last sample given for each x: sort_uniq
     over pairs dedupes (x, y) pairs only, so duplicate-x samples like
     (5, 1.0); (5, 2.0) would both survive and put a zero-width bracket
     (x1 - x0 = 0 -> NaN cycles) into the table *)
  let by_x = Hashtbl.create (List.length samples) in
  List.iter (fun (x, y) -> Hashtbl.replace by_x x y) samples;
  let samples = Hashtbl.fold (fun x y acc -> (x, y) :: acc) by_x [] in
  match List.sort compare samples with
  | [] ->
    (* no samples: an empty profile costs nothing, matching the zeroed
       stats an empty trace produces *)
    fun _ -> 0.
  | sorted ->
    let arr = Array.of_list sorted in
    fun x ->
      let n = Array.length arr in
      let xf = float_of_int x in
      if x <= fst arr.(0) then snd arr.(0)
      else if x >= fst arr.(n - 1) then snd arr.(n - 1)
      else begin
        (* find the bracketing pair *)
        let i = ref 0 in
        while fst arr.(!i + 1) < x do
          incr i
        done;
        let x0, y0 = arr.(!i) and x1, y1 = arr.(!i + 1) in
        let t = (xf -. float_of_int x0) /. float_of_int (x1 - x0) in
        y0 +. (t *. (y1 -. y0))
      end

(* Bucket-policy view of a cost profile: every length maps to its bucket
   ceiling before the underlying per-length costers run, and each distinct
   ceiling is priced exactly once. The compiler side passes expensive
   costers (a Cmswitch.compile_model behind each call); the memo here is
   what makes decode loops touch them once per bucket, not once per
   length. Kept policy-agnostic (a plain [ceiling] function) so cim_sim
   does not depend on the compiler. *)
let bucketed_profile ~ceiling ~prefill_cycles ~decode_cycles =
  let look memo f len =
    let c = ceiling len in
    if c < len then
      invalid_arg
        (Printf.sprintf
           "Serving.bucketed_profile: ceiling %d below length %d" c len);
    match Hashtbl.find_opt memo c with
    | Some v -> v
    | None ->
      let v = f c in
      Hashtbl.add memo c v;
      v
  in
  let pmemo = Hashtbl.create 16 and dmemo = Hashtbl.create 16 in
  {
    (* prefill of seq tokens prices at the bucket ceiling of seq *)
    prefill_cycles = (fun seq -> look pmemo prefill_cycles (max 1 seq));
    (* a decode step at kv_len prices at context = kv_len + 1, bucketed;
       the underlying coster receives the bucketed kv length (ceiling-1) *)
    decode_cycles =
      (fun kv_len ->
        look dmemo (fun ctx -> decode_cycles (ctx - 1)) (max 1 (kv_len + 1)));
  }

let bursty_trace rng ~n ~burst ~mean_gap ~intra_gap ~prompt ~output =
  if n <= 0 then invalid_arg "Serving.bursty_trace: n must be positive";
  if burst <= 0 then invalid_arg "Serving.bursty_trace: burst must be positive";
  if intra_gap < 0. then
    invalid_arg "Serving.bursty_trace: intra_gap must be non-negative";
  let t = ref 0. in
  List.init n (fun i ->
      if i mod burst = 0 then begin
        (* a new burst front arrives after an exponential inter-burst gap *)
        let u =
          let rec draw () =
            let u = Cim_util.Rng.float rng 1. in
            if u = 0. then draw () else u
          in
          draw ()
        in
        t := !t +. (-.mean_gap *. log u)
      end
      else t := !t +. intra_gap;
      { arrival = !t; prompt; output })

let poisson_trace rng ~n ~mean_gap ~prompt ~output =
  bursty_trace rng ~n ~burst:1 ~mean_gap ~intra_gap:0. ~prompt ~output
