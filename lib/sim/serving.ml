module Metrics = Cim_obs.Metrics

type request = { arrival : float; prompt : int; output : int }

type cost_profile = {
  prefill_cycles : int -> float;
  decode_cycles : int -> float;
}

type stats = {
  completed : int;
  dropped : int;
  makespan : float;
  mean_latency : float;
  p95_latency : float;
  p99_latency : float;
  mean_ttft : float;
  p50_tpt : float;
  p95_tpt : float;
  p99_tpt : float;
  tokens : int;
  tokens_per_megacycle : float;
}

let zero_stats =
  {
    completed = 0;
    dropped = 0;
    makespan = 0.;
    mean_latency = 0.;
    p95_latency = 0.;
    p99_latency = 0.;
    mean_ttft = 0.;
    p50_tpt = 0.;
    p95_tpt = 0.;
    p99_tpt = 0.;
    tokens = 0;
    tokens_per_megacycle = 0.;
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
   costers (a Cmswitch.session_step behind each call); the memo here is
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

type config = { deadline : float option }

let default_config = { deadline = None }

let run ?(config = default_config) profile requests =
  let deadline = config.deadline in
  (match deadline with
  | Some d when d <= 0. -> invalid_arg "Serving.run: deadline must be positive"
  | _ -> ());
  let requests = List.sort (fun a b -> compare a.arrival b.arrival) requests in
  let now = ref 0. in
  let latencies = ref [] and ttfts = ref [] and tpts = ref [] in
  let tokens = ref 0 in
  let completed = ref 0 and dropped = ref 0 in
  List.iter
    (fun r ->
      if r.prompt <= 0 || r.output < 0 then
        invalid_arg "Serving.run: malformed request";
      let start = Float.max !now r.arrival in
      let after_prefill = start +. profile.prefill_cycles r.prompt in
      let finish = ref after_prefill in
      for t = 0 to r.output - 1 do
        finish := !finish +. profile.decode_cycles (r.prompt + t)
      done;
      (* admission control: a request that cannot finish within its
         deadline is dropped on arrival and does not occupy the chip *)
      match deadline with
      | Some d when !finish -. r.arrival > d -> incr dropped
      | _ ->
        incr completed;
        ttfts := (after_prefill -. r.arrival) :: !ttfts;
        (* per-decode-step latency (time per token), admitted requests only *)
        for t = 0 to r.output - 1 do
          tpts := profile.decode_cycles (r.prompt + t) :: !tpts
        done;
        now := !finish;
        tokens := !tokens + r.output + 1;
        latencies := (!finish -. r.arrival) :: !latencies)
    requests;
  if Metrics.enabled () then begin
    Metrics.incr ~by:(float_of_int !completed) (Metrics.counter "serving.completed");
    Metrics.incr ~by:(float_of_int !dropped) (Metrics.counter "serving.dropped");
    Metrics.incr ~by:(float_of_int !tokens) (Metrics.counter "serving.tokens");
    let h_lat = Metrics.histogram "serving.latency_cycles" in
    let h_ttft = Metrics.histogram "serving.ttft_cycles" in
    let h_tpt = Metrics.histogram "serving.tpt_cycles" in
    List.iter (Metrics.observe h_lat) !latencies;
    List.iter (Metrics.observe h_ttft) !ttfts;
    List.iter (Metrics.observe h_tpt) !tpts
  end;
  if !completed = 0 then { zero_stats with dropped = !dropped }
  else
    let latencies = !latencies in
    {
      completed = !completed;
      dropped = !dropped;
      makespan = !now;
      mean_latency = Cim_util.Stats.mean latencies;
      (* nearest rank, not interpolation: on short traces (< 20 requests)
         the 95th percentile is the worst observed latency, not a blend of
         the two slowest requests *)
      p95_latency = Cim_util.Stats.percentile_nearest_rank 95. latencies;
      p99_latency = Cim_util.Stats.percentile_nearest_rank 99. latencies;
      mean_ttft = Cim_util.Stats.mean !ttfts;
      p50_tpt =
        (match !tpts with
        | [] -> 0.
        | l -> Cim_util.Stats.percentile_nearest_rank 50. l);
      p95_tpt =
        (match !tpts with
        | [] -> 0.
        | l -> Cim_util.Stats.percentile_nearest_rank 95. l);
      p99_tpt =
        (match !tpts with
        | [] -> 0.
        | l -> Cim_util.Stats.percentile_nearest_rank 99. l);
      tokens = !tokens;
      tokens_per_megacycle =
        (if !now > 0. then float_of_int !tokens /. (!now /. 1e6) else 0.);
    }

let poisson_trace rng ~n ~mean_gap ~prompt ~output =
  if n <= 0 then invalid_arg "Serving.poisson_trace: n must be positive";
  let t = ref 0. in
  List.init n (fun _ ->
      let u =
        let rec draw () =
          let u = Cim_util.Rng.float rng 1. in
          if u = 0. then draw () else u
        in
        draw ()
      in
      t := !t +. (-.mean_gap *. log u);
      { arrival = !t; prompt; output })

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
