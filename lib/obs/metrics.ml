(* Domain-safe instruments: counter and gauge cells are Atomic.t (float
   adds go through CAS loops), so solver counters bumped from pool worker
   domains accumulate exactly the same totals as a serial run — addition
   order differs, but counter increments are integral and gauges are
   last-write, so the rendered dump is identical whatever the job count.

   Histograms are BOUNDED: a fixed-bucket count vector (cumulative counts
   feed the OpenMetrics exposition) plus a reservoir (Algorithm R with a
   deterministic per-histogram splitmix64 stream) for percentile
   summaries. Memory per histogram is O(buckets + reservoir_capacity)
   however many samples are observed — the previous implementation
   prepended every sample to a list forever, which on a long fleet run
   with telemetry enabled was an unbounded leak. A histogram's mutable
   state is guarded by its own mutex (bucket counts, sum, min/max and the
   reservoir must move together); bucket counts and exact count/sum/min/
   max are order-independent, so they too are deterministic at any job
   count. Reservoir percentiles are exact whenever fewer samples than the
   reservoir capacity were observed (every sample is retained), and a
   uniform subsample estimate beyond that.

   The registry itself is guarded by a mutex; call sites register at
   module initialisation, so the hot path is the instrument update, not
   the lookup. *)

type counter = {
  cname : string;
  clabels : (string * string) list;
  count : float Atomic.t;
  c_touched : bool Atomic.t;
}

type gauge = {
  gname : string;
  glabels : (string * string) list;
  value : float Atomic.t;
  g_touched : bool Atomic.t;
}

let reservoir_capacity = 2048

(* geometric ladder spanning microseconds-of-seconds to tera-cycles:
   1, 2.5, 5 per decade over 1e-6 .. 5e11 *)
let default_buckets =
  List.concat_map
    (fun d ->
      let base = 10. ** float_of_int d in
      [ base; 2.5 *. base; 5. *. base ])
    (List.init 18 (fun i -> i - 6))

type histogram = {
  hname : string;
  hlabels : (string * string) list;
  hlock : Mutex.t;
  bounds : float array; (* strictly increasing upper bounds; +Inf implicit *)
  bucket_counts : int array; (* length = Array.length bounds + 1 *)
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
  reservoir : float array; (* first min(hcount, capacity) slots valid *)
  mutable rfill : int;
  mutable rstate : int64; (* splitmix64: deterministic given sample order *)
}

type summary = {
  n : int;
  sum : float;
  mean : float;
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
  buckets : (float * int) list; (* (le, cumulative count), +infinity last *)
}

type value = Counter of float | Gauge of float | Histogram of summary

type instrument = C of counter | G of gauge | H of histogram

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* registry key: name plus canonically-ordered labels, so the same
   (name, labels) pair from two call sites aliases one instrument *)
let key_of name labels =
  match labels with
  | [] -> name
  | l ->
    let l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=\"" ^ v ^ "\"") l)
    ^ "}"

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let seed = 0x9e3779b97f4a7c15L

let reset_histogram h =
  Mutex.lock h.hlock;
  Array.fill h.bucket_counts 0 (Array.length h.bucket_counts) 0;
  h.hcount <- 0;
  h.hsum <- 0.;
  h.hmin <- Float.infinity;
  h.hmax <- Float.neg_infinity;
  h.rfill <- 0;
  h.rstate <- seed;
  Mutex.unlock h.hlock

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ i ->
      match i with
      | C c ->
        Atomic.set c.count 0.;
        Atomic.set c.c_touched false
      | G g ->
        Atomic.set g.value 0.;
        Atomic.set g.g_touched false
      | H h -> reset_histogram h)
    registry;
  Mutex.unlock registry_mutex

let clash name = invalid_arg ("Metrics: " ^ name ^ " already registered with another type")

(* find-or-create under the registry mutex; the instrument cells themselves
   carry their own synchronisation, so only registration needs the lock *)
let find_or_create key make select =
  Mutex.lock registry_mutex;
  let r =
    match Hashtbl.find_opt registry key with
    | Some i -> ( match select i with Some x -> Ok x | None -> Error ())
    | None ->
      let i, x = make () in
      Hashtbl.replace registry key i;
      Ok x
  in
  Mutex.unlock registry_mutex;
  match r with Ok x -> x | Error () -> clash key

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let counter ?(labels = []) name =
  find_or_create (key_of name labels)
    (fun () ->
      let c =
        { cname = name; clabels = canon_labels labels;
          count = Atomic.make 0.; c_touched = Atomic.make false }
      in
      (C c, c))
    (function C c -> Some c | G _ | H _ -> None)

let rec atomic_add cell by =
  let v = Atomic.get cell in
  if not (Atomic.compare_and_set cell v (v +. by)) then atomic_add cell by

let incr ?(by = 1.) c =
  if Atomic.get on then begin
    atomic_add c.count by;
    Atomic.set c.c_touched true
  end

let counter_value c = Atomic.get c.count

let gauge ?(labels = []) name =
  find_or_create (key_of name labels)
    (fun () ->
      let g =
        { gname = name; glabels = canon_labels labels;
          value = Atomic.make 0.; g_touched = Atomic.make false }
      in
      (G g, g))
    (function G g -> Some g | C _ | H _ -> None)

let set_gauge g v =
  if Atomic.get on then begin
    Atomic.set g.value v;
    Atomic.set g.g_touched true
  end

let gauge_value g = Atomic.get g.value

let histogram ?(labels = []) ?buckets name =
  let bounds =
    let bs = match buckets with Some b -> b | None -> default_buckets in
    let bs = List.sort_uniq Float.compare (List.filter Float.is_finite bs) in
    if bs = [] then invalid_arg ("Metrics.histogram " ^ name ^ ": empty bucket list");
    Array.of_list bs
  in
  find_or_create (key_of name labels)
    (fun () ->
      let h =
        { hname = name; hlabels = canon_labels labels;
          hlock = Mutex.create (); bounds;
          bucket_counts = Array.make (Array.length bounds + 1) 0;
          hcount = 0; hsum = 0.;
          hmin = Float.infinity; hmax = Float.neg_infinity;
          reservoir = Array.make reservoir_capacity 0.;
          rfill = 0; rstate = seed }
      in
      (H h, h))
    (function H h -> Some h | C _ | G _ -> None)

(* splitmix64: tiny, deterministic, and statistically fine for reservoir
   slot selection — no dependence on the global Random state *)
let next_u64 h =
  let z = Int64.add h.rstate 0x9e3779b97f4a7c15L in
  h.rstate <- z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform int in [0, n) by modulo — the bias at n << 2^63 is irrelevant
   for reservoir slot choice *)
let rand_below h n =
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_u64 h) 1) (Int64.of_int n))

let bucket_index bounds v =
  (* first bound >= v; Array.length bounds = overflow (+Inf) bucket *)
  let lo = ref 0 and hi = ref (Array.length bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if bounds.(mid) >= v then hi := mid else lo := mid + 1
  done;
  !lo

(* [k] samples of [v] under one lock, exactly as [k] single observes: the
   sum adds [v] once per sample (never [v *. k], which rounds differently)
   and the reservoir draws once per sample *)
let observe_n h v k =
  if k > 0 && Atomic.get on then begin
    Mutex.lock h.hlock;
    if v < h.hmin then h.hmin <- v;
    if v > h.hmax then h.hmax <- v;
    let bi =
      if Float.is_nan v then Array.length h.bounds else bucket_index h.bounds v
    in
    h.bucket_counts.(bi) <- h.bucket_counts.(bi) + k;
    for _ = 1 to k do
      h.hcount <- h.hcount + 1;
      h.hsum <- h.hsum +. v;
      (* Algorithm R: keep every sample while the reservoir has room, then
         replace a uniformly-chosen slot with probability capacity/seen *)
      if h.rfill < reservoir_capacity then begin
        h.reservoir.(h.rfill) <- v;
        h.rfill <- h.rfill + 1
      end
      else begin
        let j = rand_below h h.hcount in
        if j < reservoir_capacity then h.reservoir.(j) <- v
      end
    done;
    Mutex.unlock h.hlock
  end

let observe h v = observe_n h v 1

let histogram_count h =
  Mutex.lock h.hlock;
  let n = h.hcount in
  Mutex.unlock h.hlock;
  n

let touched () =
  Mutex.lock registry_mutex;
  let l =
    Hashtbl.fold
      (fun key i acc ->
        match i with
        | C c when Atomic.get c.c_touched -> (key, i) :: acc
        | G g when Atomic.get g.g_touched -> (key, i) :: acc
        | H h when h.hcount > 0 -> (key, i) :: acc
        | C _ | G _ | H _ -> acc)
      registry []
  in
  Mutex.unlock registry_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let percentile_of_sorted arr p =
  let n = Array.length arr in
  if n = 0 then 0.
  else begin
    (* nearest rank, multiply-before-divide (see Stats) *)
    let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
    arr.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
  end

let summarize (h : histogram) =
  Mutex.lock h.hlock;
  let n = h.hcount in
  let sum = h.hsum in
  let mn = h.hmin and mx = h.hmax in
  let kept = Array.sub h.reservoir 0 h.rfill in
  let cum = Array.make (Array.length h.bucket_counts) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i c ->
      acc := !acc + c;
      cum.(i) <- !acc)
    h.bucket_counts;
  Mutex.unlock h.hlock;
  (* NaN has no rank; drop it from the percentile sample rather than
     letting it poison the sort *)
  let kept =
    if Array.exists Float.is_nan kept then
      Array.of_list (List.filter (fun v -> not (Float.is_nan v)) (Array.to_list kept))
    else kept
  in
  Array.sort Float.compare kept;
  let pct p = percentile_of_sorted kept p in
  let buckets =
    List.init (Array.length cum) (fun i ->
        let le =
          if i < Array.length h.bounds then h.bounds.(i) else Float.infinity
        in
        (le, cum.(i)))
  in
  {
    n;
    sum;
    mean = (if n = 0 then 0. else sum /. float_of_int n);
    min = (if n = 0 then 0. else mn);
    p50 = pct 50.;
    p95 = pct 95.;
    p99 = pct 99.;
    p999 = pct 99.9;
    max = (if n = 0 then 0. else mx);
    buckets;
  }

let dump () =
  List.map
    (fun (_, i) ->
      match i with
      | C c -> (c.cname, c.clabels, Counter (Atomic.get c.count))
      | G g -> (g.gname, g.glabels, Gauge (Atomic.get g.value))
      | H h -> (h.hname, h.hlabels, Histogram (summarize h)))
    (touched ())

let num x =
  (* counters are usually integral; print them without a fraction *)
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%g" x

let display_name name labels = key_of name labels

let to_markdown () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "| metric | type | value |\n|---|---|---|\n";
  List.iter
    (fun (name, labels, v) ->
      let name = display_name name labels in
      match v with
      | Counter c ->
        Buffer.add_string buf
          (Printf.sprintf "| %s | counter | %s |\n" name (num c))
      | Gauge g ->
        Buffer.add_string buf
          (Printf.sprintf "| %s | gauge | %s |\n" name (num g))
      | Histogram s ->
        Buffer.add_string buf
          (Printf.sprintf
             "| %s | histogram | n=%d mean=%s min=%s p50=%s p95=%s p99=%s \
              p999=%s max=%s |\n"
             name s.n (num s.mean) (num s.min) (num s.p50) (num s.p95)
             (num s.p99) (num s.p999) (num s.max)))
    (dump ());
  Buffer.contents buf

let to_json () =
  let counters = ref [] and gauges = ref [] and histos = ref [] in
  List.iter
    (fun (name, labels, v) ->
      let name = display_name name labels in
      match v with
      | Counter c -> counters := (name, Json.Float c) :: !counters
      | Gauge g -> gauges := (name, Json.Float g) :: !gauges
      | Histogram s ->
        histos :=
          ( name,
            Json.Obj
              [ ("count", Json.Int s.n); ("mean", Json.Float s.mean);
                ("min", Json.Float s.min); ("p50", Json.Float s.p50);
                ("p95", Json.Float s.p95); ("p99", Json.Float s.p99);
                ("p999", Json.Float s.p999); ("max", Json.Float s.max) ] )
          :: !histos)
    (dump ());
  Json.Obj
    [ ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !histos)) ]
