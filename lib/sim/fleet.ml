(* Event-driven multi-chip fleet serving simulator with a runtime failure
   model. See fleet.mli for the serving-time contract; the implementation
   notes here cover determinism.

   Determinism: the event loop itself is a serial discrete-event
   simulation, so its float arithmetic and its stats are trivially
   reproducible. The only parallel work is plan PREFETCH: every fault map
   a chip can pass through is known up front (the schedule is data, not
   discovered), so all planner calls — one per (chip, fault-event prefix)
   — are fanned out on a Cim_util.Pool and merged back by index. A
   deterministic planner therefore yields byte-identical stats at any job
   count, the same contract Segment.run established for compilation. *)

module Chip = Cim_arch.Chip
module Faultmap = Cim_arch.Faultmap
module Metrics = Cim_obs.Metrics
module Trace = Cim_obs.Trace
module Telemetry = Cim_obs.Telemetry
module Timeline = Cim_obs.Timeline
module Json = Cim_obs.Json
module Pool = Cim_util.Pool
module Rng = Cim_util.Rng

type fault_event = {
  at : float;
  chip : int;
  coord : Chip.coord;
  state : Faultmap.fault option;
}

type plan = { level : int; profile : Serving.cost_profile }

type planner = chip:int -> faults:Faultmap.t -> plan option

type config = {
  chips : int;
  slo : float option;
  shed_output : int;
  max_retries : int;
  backoff_base : float;
  backoff_cap : float;
  breaker_threshold : int;
  recompile_cycles : float;
  jobs : int;
}

let default_config =
  {
    chips = 2;
    slo = None;
    shed_output = 4;
    max_retries = 3;
    backoff_base = 1_000.;
    backoff_cap = 64_000.;
    breaker_threshold = 4;
    recompile_cycles = 10_000.;
    jobs = Pool.default_jobs ();
  }

type stats = {
  offered : int;
  completed : int;
  dropped : int;
  shed : int;
  starved : int;
  retries : int;
  recompiles : int;
  breaker_opens : int;
  chips_out : int;
  slo_violations : int;
  makespan : float;
  mean_latency : float;
  p50_latency : float;
  p95_latency : float;
  p99_latency : float;
  p999_latency : float;
  mean_ttft : float;
  p50_tpt : float;
  p95_tpt : float;
  p99_tpt : float;
  tokens : int;
  tokens_per_megacycle : float;
  per_chip_served : int list;
}

(* ---- fault schedules ----------------------------------------------------- *)

let fault_state_to_string = function
  | None -> "clear"
  | Some Faultmap.Dead -> "dead"
  | Some (Faultmap.Stuck_mode m) ->
    Printf.sprintf "stuck-%s" (Cim_arch.Mode.to_string m)
  | Some (Faultmap.Transient_switch_failure p) -> Printf.sprintf "transient:%g" p

let event_to_string e =
  Printf.sprintf "at=%g chip=%d array=%d,%d fault=%s" e.at e.chip e.coord.Chip.x
    e.coord.Chip.y
    (fault_state_to_string e.state)

let schedule_to_string evs =
  String.concat "" (List.map (fun e -> event_to_string e ^ "\n") evs)

let schedule_of_string src =
  let ( let* ) = Result.bind in
  let parse_line lineno line =
    let fields = String.split_on_char ' ' (String.trim line) in
    let fields = List.filter (fun f -> f <> "") fields in
    let err m = Error (Printf.sprintf "fault schedule line %d: %s" lineno m) in
    let lookup k =
      let p = k ^ "=" in
      match List.find_opt (String.starts_with ~prefix:p) fields with
      | Some f ->
        Ok (String.sub f (String.length p) (String.length f - String.length p))
      | None -> err (Printf.sprintf "missing field %s=" k)
    in
    let* at_s = lookup "at" in
    let* at =
      match float_of_string_opt at_s with
      | Some f when Float.is_finite f && f >= 0. -> Ok f
      | _ -> err ("bad cycle count " ^ at_s)
    in
    let* chip_s = lookup "chip" in
    let* chip =
      match int_of_string_opt chip_s with
      | Some c when c >= 0 -> Ok c
      | _ -> err ("bad chip id " ^ chip_s)
    in
    let* xy = lookup "array" in
    let* coord =
      match String.split_on_char ',' xy with
      | [ xs; ys ] -> (
        match (int_of_string_opt xs, int_of_string_opt ys) with
        | Some x, Some y -> Ok { Chip.x; y }
        | _ -> err ("bad array coordinate " ^ xy))
      | _ -> err ("bad array coordinate " ^ xy)
    in
    let* fault_s = lookup "fault" in
    let* state =
      match fault_s with
      | "clear" -> Ok None
      | "dead" -> Ok (Some Faultmap.Dead)
      | "stuck-compute" -> Ok (Some (Faultmap.Stuck_mode Cim_arch.Mode.Compute))
      | "stuck-memory" -> Ok (Some (Faultmap.Stuck_mode Cim_arch.Mode.Memory))
      | s when String.starts_with ~prefix:"transient:" s -> (
        let p = String.sub s 10 (String.length s - 10) in
        match float_of_string_opt p with
        | Some p when p >= 0. && p < 1. ->
          Ok (Some (Faultmap.Transient_switch_failure p))
        | _ -> err ("bad transient probability " ^ p))
      | s -> err ("unknown fault kind " ^ s)
    in
    Ok { at; chip; coord; state }
  in
  let lines = String.split_on_char '\n' src in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc rest
      else begin
        match parse_line lineno trimmed with
        | Ok e -> go (lineno + 1) (e :: acc) rest
        | Error _ as e -> e
      end
  in
  go 1 [] lines

let random_schedule rng ~chip ~chips ~n ~horizon =
  if chips <= 0 then invalid_arg "Fleet.random_schedule: chips must be positive";
  if n < 0 then invalid_arg "Fleet.random_schedule: n must be non-negative";
  if not (Float.is_finite horizon) || horizon <= 0. then
    invalid_arg "Fleet.random_schedule: horizon must be positive";
  let evs =
    List.init n (fun _ ->
        let at = Rng.float rng horizon in
        let c = Rng.int rng chips in
        let coord = Chip.coord_of_index chip (Rng.int rng chip.Chip.n_arrays) in
        let state =
          match Rng.int rng 4 with
          | 0 | 1 -> Some Faultmap.Dead
          | 2 ->
            Some
              (Faultmap.Stuck_mode
                 (if Rng.bool rng then Cim_arch.Mode.Memory
                  else Cim_arch.Mode.Compute))
          | _ ->
            Some (Faultmap.Transient_switch_failure (0.05 +. Rng.float rng 0.45))
        in
        { at; chip = c; coord; state })
  in
  List.stable_sort (fun a b -> Float.compare a.at b.at) evs

(* ---- the event loop ------------------------------------------------------ *)

(* events sharing a timestamp fire in insertion order; the loop inserts the
   whole fault schedule before any arrival, so at equal times a fault beats
   an arrival — a request never squeezes in ahead of the failure that was
   scheduled for that exact cycle *)
module Pq = Map.Make (struct
  type t = float * int

  let compare (t1, s1) (t2, s2) =
    match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end)

type ev =
  | Arrive of int
  | Fault_hit of fault_event
  | Finish of int * int (* chip, service token *)
  | Recompiled of int * int (* chip, recompile token *)
  | Retry of int

type rstate = {
  req : Serving.request;
  mutable attempts : int;
  mutable shed_mode : bool;
  mutable prefill_done : float;
  mutable terminal : bool;
  (* span bookkeeping (two float stores per transition — kept up to date
     even without a telemetry collector so attaching one cannot perturb
     the event loop's control flow) *)
  mutable enqueued_at : float;
  mutable started_at : float;
}

(* What one plan charges a (prompt, tokens) request: its [prefill], its
   service [cost] summed in step order (so the float is the one a direct
   sum gives), and its decode-step costs as runs of bit-equal values, in
   step order. *)
type priced = { prefill : float; cost : float; steps : (float * int) list }

type cstate = {
  id : int;
  mutable fm : Faultmap.t;
  mutable plan : plan option;
  mutable out : bool;
  mutable recompiling : bool;
  mutable est_free : float; (* routing estimate only; truth is the DES *)
  waiting : int Queue.t;
  mutable cur : int option;
  mutable token : int;
  mutable fault_hits : int;
  mutable plan_idx : int;
  mutable served : int;
  memo : (int * int, priced) Hashtbl.t;  (* [plan]'s prices by (prompt, tokens) *)
}

let validate_config c =
  if c.chips <= 0 then invalid_arg "Fleet.run: chips must be positive";
  (match c.slo with
  | Some s when not (Float.is_finite s && s > 0.) ->
    invalid_arg "Fleet.run: slo must be positive"
  | _ -> ());
  if c.shed_output < 0 then invalid_arg "Fleet.run: shed_output must be >= 0";
  if c.max_retries < 0 then invalid_arg "Fleet.run: max_retries must be >= 0";
  if c.backoff_base < 0. || c.backoff_cap < c.backoff_base then
    invalid_arg "Fleet.run: need 0 <= backoff_base <= backoff_cap";
  if c.breaker_threshold <= 0 then
    invalid_arg "Fleet.run: breaker_threshold must be positive";
  if c.recompile_cycles < 0. then
    invalid_arg "Fleet.run: recompile_cycles must be >= 0";
  if c.jobs < 1 then invalid_arg "Fleet.run: jobs must be >= 1"

let price (profile : Serving.cost_profile) ~prompt ~tokens =
  let prefill = profile.Serving.prefill_cycles prompt in
  let cost = ref prefill and runs = ref [] in
  for t = 0 to tokens - 1 do
    let d = profile.Serving.decode_cycles (prompt + t) in
    cost := !cost +. d;
    runs :=
      (match !runs with
      | (v, k) :: rest
        when Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float d) ->
        (v, k + 1) :: rest
      | runs -> (d, 1) :: runs)
  done;
  { prefill; cost = !cost; steps = List.rev !runs }

(* Every fault map each chip can pass through, with the planner evaluated
   for each — fanned out on the pool, merged back in (chip, prefix) order.
   Plans for states the breaker later masks are computed speculatively;
   that costs planner calls (cheap when the planner is cache-warm), never
   determinism. *)
let prefetch_plans ~config ~chip planner schedule =
  let per_chip_rev = Array.make config.chips [] in
  List.iter
    (fun e ->
      if e.chip < 0 || e.chip >= config.chips then
        invalid_arg
          (Printf.sprintf "Fleet.run: fault event chip %d out of range [0, %d)"
             e.chip config.chips);
      if Chip.grid_index chip e.coord < 0 then
        invalid_arg
          (Printf.sprintf "Fleet.run: fault event %S names an array off the chip"
             (event_to_string e));
      per_chip_rev.(e.chip) <- e :: per_chip_rev.(e.chip))
    schedule;
  let fm_chains =
    Array.map
      (fun evs_rev ->
        let fm0 = Faultmap.none chip in
        let chain =
          List.fold_left
            (fun acc e ->
              let fm = List.hd acc in
              Faultmap.apply fm [ (e.coord, e.state) ] :: acc)
            [ fm0 ] (List.rev evs_rev)
        in
        Array.of_list (List.rev chain))
      per_chip_rev
  in
  let tasks =
    List.concat
      (List.init config.chips (fun c ->
           Array.to_list
             (Array.map (fun fm -> (c, fm)) fm_chains.(c))))
  in
  let solve (c, fm) = planner ~chip:c ~faults:fm in
  let results =
    if config.jobs > 1 then
      Pool.with_pool ~name:"fleet-plan" ~jobs:config.jobs (fun p ->
          Pool.map_list p solve tasks)
    else List.map solve tasks
  in
  let plans = Array.map (fun chain -> Array.make (Array.length chain) None) fm_chains in
  let rec fill c k = function
    | [] -> ()
    | r :: rest ->
      if k < Array.length plans.(c) then begin
        plans.(c).(k) <- r;
        fill c (k + 1) rest
      end
      else fill (c + 1) 0 (r :: rest)
  in
  fill 0 0 results;
  (plans, fm_chains)

let run ?(config = default_config) ?telemetry
    ?(snapshot_extra = fun () -> []) ~chip planner schedule requests =
  validate_config config;
  List.iter
    (fun (r : Serving.request) ->
      if
        r.Serving.prompt <= 0 || r.Serving.output < 0
        || not (Float.is_finite r.Serving.arrival)
        || r.Serving.arrival < 0.
      then invalid_arg "Fleet.run: malformed request")
    requests;
  let schedule =
    List.stable_sort (fun a b -> Float.compare a.at b.at) schedule
  in
  let plans, fm_chains = prefetch_plans ~config ~chip planner schedule in
  let chips =
    Array.init config.chips (fun id ->
        {
          id;
          fm = fm_chains.(id).(0);
          plan = plans.(id).(0);
          out = plans.(id).(0) = None;
          recompiling = false;
          est_free = 0.;
          waiting = Queue.create ();
          cur = None;
          token = 0;
          fault_hits = 0;
          plan_idx = 0;
          served = 0;
          memo = Hashtbl.create 16;
        })
  in
  let requests =
    List.stable_sort
      (fun (a : Serving.request) b -> Float.compare a.Serving.arrival b.Serving.arrival)
      requests
  in
  let rstates =
    Array.of_list
      (List.map
         (fun req ->
           { req; attempts = 0; shed_mode = false; prefill_done = 0.;
             terminal = false; enqueued_at = 0.; started_at = 0. })
         requests)
  in
  (* ---- telemetry --------------------------------------------------------
     Spans and marks go to the collector (when one is attached) and are
     mirrored onto the Chrome trace's fleet process (when tracing is on);
     per-chip lanes carry occupancy (prefill/decode/recompile), the router
     lane carries queueing, backoff, and terminal markers. All of it is
     recording only — the event loop's decisions never read it, so stats
     are identical with and without a collector. *)
  let observing () = telemetry <> None || Trace.enabled () in
  let fleet_tid = 0 in
  let chip_tid id = id + 1 in
  let lane_of id = Printf.sprintf "chip%d" id in
  if Trace.enabled () then begin
    Trace.name_process ~pid:Trace.pid_fleet "fleet serving (cycles)";
    Trace.name_thread ~pid:Trace.pid_fleet ~tid:fleet_tid "router";
    for id = 0 to config.chips - 1 do
      Trace.name_thread ~pid:Trace.pid_fleet ~tid:(chip_tid id)
        (Printf.sprintf "chip %d" id)
    done
  end;
  let tspan ?(attrs = []) ~lane ~tid ~ts ~dur name =
    (match telemetry with
    | Some t -> Telemetry.span t ~attrs ~lane ~ts ~dur name
    | None -> ());
    if Trace.enabled () then
      Trace.complete ~cat:"fleet" ~args:attrs ~pid:Trace.pid_fleet ~tid ~ts
        ~dur name
  in
  let tmark ?(attrs = []) ~lane ~tid ~ts name =
    (match telemetry with
    | Some t -> Telemetry.mark t ~attrs ~lane ~ts name
    | None -> ());
    if Trace.enabled () then
      Trace.instant ~cat:"fleet" ~args:attrs ~pid:Trace.pid_fleet ~tid ~ts name
  in
  (* event queue *)
  let events = ref Pq.empty in
  let seq = ref 0 in
  let push at ev =
    events := Pq.add (at, !seq) ev !events;
    incr seq
  in
  (* faults first so they win time ties against arrivals *)
  List.iter (fun e -> push e.at (Fault_hit e)) schedule;
  Array.iteri (fun i (r : rstate) -> push r.req.Serving.arrival (Arrive i)) rstates;
  (* statistics *)
  let completed = ref 0 and dropped = ref 0 and shed = ref 0 in
  let starved = ref 0 and retries = ref 0 and recompiles = ref 0 in
  let breaker_opens = ref 0 and slo_violations = ref 0 in
  let tokens = ref 0 in
  let latencies = ref [] and ttfts = ref [] in
  (* decode-step runs of each served request, newest first *)
  let tpt_runs = ref [] in
  let makespan = ref 0. in
  let shed_tokens (r : rstate) = min r.req.Serving.output config.shed_output in
  let out_eff (r : rstate) =
    if r.shed_mode then shed_tokens r else r.req.Serving.output
  in
  let priced c (r : rstate) tokens =
    match c.plan with
    | None -> None
    | Some p ->
      let key = (r.req.Serving.prompt, tokens) in
      match Hashtbl.find_opt c.memo key with
      | Some _ as hit -> hit
      | None ->
        let x = price p.profile ~prompt:r.req.Serving.prompt ~tokens in
        Hashtbl.add c.memo key x;
        Some x
  in
  let cost c r tokens =
    match priced c r tokens with None -> infinity | Some x -> x.cost
  in
  let terminal_starved now rid =
    let r = rstates.(rid) in
    if not r.terminal then begin
      r.terminal <- true;
      r.shed_mode <- true;
      incr shed;
      incr starved;
      makespan := Float.max !makespan now;
      if observing () then
        tmark ~lane:"fleet" ~tid:fleet_tid ~ts:now "starved"
          ~attrs:[ ("req", Json.Int rid) ]
    end
  in
  let start_service now (c : cstate) =
    if (not c.out) && (not c.recompiling) && c.cur = None
       && not (Queue.is_empty c.waiting)
    then begin
      let rid = Queue.pop c.waiting in
      let r = rstates.(rid) in
      (* SLO-aware degradation at service start: if full service can no
         longer meet the SLO but the cheaper shed plan still can — or
         nothing can, for an already-admitted request — descend to the
         shed tier rather than failing the request *)
      (match config.slo with
      | Some s when not r.shed_mode ->
        if now +. cost c r r.req.Serving.output -. r.req.Serving.arrival > s
        then begin
          r.shed_mode <- true;
          if observing () then
            tmark ~lane:"fleet" ~tid:fleet_tid ~ts:now "shed"
              ~attrs:[ ("req", Json.Int rid); ("at", Json.String "start") ]
        end
      | _ -> ());
      let prefill, cost =
        match priced c r (out_eff r) with
        | None -> (0., infinity)
        | Some x -> (x.prefill, x.cost)
      in
      if observing () then
        tspan ~lane:"fleet" ~tid:fleet_tid ~ts:r.enqueued_at
          ~dur:(now -. r.enqueued_at) "queue"
          ~attrs:[ ("req", Json.Int rid); ("chip", Json.Int c.id) ];
      r.started_at <- now;
      r.prefill_done <- now +. prefill;
      c.cur <- Some rid;
      c.token <- c.token + 1;
      push (now +. cost) (Finish (c.id, c.token))
    end
  in
  (* route to the chip with the earliest estimated finish (deterministic
     tie-break on chip id); None when no chip can serve at all *)
  let route now (r : rstate) =
    let best = ref None in
    Array.iter
      (fun c ->
        if (not c.out) && c.plan <> None then begin
          let est = Float.max c.est_free now +. cost c r (out_eff r) in
          match !best with
          | Some (_, best_est) when best_est <= est -> ()
          | _ -> best := Some (c, est)
        end)
      chips;
    !best
  in
  let enqueue now (c : cstate) rid =
    let r = rstates.(rid) in
    r.enqueued_at <- now;
    c.est_free <- Float.max c.est_free now +. cost c r (out_eff r);
    Queue.push rid c.waiting;
    start_service now c
  in
  (* admission: [on_reject] distinguishes an arrival (drop) from a retry
     (starve — the request is already inside the system) *)
  let admit now rid ~on_reject =
    let r = rstates.(rid) in
    match route now r with
    | None -> on_reject ()
    | Some (c, _) -> (
      match config.slo with
      | None -> enqueue now c rid
      | Some s ->
        let base = Float.max c.est_free now in
        if base +. cost c r r.req.Serving.output -. r.req.Serving.arrival <= s
        then enqueue now c rid
        else if base +. cost c r (shed_tokens r) -. r.req.Serving.arrival <= s
        then begin
          r.shed_mode <- true;
          if observing () then
            tmark ~lane:"fleet" ~tid:fleet_tid ~ts:now "shed"
              ~attrs:[ ("req", Json.Int rid); ("at", Json.String "admit") ];
          enqueue now c rid
        end
        else on_reject ())
  in
  let push_retry now rid delay =
    if observing () then
      tspan ~lane:"fleet" ~tid:fleet_tid ~ts:now ~dur:delay "retry_backoff"
        ~attrs:
          [ ("req", Json.Int rid);
            ("attempt", Json.Int rstates.(rid).attempts) ];
    push (now +. delay) (Retry rid)
  in
  let abort_inflight now rid =
    let r = rstates.(rid) in
    r.attempts <- r.attempts + 1;
    incr retries;
    if r.attempts > config.max_retries then terminal_starved now rid
    else
      push_retry now rid
        (Float.min config.backoff_cap
           (config.backoff_base *. (2. ** float_of_int (r.attempts - 1))))
  in
  let evict_queue now (c : cstate) =
    (* re-route every waiting request after a one-backoff delay; the
       in-flight one is handled by the fault/abort path *)
    Queue.iter (fun rid -> push_retry now rid config.backoff_base) c.waiting;
    Queue.clear c.waiting
  in
  let take_offline now (c : cstate) =
    c.out <- true;
    c.recompiling <- false;
    c.plan <- None;
    c.token <- c.token + 1;
    if observing () then
      tmark ~lane:(lane_of c.id) ~tid:(chip_tid c.id) ~ts:now "offline";
    (match c.cur with
    | Some rid ->
      c.cur <- None;
      abort_inflight now rid
    | None -> ());
    evict_queue now c
  in
  let handle_fault now (e : fault_event) =
    let c = chips.(e.chip) in
    if not c.out then begin
      c.fault_hits <- c.fault_hits + 1;
      c.plan_idx <- c.plan_idx + 1;
      c.fm <- fm_chains.(e.chip).(c.plan_idx);
      if observing () then
        tmark ~lane:(lane_of c.id) ~tid:(chip_tid c.id) ~ts:now "fault"
          ~attrs:
            [ ("array",
               Json.String
                 (Printf.sprintf "%d,%d" e.coord.Chip.x e.coord.Chip.y));
              ("state", Json.String (fault_state_to_string e.state)) ];
      (* abort the in-flight request: bounded exponential backoff retry *)
      (match c.cur with
      | Some rid ->
        c.cur <- None;
        c.token <- c.token + 1;
        abort_inflight now rid
      | None -> ());
      if c.fault_hits >= config.breaker_threshold then begin
        (* circuit breaker: the chip faulted too often to trust; pull it
           out of rotation and send its queue elsewhere *)
        incr breaker_opens;
        if observing () then
          tmark ~lane:(lane_of c.id) ~tid:(chip_tid c.id) ~ts:now
            "breaker_open"
            ~attrs:[ ("fault_hits", Json.Int c.fault_hits) ];
        take_offline now c
      end
      else begin
        match plans.(e.chip).(c.plan_idx) with
        | None ->
          (* recompile-around-faults has nothing left to compile onto *)
          take_offline now c
        | Some p ->
          incr recompiles;
          c.plan <- Some p;
          Hashtbl.reset c.memo;
          c.recompiling <- true;
          c.token <- c.token + 1;
          c.est_free <- Float.max c.est_free now +. config.recompile_cycles;
          if observing () then
            tspan ~lane:(lane_of c.id) ~tid:(chip_tid c.id) ~ts:now
              ~dur:config.recompile_cycles "recompile"
              ~attrs:[ ("plan_level", Json.Int p.level) ];
          push (now +. config.recompile_cycles) (Recompiled (c.id, c.token))
      end
    end
  in
  let handle_finish now cid token =
    let c = chips.(cid) in
    if c.token = token then begin
      match c.cur with
      | None -> ()
      | Some rid ->
        c.cur <- None;
        let r = rstates.(rid) in
        r.terminal <- true;
        let latency = now -. r.req.Serving.arrival in
        latencies := latency :: !latencies;
        ttfts := (r.prefill_done -. r.req.Serving.arrival) :: !ttfts;
        (* per-decode-step latency: the token match guarantees [c.plan] is
           the plan that actually served this request *)
        (match priced c r (out_eff r) with
        | Some x -> tpt_runs := x.steps :: !tpt_runs
        | None -> ());
        tokens := !tokens + out_eff r + 1;
        makespan := Float.max !makespan now;
        c.served <- c.served + 1;
        (match config.slo with
        | Some s when latency > s -> incr slo_violations
        | _ -> ());
        if observing () then begin
          (* prefill + decode partition the chip's occupancy, so the
             per-lane span sum is exactly its busy time *)
          let attrs =
            [ ("req", Json.Int rid);
              ("prompt", Json.Int r.req.Serving.prompt);
              ("shed", Json.Bool r.shed_mode) ]
          in
          tspan ~lane:(lane_of c.id) ~tid:(chip_tid c.id) ~ts:r.started_at
            ~dur:(r.prefill_done -. r.started_at) "prefill" ~attrs;
          tspan ~lane:(lane_of c.id) ~tid:(chip_tid c.id) ~ts:r.prefill_done
            ~dur:(now -. r.prefill_done) "decode"
            ~attrs:(("tokens", Json.Int (out_eff r)) :: attrs)
        end;
        if r.shed_mode then incr shed else incr completed;
        start_service now c
    end
  in
  (* periodic state-of-the-fleet sample into the collector's timeline;
     sampled on event boundaries (the DES clock only moves between events)
     and guarded by [Timeline.due] so off-tick events cost one compare *)
  let snapshot ~force now =
    match telemetry with
    | None -> ()
    | Some t ->
      let tl = Telemetry.timeline t in
      if force || Timeline.due tl ~now then begin
        let queue_depth =
          Array.fold_left (fun acc c -> acc + Queue.length c.waiting) 0 chips
        in
        let in_flight =
          Array.fold_left
            (fun acc c -> if c.cur = None then acc else acc + 1)
            0 chips
        in
        let out_now =
          Array.fold_left (fun acc c -> if c.out then acc + 1 else acc) 0 chips
        in
        let served = !completed + !shed in
        let fields =
          [ ("completed", float_of_int !completed);
            ("shed", float_of_int !shed);
            ("dropped", float_of_int !dropped);
            ("starved", float_of_int !starved);
            ("queue_depth", float_of_int queue_depth);
            ("in_flight", float_of_int in_flight);
            ("chips_out", float_of_int out_now);
            ("retries", float_of_int !retries);
            ("recompiles", float_of_int !recompiles);
            ("breaker_opens", float_of_int !breaker_opens);
            ("slo_violations", float_of_int !slo_violations);
            ("tokens", float_of_int !tokens);
            ("tokens_per_megacycle",
             if now > 0. then float_of_int !tokens /. (now /. 1e6) else 0.) ]
        in
        let fields =
          match Telemetry.slo_budget t with
          | Some b ->
            fields
            @ [ ("slo_burn_rate",
                 float_of_int !slo_violations
                 /. float_of_int (max served 1) /. b) ]
          | None -> fields
        in
        let fields = fields @ snapshot_extra () in
        if force then Timeline.force tl ~now fields
        else Timeline.record tl ~now fields
      end
  in
  let last_t = ref 0. in
  let rec drain () =
    match Pq.min_binding_opt !events with
    | None -> ()
    | Some ((at, s), ev) ->
      events := Pq.remove (at, s) !events;
      last_t := at;
      (match ev with
      | Arrive rid ->
        admit at rid ~on_reject:(fun () ->
            rstates.(rid).terminal <- true;
            incr dropped;
            if observing () then
              tmark ~lane:"fleet" ~tid:fleet_tid ~ts:at "drop"
                ~attrs:[ ("req", Json.Int rid) ])
      | Retry rid ->
        let r = rstates.(rid) in
        if not r.terminal then
          admit at rid ~on_reject:(fun () -> terminal_starved at rid)
      | Fault_hit e -> handle_fault at e
      | Finish (cid, token) -> handle_finish at cid token
      | Recompiled (cid, token) ->
        let c = chips.(cid) in
        if c.token = token && not c.out then begin
          c.recompiling <- false;
          start_service at c
        end);
      snapshot ~force:false at;
      drain ()
  in
  drain ();
  snapshot ~force:true !last_t;
  let offered = Array.length rstates in
  assert (!completed + !dropped + !shed = offered);
  let chips_out =
    Array.fold_left (fun acc c -> if c.out then acc + 1 else acc) 0 chips
  in
  if Metrics.enabled () then begin
    let count name v =
      Metrics.incr ~by:(float_of_int v) (Metrics.counter name)
    in
    count "serving.offered" offered;
    count "serving.completed" !completed;
    count "serving.dropped" !dropped;
    count "serving.shed" !shed;
    count "serving.starved" !starved;
    count "serving.retries" !retries;
    count "serving.recompiles" !recompiles;
    count "serving.breaker_opens" !breaker_opens;
    count "serving.tokens" !tokens;
    count "serving.slo_violations" !slo_violations;
    let h_lat = Metrics.histogram "serving.latency_cycles" in
    let h_ttft = Metrics.histogram "serving.ttft_cycles" in
    let h_tpt = Metrics.histogram "serving.tpt_cycles" in
    List.iter (Metrics.observe h_lat) !latencies;
    List.iter (Metrics.observe h_ttft) !ttfts;
    (* one sample per decode step, newest first: the reservoir's sample
       depends on this order, which test/golden/fleet_tokens.txt pins *)
    let observe_run (v, k) = Metrics.observe_n h_tpt v k in
    List.iter (fun runs -> List.iter observe_run (List.rev runs)) !tpt_runs;
    Array.iter
      (fun c ->
        let labels = [ ("chip", string_of_int c.id) ] in
        Metrics.incr
          ~by:(float_of_int c.served)
          (Metrics.counter ~labels "serving.chip.served");
        Metrics.set_gauge
          (Metrics.gauge ~labels "serving.chip.out")
          (if c.out then 1. else 0.);
        Metrics.set_gauge
          (Metrics.gauge ~labels "serving.chip.fault_hits")
          (float_of_int c.fault_hits))
      chips
  end;
  (match telemetry with
  | None -> ()
  | Some t ->
    Telemetry.set_meta t "chips" (Json.Int config.chips);
    Telemetry.set_meta t "offered" (Json.Int offered);
    Telemetry.set_meta t "makespan" (Json.Float !makespan);
    (match config.slo with
    | Some s -> Telemetry.set_meta t "slo_cycles" (Json.Float s)
    | None -> ());
    (match Telemetry.slo_budget t with
    | Some b ->
      Telemetry.set_extra t "slo"
        (Telemetry.slo_summary ~budget:b ~violations:!slo_violations
           ~completed:(!completed + !shed))
    | None -> ()));
  (* one sort ranks every latency percentile; the decode steps are ranked
     from a table of value -> count, never expanded to one entry each *)
  let ranks = function
    | [] -> fun _ -> 0.
    | counts -> Cim_util.Stats.nearest_rank_counts counts
  in
  let served_latencies = !latencies in
  let lat = ranks (List.map (fun l -> (l, 1)) served_latencies) in
  let tpt_counts = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (v, k) ->
         Hashtbl.replace tpt_counts v
           (k + Option.value ~default:0 (Hashtbl.find_opt tpt_counts v))))
    !tpt_runs;
  let tpt = ranks (Hashtbl.fold (fun v k acc -> (v, k) :: acc) tpt_counts []) in
  {
    offered;
    completed = !completed;
    dropped = !dropped;
    shed = !shed;
    starved = !starved;
    retries = !retries;
    recompiles = !recompiles;
    breaker_opens = !breaker_opens;
    chips_out;
    slo_violations = !slo_violations;
    makespan = !makespan;
    mean_latency =
      (if served_latencies = [] then 0. else Cim_util.Stats.mean served_latencies);
    p50_latency = lat 50.;
    p95_latency = lat 95.;
    p99_latency = lat 99.;
    p999_latency = lat 99.9;
    mean_ttft = (if !ttfts = [] then 0. else Cim_util.Stats.mean !ttfts);
    p50_tpt = tpt 50.;
    p95_tpt = tpt 95.;
    p99_tpt = tpt 99.;
    tokens = !tokens;
    tokens_per_megacycle =
      (if !makespan > 0. then float_of_int !tokens /. (!makespan /. 1e6) else 0.);
    per_chip_served = Array.to_list (Array.map (fun c -> c.served) chips);
  }
