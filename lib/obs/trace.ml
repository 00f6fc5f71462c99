type event = {
  name : string;
  cat : string;
  ph : string;
  ts : float;
  dur : float option;
  pid : int;
  tid : int;
  args : (string * Json.t) list;
}

(* domain-safe: the flag is read on every hot path from any domain *)
let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* Recording order; main-domain state guarded by [mutex]. Worker domains
   never touch it directly — they record into a domain-local buffer
   ({!with_buffer}) merged by the coordinator.

   The store is a FIFO [Queue] so a capacity cap ({!set_capacity}) can
   evict the OLDEST event in O(1) — ring semantics: a long fleet run with
   tracing left on keeps the most recent window instead of growing without
   bound. Metadata events (track names) are kept separately and are never
   evicted; there is one per named track, so they are bounded by nature. *)
let events : event Queue.t = Queue.create ()
let meta_events : event list ref = ref [] (* reversed *)
let capacity : int option ref = ref None
let dropped = ref 0
let named : (int * int * string, unit) Hashtbl.t = Hashtbl.create 16
let mutex = Mutex.create ()

let pid_compiler = 1
let pid_simulator = 2
let pid_fleet = 4

(* Per-domain recording state. [buffer_key]: where pushes land (None = the
   shared queue); [tid_key]: the lane spans are attributed to — pool workers
   get their own tid so Perfetto shows the parallel solves side by side. *)
let buffer_key : event list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let tid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 1)

let set_domain_tid tid = Domain.DLS.set tid_key tid
let domain_tid () = Domain.DLS.get tid_key

let epoch = Unix.gettimeofday ()
let last = Atomic.make 0.

(* strictly increasing across *all* domains: a CAS loop publishes each
   stamp, so consecutive acquisitions anywhere in the process get distinct,
   monotone values (1 ns apart when the wall clock does not advance) —
   merged per-domain buffers can therefore never produce a span that ends
   before it starts or a child stamped before its parent entered *)
let rec now_us () =
  let t = (Unix.gettimeofday () -. epoch) *. 1e6 in
  let l = Atomic.get last in
  let t = if t > l then t else l +. 0.001 in
  if Atomic.compare_and_set last l t then t else now_us ()

let reset () =
  Mutex.lock mutex;
  Queue.clear events;
  meta_events := [];
  dropped := 0;
  Hashtbl.reset named;
  Mutex.unlock mutex

let set_capacity cap =
  (match cap with
  | Some c when c <= 0 -> invalid_arg "Trace.set_capacity: capacity must be positive"
  | _ -> ());
  Mutex.lock mutex;
  capacity := cap;
  (* an already-overfull store shrinks immediately, oldest first *)
  (match cap with
  | Some c ->
    while Queue.length events > c do
      ignore (Queue.pop events);
      incr dropped
    done
  | None -> ());
  Mutex.unlock mutex

let get_capacity () =
  Mutex.lock mutex;
  let c = !capacity in
  Mutex.unlock mutex;
  c

let dropped_count () =
  Mutex.lock mutex;
  let d = !dropped in
  Mutex.unlock mutex;
  d

(* trace.dropped is registered lazily so enabling metrics without tracing
   does not create it; bumped under the trace mutex only when eviction
   actually happens (cold path) *)
let dropped_counter = lazy (Metrics.counter "trace.dropped")

(* caller holds [mutex] *)
let push_locked e =
  Queue.push e events;
  match !capacity with
  | Some c when Queue.length events > c ->
    ignore (Queue.pop events);
    incr dropped;
    Metrics.incr (Lazy.force dropped_counter)
  | _ -> ()

let push e =
  match Domain.DLS.get buffer_key with
  | Some buf -> buf := e :: !buf
  | None ->
    Mutex.lock mutex;
    push_locked e;
    Mutex.unlock mutex

let with_buffer f =
  let saved = Domain.DLS.get buffer_key in
  let buf = ref [] in
  Domain.DLS.set buffer_key (Some buf);
  let restore () = Domain.DLS.set buffer_key saved in
  match f () with
  | v ->
    restore ();
    (v, List.rev !buf)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    restore ();
    Printexc.raise_with_backtrace e bt

let merge buffered =
  if buffered <> [] then begin
    Mutex.lock mutex;
    List.iter push_locked buffered;
    Mutex.unlock mutex
  end

let complete ?(cat = "span") ?(args = []) ~pid ~tid ~ts ~dur name =
  if Atomic.get on then
    push { name; cat; ph = "X"; ts; dur = Some dur; pid; tid; args }

let instant ?(cat = "mark") ?(args = []) ?pid ?tid ?ts name =
  if Atomic.get on then
    push
      { name; cat; ph = "i"; dur = None;
        ts = (match ts with Some t -> t | None -> now_us ());
        pid = Option.value pid ~default:pid_compiler;
        tid = (match tid with Some t -> t | None -> domain_tid ());
        args }

let counter ?(cat = "counter") ~pid ~ts name samples =
  if Atomic.get on then
    push
      { name; cat; ph = "C"; ts; dur = None; pid; tid = 0;
        args = List.map (fun (k, v) -> (k, Json.Float v)) samples }

let metadata ~pid ~tid meta label =
  if Atomic.get on then begin
    Mutex.lock mutex;
    let fresh = not (Hashtbl.mem named (pid, tid, meta)) in
    if fresh then begin
      Hashtbl.replace named (pid, tid, meta) ();
      meta_events :=
        { name = meta; cat = "__metadata"; ph = "M"; ts = 0.; dur = None; pid;
          tid; args = [ ("name", Json.String label) ] }
        :: !meta_events
    end;
    Mutex.unlock mutex
  end

let name_process ~pid label = metadata ~pid ~tid:0 "process_name" label
let name_thread ~pid ~tid label = metadata ~pid ~tid "thread_name" label

let with_span ?(cat = "span") ?(args = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_us () in
        (* events are pushed at span *exit*, so a parent closes after its
           children; the exporter re-sorts by ts to restore begin order *)
        push
          { name; cat; ph = "X"; ts = t0; dur = Some (t1 -. t0);
            pid = pid_compiler; tid = domain_tid (); args })
      f
  end

let event_json e =
  let base =
    [ ("name", Json.String e.name);
      ("cat", Json.String e.cat);
      ("ph", Json.String e.ph);
      ("ts", Json.Float e.ts);
      ("pid", Json.Int e.pid);
      ("tid", Json.Int e.tid) ]
  in
  let dur = match e.dur with Some d -> [ ("dur", Json.Float d) ] | None -> [] in
  let args = if e.args = [] then [] else [ ("args", Json.Obj e.args) ] in
  Json.Obj (base @ dur @ args)

let export () =
  Mutex.lock mutex;
  let evs = List.rev (Queue.fold (fun acc e -> e :: acc) [] events) in
  let meta = List.rev !meta_events in
  let n_dropped = !dropped in
  Mutex.unlock mutex;
  let evs = meta @ evs in
  (* stable sort on (pid, ts): within one process, parents (earlier ts)
     precede children, which Perfetto's "X"-event nesting expects. Spans
     recorded at exit can share a ts with their children when the clock
     does not advance between entries, so ties put the longer (enclosing)
     span first. *)
  let dur e = match e.dur with Some d -> d | None -> 0. in
  let evs =
    List.stable_sort
      (fun a b ->
        match compare a.pid b.pid with
        | 0 -> (
          match Float.compare a.ts b.ts with
          | 0 -> Float.compare (dur b) (dur a)
          | c -> c)
        | c -> c)
      evs
  in
  Json.Obj
    ([ ("traceEvents", Json.List (List.map event_json evs));
       ("displayTimeUnit", Json.String "ms") ]
    @ if n_dropped > 0 then [ ("droppedEvents", Json.Int n_dropped) ] else [])

let write_file file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string ~pretty:true (export ())))
