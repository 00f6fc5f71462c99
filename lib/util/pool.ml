(* Work pool on OCaml 5 domains: a single FIFO of thunks drained by [jobs]
   worker domains. Stdlib only (Domain / Mutex / Condition / Queue), so the
   compiler core stays dependency-free. *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  fm : Mutex.t;
  fcond : Condition.t;
  mutable state : 'a state;
}

(* (run, cancel): [run] executes the task and resolves its future; [cancel]
   fails the future without running it (shutdown with tasks still queued). *)
type task = { run : unit -> unit; cancel : unit -> unit }

type t = {
  jobs : int;
  m : Mutex.t;
  nonempty : Condition.t;
  q : task Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list; (* empty when jobs = 1 *)
}

(* Which pool worker (if any) the current domain is. [create] reads it to
   run a pool made on a worker inline, so domain counts never multiply. *)
let worker_key : int option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current_worker () = Domain.DLS.get worker_key

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Printf.sprintf "jobs must be >= 1 (got %d)" n)
  | None -> Error (Printf.sprintf "jobs must be a positive integer (got %S)" s)

let default_jobs () =
  match Sys.getenv_opt "CMSWITCH_JOBS" with
  | Some s -> (
    match parse_jobs s with
    | Ok n -> n
    | Error _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let rec worker_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.nonempty t.m
  done;
  if Queue.is_empty t.q then Mutex.unlock t.m (* closed and drained: exit *)
  else begin
    let task = Queue.pop t.q in
    Mutex.unlock t.m;
    task.run ();
    worker_loop t
  end

let create ?(name = "pool") ?on_worker_start ~jobs () =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Pool.create (%s): jobs must be >= 1, got %d" name jobs);
  let jobs = if current_worker () = None then jobs else 1 in
  let t =
    { jobs; m = Mutex.create (); nonempty = Condition.create ();
      q = Queue.create (); closed = false; domains = [] }
  in
  if jobs > 1 then
    t.domains <-
      List.init jobs (fun i ->
          Domain.spawn (fun () ->
              Domain.DLS.set worker_key (Some i);
              (match on_worker_start with
              | None -> ()
              | Some f -> ( try f i with _ -> ()));
              worker_loop t));
  t

let jobs t = t.jobs

let resolve fut st =
  Mutex.lock fut.fm;
  fut.state <- st;
  Condition.broadcast fut.fcond;
  Mutex.unlock fut.fm

let submit t f =
  let fut = { fm = Mutex.create (); fcond = Condition.create (); state = Pending } in
  let run () =
    let st =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    resolve fut st
  in
  let cancel () =
    resolve fut
      (Failed (Failure "Pool: task discarded by shutdown", Printexc.get_callstack 0))
  in
  if t.jobs = 1 then begin
    (* inline mode: the caller's domain is the executor, so a 1-job pool is
       exactly the serial baseline *)
    if t.closed then invalid_arg "Pool.submit: pool is shut down";
    run ();
    fut
  end
  else begin
    Mutex.lock t.m;
    if t.closed then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    Queue.push { run; cancel } t.q;
    Condition.signal t.nonempty;
    Mutex.unlock t.m;
    fut
  end

let await fut =
  Mutex.lock fut.fm;
  while fut.state = Pending do
    Condition.wait fut.fcond fut.fm
  done;
  let st = fut.state in
  Mutex.unlock fut.fm;
  match st with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let shutdown t =
  Mutex.lock t.m;
  if t.closed then Mutex.unlock t.m
  else begin
    t.closed <- true;
    (* fail queued-but-unstarted tasks instead of leaving awaiters hanging *)
    let pending = List.of_seq (Queue.to_seq t.q) in
    Queue.clear t.q;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m;
    List.iter (fun task -> task.cancel ()) pending;
    let ds = t.domains in
    t.domains <- [];
    List.iter Domain.join ds
  end

let with_pool ?name ?on_worker_start ~jobs f =
  let t = create ?name ?on_worker_start ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map_list t f xs =
  let futs = List.map (fun x -> submit t (fun () -> f x)) xs in
  List.map await futs
