(* Unit tests for the domain work pool: job-count validation (shared with
   the CLI --jobs flag), result ordering, worker-exception propagation
   (re-raise at await, never a deadlock), shutdown semantics including
   cancellation of never-started tasks, and nested pools running inline. *)

module Pool = Cim_util.Pool
module Segment = Cim_compiler.Segment
module Ccfg = Cim_compiler.Cmswitch.Config
module Config = Cim_arch.Config

let test_parse_jobs () =
  Alcotest.(check bool) "4 parses" true (Pool.parse_jobs "4" = Ok 4);
  Alcotest.(check bool) "1 parses" true (Pool.parse_jobs "1" = Ok 1);
  Alcotest.(check bool) "whitespace tolerated" true (Pool.parse_jobs " 8 " = Ok 8);
  List.iter
    (fun s ->
      match Pool.parse_jobs s with
      | Ok n -> Alcotest.failf "%S parsed to %d" s n
      | Error _ -> ())
    [ "0"; "-1"; "-100"; ""; "two"; "3.5"; "1e2" ]

let test_create_rejects_bad_jobs () =
  List.iter
    (fun jobs ->
      match Pool.create ~jobs () with
      | exception Invalid_argument _ -> ()
      | t ->
        Pool.shutdown t;
        Alcotest.failf "create ~jobs:%d succeeded" jobs)
    [ 0; -1 ];
  (* the same contract at the Segment.run level *)
  let chip = Config.dynaplasia in
  let opts = Ccfg.to_segment_options (Ccfg.with_jobs 0 Ccfg.default) in
  match Segment.run ~options:opts chip [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Segment.run accepted jobs = 0"

let test_map_preserves_order () =
  List.iter
    (fun jobs ->
      let r =
        Pool.with_pool ~jobs (fun p ->
            Pool.map_list p (fun x -> x * x) [ 1; 2; 3; 4; 5; 6; 7; 8 ])
      in
      Alcotest.(check (list int))
        (Printf.sprintf "squares in order at jobs=%d" jobs)
        [ 1; 4; 9; 16; 25; 36; 49; 64 ] r)
    [ 1; 2; 4 ]

exception Boom of int

let test_exception_propagates () =
  (* a worker exception must re-raise at await on the caller's domain, and
     re-raise deterministically by submission order, not completion order *)
  List.iter
    (fun jobs ->
      match
        Pool.with_pool ~jobs (fun p ->
            Pool.map_list p
              (fun x -> if x mod 3 = 0 then raise (Boom x) else x)
              [ 1; 2; 3; 4; 5; 6 ])
      with
      | exception Boom 3 -> ()
      | exception e ->
        Alcotest.failf "jobs=%d raised %s, wanted Boom 3" jobs
          (Printexc.to_string e)
      | _ -> Alcotest.failf "jobs=%d swallowed the exception" jobs)
    [ 1; 2; 4 ]

let test_pool_survives_failure () =
  (* after one task fails, the pool keeps serving later submissions — an
     exception must not wedge the queue or kill the workers *)
  Pool.with_pool ~jobs:2 (fun p ->
      let bad = Pool.submit p (fun () -> failwith "task failed") in
      (match Pool.await bad with
      | exception Failure _ -> ()
      | () -> Alcotest.fail "failure swallowed");
      let good = Pool.submit p (fun () -> 41 + 1) in
      Alcotest.(check int) "pool still works" 42 (Pool.await good))

let test_shutdown_cancels_queued () =
  let t = Pool.create ~jobs:2 () in
  (* park both workers on a gate so queued tasks cannot start *)
  let release = Atomic.make false in
  let started = Atomic.make 0 in
  let blocker () =
    Atomic.incr started;
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done
  in
  let b1 = Pool.submit t blocker and b2 = Pool.submit t blocker in
  (* wait for the workers to actually pick the blockers up, or the drain
     below could discard them instead of the probe task *)
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  let ran = Atomic.make false in
  let queued = Pool.submit t (fun () -> Atomic.set ran true) in
  (* shut down from a helper domain; it blocks joining the parked workers.
     The main domain polls submit until the pool reports closed (the drain
     happens before that flag flips), then opens the gate. *)
  let closer = Domain.spawn (fun () -> Pool.shutdown t) in
  let rec wait_closed () =
    match Pool.submit t (fun () -> ()) with
    | _ -> wait_closed ()
    | exception Invalid_argument _ -> ()
  in
  wait_closed ();
  Atomic.set release true;
  Domain.join closer;
  Pool.await b1;
  Pool.await b2;
  (match Pool.await queued with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "queued task should have been cancelled");
  Alcotest.(check bool) "cancelled task never ran" false (Atomic.get ran);
  (* idempotent *)
  Pool.shutdown t

let test_current_worker () =
  Alcotest.(check bool) "main domain is not a worker" true
    (Pool.current_worker () = None);
  let seen =
    Pool.with_pool ~jobs:2 (fun p ->
        Pool.map_list p (fun _ -> Pool.current_worker ()) [ (); () ])
  in
  List.iter
    (fun w ->
      match w with
      | Some i -> Alcotest.(check bool) "worker index in range" true (i >= 0 && i < 2)
      | None -> Alcotest.fail "task ran outside a worker domain")
    seen;
  (* inline (jobs = 1) pools run on the caller: not a worker *)
  Pool.with_pool ~jobs:1 (fun p ->
      Alcotest.(check bool) "inline task is not a worker" true
        (Pool.await (Pool.submit p Pool.current_worker) = None))

let test_nested_pool_is_inline () =
  (* a pool created on a worker spawns nothing: it reports one job and
     runs every task on the worker that created it *)
  let outer, jobs, inner =
    Pool.with_pool ~jobs:2 (fun p ->
        Pool.await
          (Pool.submit p (fun () ->
               Pool.with_pool ~jobs:4 (fun q ->
                   ( Pool.current_worker (),
                     Pool.jobs q,
                     Pool.map_list q (fun _ -> Pool.current_worker ())
                       [ (); (); () ] )))))
  in
  Alcotest.(check bool) "created on a worker" true (outer <> None);
  Alcotest.(check int) "nested pool reports one job" 1 jobs;
  Alcotest.(check bool) "tasks ran on the creating worker" true
    (List.for_all (( = ) outer) inner)

let test_nested_runs_degrade () =
  (* Segment.run called from inside a pool worker must go serial (and in
     particular terminate) rather than spawn a nested domain pool *)
  let chip = Config.dynaplasia in
  let rng = Cim_util.Rng.create 7 in
  let g = Cim_models.Mlp.build ~rng ~batch:2 ~dims:[ 32; 64; 32 ] () in
  let ops = Cim_compiler.Opinfo.extract chip g in
  let direct, _ =
    Segment.run
      ~options:(Ccfg.to_segment_options (Ccfg.with_jobs 2 Ccfg.default))
      chip ops
  in
  let nested =
    Pool.with_pool ~jobs:2 (fun p ->
        Pool.await
          (Pool.submit p (fun () ->
               fst
                 (Segment.run
                    ~options:
                      (Ccfg.to_segment_options (Ccfg.with_jobs 2 Ccfg.default))
                    chip ops))))
  in
  Alcotest.(check bool) "nested result identical" true (nested = direct)

let suite =
  ( "pool",
    [
      Alcotest.test_case "parse_jobs validation" `Quick test_parse_jobs;
      Alcotest.test_case "create rejects jobs < 1" `Quick test_create_rejects_bad_jobs;
      Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
      Alcotest.test_case "worker exception propagates" `Quick test_exception_propagates;
      Alcotest.test_case "pool survives a failed task" `Quick test_pool_survives_failure;
      Alcotest.test_case "shutdown cancels queued tasks" `Quick test_shutdown_cancels_queued;
      Alcotest.test_case "current_worker" `Quick test_current_worker;
      Alcotest.test_case "a pool created on a worker is inline" `Quick
        test_nested_pool_is_inline;
      Alcotest.test_case "nested Segment.run degrades to serial" `Quick test_nested_runs_degrade;
    ] )
