(* Sched.Pool: worker lifecycle, ordered map, graceful shutdown. *)

let test_map_preserves_order () =
  Sched.Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 50 Fun.id in
      let ys = Sched.Pool.map pool (fun x -> x * x) xs in
      Helpers.check_bool "ordered squares" true
        (List.equal Int.equal ys (List.map (fun x -> x * x) xs)))

let test_map_more_jobs_than_workers () =
  (* 100 jobs over a 2-worker pool: everything completes, in order *)
  Sched.Pool.with_pool ~jobs:2 (fun pool ->
      let ys = Sched.Pool.map pool (fun x -> x + 1) (List.init 100 Fun.id) in
      Helpers.check_int "all completed" 100 (List.length ys);
      Helpers.check_int "last" 100 (List.nth ys 99))

let test_shutdown_joins_cleanly () =
  (* shutdown must join every worker: afterwards no submitted work can
     run, and a second shutdown is a no-op *)
  let pool = Sched.Pool.create ~jobs:3 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 10 do
    Sched.Pool.submit pool (fun () -> Atomic.incr hits)
  done;
  Sched.Pool.shutdown pool;
  Helpers.check_int "all jobs drained before join" 10 (Atomic.get hits);
  Sched.Pool.shutdown pool;
  (* idempotent *)
  match Sched.Pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown should raise"
  | exception Invalid_argument _ -> ()

let test_map_reraises_job_exception () =
  match
    Sched.Pool.with_pool ~jobs:2 (fun pool ->
        Sched.Pool.map pool
          (fun x -> if x = 3 then failwith "boom" else x)
          (List.init 8 Fun.id))
  with
  | _ -> Alcotest.fail "expected the job exception to propagate"
  | exception Failure msg -> Helpers.check Alcotest.string "msg" "boom" msg

let test_with_pool_shuts_down_on_exception () =
  (* the pool must not leak domains when the body raises; if workers
     leaked, alcotest would hang at exit rather than fail, so the real
     assertion is that the exception arrives at all *)
  match
    Sched.Pool.with_pool ~jobs:2 (fun _pool -> failwith "body blew up")
  with
  | () -> Alcotest.fail "expected the body exception"
  | exception Failure msg ->
    Helpers.check Alcotest.string "msg" "body blew up" msg

let test_jobs_clamped () =
  (* absurd requests clamp to the host's domain count instead of
     spawning hundreds of domains *)
  Sched.Pool.with_pool ~jobs:10_000 (fun pool ->
      Helpers.check_bool "clamped" true
        (Sched.Pool.size pool <= Domain.recommended_domain_count ()));
  Sched.Pool.with_pool ~jobs:0 (fun pool ->
      Helpers.check_int "at least one worker" 1 (Sched.Pool.size pool))

let counter name = Obs.Stats.counter_value (Obs.Stats.counter name)

let test_try_submit_rejects_when_full () =
  (* a blocked worker plus a bounded queue: try_submit must REJECT the
     overflow rather than deadlock the caller *)
  let pool = Sched.Pool.create ~capacity:1 ~jobs:1 () in
  let rejected_before = counter "sched.jobs_rejected" in
  let gate = Mutex.create () in
  let started = Atomic.make false in
  Mutex.lock gate;
  Sched.Pool.submit pool (fun () ->
      Atomic.set started true;
      Mutex.lock gate;
      Mutex.unlock gate);
  (* wait for the worker to pick the blocker up, so queue occupancy
     below is deterministic *)
  while not (Atomic.get started) do
    Unix.sleepf 0.001
  done;
  Helpers.check_bool "first fits the queue" true
    (Sched.Pool.try_submit pool (fun () -> ()));
  Helpers.check_bool "second rejected, not blocked" false
    (Sched.Pool.try_submit pool (fun () -> ()));
  Helpers.check_int "rejection counted" (rejected_before + 1)
    (counter "sched.jobs_rejected");
  Mutex.unlock gate;
  Sched.Pool.shutdown pool;
  Helpers.check_bool "rejected after shutdown" false
    (Sched.Pool.try_submit pool (fun () -> ()))

let test_poison_heals () =
  (* a poisoned worker is detected, joined and respawned; the pool
     keeps serving jobs afterwards *)
  let restarts_before = counter "sched.worker_restarts" in
  Sched.Pool.with_pool ~jobs:2 (fun pool ->
      Sched.Pool.submit pool (fun () -> raise Sched.Pool.Poison);
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait_heal () =
        if Sched.Pool.heal pool > 0 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "worker never died / healed"
        else begin
          Unix.sleepf 0.002;
          wait_heal ()
        end
      in
      wait_heal ();
      Helpers.check_int "restart counted" (restarts_before + 1)
        (counter "sched.worker_restarts");
      let ys = Sched.Pool.map pool (fun x -> x * 2) [ 1; 2; 3; 4 ] in
      Helpers.check_bool "healed pool still works" true
        (List.equal Int.equal ys [ 2; 4; 6; 8 ]))

let test_shutdown_heals_remaining_dead () =
  (* workers poisoned and never healed must not wedge shutdown *)
  Sched.Pool.with_pool ~jobs:2 (fun pool ->
      Sched.Pool.submit pool (fun () -> raise Sched.Pool.Poison);
      Sched.Pool.submit pool (fun () -> raise Sched.Pool.Poison))

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "map with more jobs than workers" `Quick
      test_map_more_jobs_than_workers;
    Alcotest.test_case "shutdown joins cleanly" `Quick
      test_shutdown_joins_cleanly;
    Alcotest.test_case "map re-raises job exceptions" `Quick
      test_map_reraises_job_exception;
    Alcotest.test_case "with_pool shuts down on exception" `Quick
      test_with_pool_shuts_down_on_exception;
    Alcotest.test_case "jobs clamped to sane range" `Quick test_jobs_clamped;
    Alcotest.test_case "try_submit rejects when full" `Quick
      test_try_submit_rejects_when_full;
    Alcotest.test_case "poisoned worker heals" `Quick test_poison_heals;
    Alcotest.test_case "shutdown survives unhealed dead workers" `Quick
      test_shutdown_heals_remaining_dead;
  ]
