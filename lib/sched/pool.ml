type job = unit -> unit

exception Poison

type t = {
  capacity : int;
  queue : job Queue.t;
  lock : Mutex.t;
  not_empty : Condition.t; (* workers wait here for jobs *)
  not_full : Condition.t; (* submitters wait here for queue space *)
  mutable closed : bool;
  mutable workers : unit Domain.t array;
  mutable dead : int list; (* worker slots whose domain has exited *)
}

let schema =
  [
    "sched.jobs_submitted";
    "sched.jobs_completed";
    "sched.jobs_rejected";
    "sched.job_error";
    "sched.worker_restarts";
  ]

let () = Obs.Stats.declare schema

let size t = Array.length t.workers

let queued t =
  Mutex.lock t.lock;
  let n = Queue.length t.queue in
  Mutex.unlock t.lock;
  n

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Blocks until a job is available or the pool closes with an empty
   queue (the drain-then-exit contract of [shutdown]). *)
let next t =
  locked t (fun () ->
      while Queue.is_empty t.queue && not t.closed do
        Condition.wait t.not_empty t.lock
      done;
      if Queue.is_empty t.queue then None
      else begin
        let j = Queue.pop t.queue in
        Condition.signal t.not_full;
        Some j
      end)

(* Returns [true] when the job poisoned its worker.  Every other
   exception is contained: a raising job must not take its worker down
   with it; jobs that care about their outcome capture it themselves
   (see [map]). *)
let run_job job =
  let poisoned =
    match job () with
    | () -> false
    | exception Poison -> true
    | exception e ->
      Obs.Stats.count "sched.job_error" 1;
      Format.eprintf "sched: job raised %s@." (Printexc.to_string e);
      false
  in
  Obs.Stats.count "sched.jobs_completed" 1;
  (* the worker may park indefinitely (or die) after this job; its
     trace events must not sit in a ring the main domain would close
     over *)
  Obs.Trace.flush ();
  poisoned

let rec worker t slot =
  match next t with
  | None -> ()
  | Some job ->
    if run_job job then
      (* this domain is about to exit with the pool still open:
         register the death so [heal] can put a fresh worker in the
         slot.  Supervision is cooperative — the poisoned worker
         announces itself rather than a monitor probing liveness — so
         detection costs nothing on the healthy path. *)
      locked t (fun () -> t.dead <- slot :: t.dead)
    else worker t slot

(* Join and replace every announced-dead worker.  Only ever touches
   slots whose domain has already left its loop, so the join is
   prompt; [t.workers] is never read by workers, hence the unlocked
   slot store is safe (callers of [heal] are the submitting side).
   After [shutdown] the dead stay dead. *)
let heal t =
  let dead =
    locked t (fun () ->
        if t.closed || t.dead = [] then []
        else begin
          let d = t.dead in
          t.dead <- [];
          d
        end)
  in
  List.iter
    (fun slot ->
      Domain.join t.workers.(slot);
      t.workers.(slot) <- Domain.spawn (fun () -> worker t slot);
      Obs.Stats.count "sched.worker_restarts" 1)
    dead;
  List.length dead

let create ?capacity ~jobs () =
  let jobs = max 1 (min jobs (Domain.recommended_domain_count ())) in
  let capacity =
    match capacity with Some c -> max 1 c | None -> 2 * jobs
  in
  let t =
    {
      capacity;
      queue = Queue.create ();
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      closed = false;
      workers = [||];
      dead = [];
    }
  in
  (* workers never read [t.workers], so publishing the array after the
     spawns is benign *)
  t.workers <- Array.init jobs (fun slot -> Domain.spawn (fun () -> worker t slot));
  t

let submit t job =
  ignore (heal t : int);
  locked t (fun () ->
      while Queue.length t.queue >= t.capacity && not t.closed do
        Condition.wait t.not_full t.lock
      done;
      if t.closed then invalid_arg "Sched.Pool.submit: pool is shut down";
      Queue.push job t.queue;
      Obs.Stats.count "sched.jobs_submitted" 1;
      Condition.signal t.not_empty)

let try_submit t job =
  ignore (heal t : int);
  locked t (fun () ->
      if t.closed then false
      else if Queue.length t.queue >= t.capacity then begin
        Obs.Stats.count "sched.jobs_rejected" 1;
        false
      end
      else begin
        Queue.push job t.queue;
        Obs.Stats.count "sched.jobs_submitted" 1;
        Condition.signal t.not_empty;
        true
      end)

let shutdown t =
  let was_closed =
    locked t (fun () ->
        let was = t.closed in
        t.closed <- true;
        (* wake every parked worker (to drain and exit) and every
           blocked submitter (to fail) *)
        Condition.broadcast t.not_empty;
        Condition.broadcast t.not_full;
        was)
  in
  (* exited (poisoned) workers join immediately; each slot holds either
     the original or its [heal] replacement, never both, so every
     domain is joined exactly once *)
  if not was_closed then Array.iter Domain.join t.workers

let try_map t f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let results = Array.make n None in
  let lock = Mutex.create () in
  let all_done = Condition.create () in
  let remaining = ref n in
  Array.iteri
    (fun i x ->
      submit t (fun () ->
          let r = match f x with v -> Ok v | exception e -> Error e in
          Mutex.lock lock;
          results.(i) <- Some r;
          decr remaining;
          if !remaining = 0 then Condition.signal all_done;
          Mutex.unlock lock))
    items;
  Mutex.lock lock;
  while !remaining > 0 do
    Condition.wait all_done lock
  done;
  Mutex.unlock lock;
  Array.to_list results
  |> List.map (function
       | Some r -> r
       | None -> assert false (* remaining = 0 implies every slot set *))

let map t f items =
  try_map t f items
  |> List.map (function Ok v -> v | Error e -> raise e)

let with_pool ?capacity ~jobs f =
  let t = create ?capacity ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map_jobs ?capacity ~jobs f items =
  if jobs <= 1 then List.map f items
  else with_pool ?capacity ~jobs (fun t -> map t f items)
