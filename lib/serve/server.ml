module Json = Obs.Report
module Stats = Obs.Stats

type config = {
  jobs : int;
  queue_limit : int option;
  cache_mb : int;
  chaos_seed : int option;
  stall_window_s : float option;
  flight_path : string option;
  metrics_interval_s : float option;
}

let default_config =
  {
    jobs = 1;
    queue_limit = None;
    cache_mb = 64;
    chaos_seed = None;
    stall_window_s = None;
    flight_path = None;
    metrics_interval_s = None;
  }

type ending = Eof | Shutdown_requested

let schema =
  [
    "serve.requests";
    "serve.responses";
    "serve.errors";
    "serve.shed";
    "serve.coalesced";
    "serve.stalls";
    "serve.drains";
    "serve.worker.restarts";
    "watchdog.stalls";
    "watchdog.dumps";
  ]

let () = Stats.declare schema

(* deterministic per-request correlation id: the admission sequence
   number is assigned in request order on the intake thread, so the
   same corpus always yields the same ids *)
let corr_of_seq seq = Printf.sprintf "req-%d" seq

(* a constant, so overload responses are byte-identical across runs *)
let retry_after_ms = 50

type follower = { fseq : int; fid : string option }

type session = {
  cfg : config;
  pool : Sched.Pool.t;
  cache : Core.Bcache.t;
  output : string -> unit;
  t0 : float; (* session start, the flight recorder's time origin *)
  (* reorder buffer: responses complete in any order across worker
     domains but are WRITTEN strictly in request order, which is what
     makes a session's output byte-identical for every --jobs value *)
  elock : Mutex.t;
  pending : (int, string) Hashtbl.t;
  mutable next_seq : int; (* first seq not yet written *)
  (* coalescing registry: leader key -> attached duplicates; entries
     are pruned when the leader emits, bounding the registry by the
     number of in-flight requests *)
  clock : Mutex.t;
  coalesce : (string, follower list ref) Hashtbl.t;
  (* stall release generation: a stall parks its worker until the
     generation moves past the one it was admitted under *)
  glock : Mutex.t;
  gcond : Condition.t;
  mutable gen : int;
  parked : int Atomic.t; (* workers parked in the current generation *)
  (* main-thread-only admission state *)
  mutable seq : int;
  mutable stop : bool;
  mutable stalls_admitted : int; (* stalls alive in the current generation *)
}

(* Deliver a completed response.  Whichever thread completes the
   next-in-order response flushes the consecutive run, so emission
   needs no dedicated thread and a lone request is answered the moment
   it completes. *)
let emit s seq line =
  Mutex.lock s.elock;
  Hashtbl.replace s.pending seq line;
  while Hashtbl.mem s.pending s.next_seq do
    s.output (Hashtbl.find s.pending s.next_seq);
    Stats.count "serve.responses" 1;
    Hashtbl.remove s.pending s.next_seq;
    s.next_seq <- s.next_seq + 1
  done;
  Mutex.unlock s.elock

let heal s =
  let n = Sched.Pool.heal s.pool in
  if n > 0 then begin
    Stats.count "serve.worker.restarts" n;
    Obs.Log.warn "serve.worker.respawned" [ ("workers", Json.Int n) ]
  end

let release_stalls s =
  Mutex.lock s.glock;
  s.gen <- s.gen + 1;
  Atomic.set s.parked 0;
  s.stalls_admitted <- 0;
  Condition.broadcast s.gcond;
  Mutex.unlock s.glock

(* Wait until every response before [upto] has been written.  Polls
   rather than waits on a condition so dead (poisoned) workers are
   healed while waiting — their queued jobs must still run for the
   drain to complete. *)
let wait_emitted s upto =
  let settled () =
    Mutex.lock s.elock;
    let d = s.next_seq >= upto in
    Mutex.unlock s.elock;
    d
  in
  while not (settled ()) do
    heal s;
    Unix.sleepf 0.002
  done

let render_outcome ~id ~cache_override outcome =
  match outcome with
  | Exec.Verdict { body; cache; _ } ->
    let cache = Option.value cache_override ~default:cache in
    Request.render
      ((Request.id_field id :: body) @ [ ("cache", Json.String cache) ])
  | Exec.Failed { code; detail } ->
    Stats.count "serve.errors" 1;
    Request.render_error ~id { Request.err_id = id; code; detail }

let bad_request ?corr ~id detail =
  Stats.count "serve.errors" 1;
  Obs.Log.warn "serve.bad_request"
    ((match corr with
     | Some c -> [ ("corr", Json.String c) ]
     | None -> [])
    @ [
        ( "id",
          match id with Some s -> Json.String s | None -> Json.Null );
        ("detail", Json.String detail);
      ]);
  Request.render_error ~id { Request.err_id = id; code = "bad-request"; detail }

(* [true] iff the job was accepted.  Without --queue-limit admission
   BLOCKS on a full queue (deterministic backpressure: the session
   simply stops reading input); with it, admission sheds instead. *)
let submit_or_shed s ~corr ~id job =
  match s.cfg.queue_limit with
  | Some limit ->
    if Sched.Pool.try_submit s.pool job then true
    else begin
      Stats.count "serve.shed" 1;
      Obs.Log.warn "serve.shed"
        [
          ("corr", Json.String corr);
          ("id", match id with Some s -> Json.String s | None -> Json.Null);
          ("queue_limit", Json.Int limit);
        ];
      false
    end
  | None ->
    Sched.Pool.submit s.pool job;
    true

let handle_verify s seq (r : Request.t) =
  let corr = corr_of_seq seq in
  let key = Request.coalesce_key r in
  let attach () =
    match key with
    | None -> false
    | Some k ->
      Mutex.lock s.clock;
      let attached =
        match Hashtbl.find_opt s.coalesce k with
        | Some fs ->
          fs := { fseq = seq; fid = r.Request.id } :: !fs;
          true
        | None -> false
      in
      Mutex.unlock s.clock;
      attached
  in
  if attach () then Stats.count "serve.coalesced" 1
  else begin
    (* become the leader BEFORE submitting, so a duplicate admitted
       next can attach while this request is still queued *)
    (match key with
    | Some k ->
      Mutex.lock s.clock;
      Hashtbl.replace s.coalesce k (ref []);
      Mutex.unlock s.clock
    | None -> ());
    let job () =
      let t0 = Stats.now () in
      let outcome =
        Exec.run ~cache:s.cache ~chaos_seed:s.cfg.chaos_seed ~corr r
      in
      Stats.dist "serve.latency_us" ((Stats.now () -. t0) *. 1e6);
      let followers =
        match key with
        | None -> []
        | Some k ->
          Mutex.lock s.clock;
          let fs =
            match Hashtbl.find_opt s.coalesce k with
            | Some fs -> !fs
            | None -> []
          in
          Hashtbl.remove s.coalesce k;
          Mutex.unlock s.clock;
          List.rev fs
      in
      emit s seq (render_outcome ~id:r.Request.id ~cache_override:None outcome);
      (* an attached duplicate was served from the leader's in-flight
         result: that IS a cache hit from the client's point of view *)
      let fcache =
        match outcome with Exec.Verdict _ -> Some "hit" | Exec.Failed _ -> None
      in
      List.iter
        (fun f ->
          emit s f.fseq (render_outcome ~id:f.fid ~cache_override:fcache outcome))
        followers
    in
    if not (submit_or_shed s ~corr ~id:r.Request.id job) then begin
      (match key with
      | Some k ->
        Mutex.lock s.clock;
        Hashtbl.remove s.coalesce k;
        Mutex.unlock s.clock
      | None -> ());
      emit s seq (Request.render_overloaded ~id:r.Request.id ~retry_after_ms)
    end
  end

let handle_stall s seq (r : Request.t) =
  let corr = corr_of_seq seq in
  match s.cfg.queue_limit with
  | None ->
    (* with blocking admission a stalled worker would eventually
       deadlock the intake; the drill op therefore requires the
       load-shedding regime *)
    emit s seq (bad_request ~corr ~id:r.Request.id "stall requires --queue-limit")
  | Some _ ->
    if s.stalls_admitted >= max 1 s.cfg.jobs then
      (* a stall beyond the worker count would sit in the queue
         forever: every worker is already parked *)
      emit s seq
        (bad_request ~corr ~id:r.Request.id "all workers already stalled")
    else begin
      Stats.count "serve.stalls" 1;
      let g0 = s.gen in
      let job () =
        (* the parked worker is visible to the watchdog: it registers
           in the in-flight table and — by design — never beats, so
           the stall drill exercises the whole stalled-request path *)
        Obs.Log.with_corr corr (fun () ->
            Obs.Heartbeat.register ~phase:"stall.parked" corr;
            Fun.protect
              ~finally:(fun () -> Obs.Heartbeat.finish corr)
              (fun () ->
                Mutex.lock s.glock;
                (* park only in the stall's own generation: a release
                   between admission and pickup means there is nothing
                   left to drill *)
                if s.gen = g0 then begin
                  Atomic.incr s.parked;
                  while s.gen = g0 do
                    Condition.wait s.gcond s.glock
                  done
                end;
                Mutex.unlock s.glock));
        emit s seq (Request.render_ok ~id:r.Request.id Request.Stall [])
      in
      if submit_or_shed s ~corr ~id:r.Request.id job then begin
        s.stalls_admitted <- s.stalls_admitted + 1;
        (* the park handshake: admit no more input until the worker has
           actually parked, so queue occupancy — and therefore which
           subsequent requests shed — is deterministic *)
        while Atomic.get s.parked < s.stalls_admitted do
          heal s;
          Unix.sleepf 0.001
        done
      end
      else
        emit s seq (Request.render_overloaded ~id:r.Request.id ~retry_after_ms)
    end

let handle_poison s seq (r : Request.t) =
  let corr = corr_of_seq seq in
  match s.cfg.chaos_seed with
  | None ->
    emit s seq
      (bad_request ~corr ~id:r.Request.id
         "poison requires the server to be armed (DIAMBOUND_CHAOS_SEED)")
  | Some _ ->
    let job () =
      (* respond first — every admitted request gets exactly one
         response — then kill this worker; supervision respawns it *)
      emit s seq (Request.render_ok ~id:r.Request.id Request.Poison []);
      raise Sched.Pool.Poison
    in
    if not (submit_or_shed s ~corr ~id:r.Request.id job) then
      emit s seq (Request.render_overloaded ~id:r.Request.id ~retry_after_ms)

let quiesce s upto =
  release_stalls s;
  wait_emitted s upto;
  heal s

(* ----- watchdog / flight recorder -----

   A monitor domain (spawned per session when a stall window or a
   metrics interval is configured) scans the in-flight heartbeat
   table.  A request whose heartbeat has not advanced within the
   window is logged at warn with its correlation id, and the whole
   live state — every in-flight request as a span, its recent beat
   history as instants, one queue/pool state instant — is appended to
   the flight-recorder file in the Trace JSONL schema, so
   [diam trace-report] reads a dump like any other capture.  The
   recorder only observes: it writes no response bytes and never
   touches a verdict. *)

let flight_events s ~now ~stalled_corrs views =
  let rel t = (t -. s.t0) *. 1e6 in
  let state =
    {
      Obs.Trace.name = "flight.state";
      kind = Obs.Trace.Instant;
      ts_us = rel now;
      dur_us = 0.;
      args =
        [
          ("jobs", Obs.Trace.Int s.cfg.jobs);
          ("queued", Obs.Trace.Int (Sched.Pool.queued s.pool));
          ("parked", Obs.Trace.Int (Atomic.get s.parked));
          (* racy reads of intake-thread fields — diagnostics only *)
          ("admitted", Obs.Trace.Int s.seq);
          ("emitted", Obs.Trace.Int s.next_seq);
          ("inflight", Obs.Trace.Int (List.length views));
        ];
    }
  in
  let of_view (v : Obs.Heartbeat.view) =
    let b = v.Obs.Heartbeat.v_last in
    let request =
      {
        Obs.Trace.name = "flight.request";
        kind = Obs.Trace.Span;
        ts_us = rel v.Obs.Heartbeat.v_started;
        dur_us = (now -. v.Obs.Heartbeat.v_started) *. 1e6;
        args =
          [
            ("corr", Obs.Trace.String v.Obs.Heartbeat.v_corr);
            ("phase", Obs.Trace.String v.Obs.Heartbeat.v_phase);
            ("beats", Obs.Trace.Int v.Obs.Heartbeat.v_beats);
            ("conflicts", Obs.Trace.Int b.Obs.Heartbeat.conflicts);
            ("propagations", Obs.Trace.Int b.Obs.Heartbeat.propagations);
            ("trail", Obs.Trace.Int b.Obs.Heartbeat.trail);
            ("learnts", Obs.Trace.Int b.Obs.Heartbeat.learnts);
            ( "stalled",
              Obs.Trace.Bool
                (List.mem v.Obs.Heartbeat.v_corr stalled_corrs) );
          ];
      }
    in
    let beats =
      List.map
        (fun (b : Obs.Heartbeat.beat) ->
          {
            Obs.Trace.name = "flight.beat";
            kind = Obs.Trace.Instant;
            ts_us = rel b.Obs.Heartbeat.at;
            dur_us = 0.;
            args =
              [
                ("corr", Obs.Trace.String v.Obs.Heartbeat.v_corr);
                ("conflicts", Obs.Trace.Int b.Obs.Heartbeat.conflicts);
                ("propagations", Obs.Trace.Int b.Obs.Heartbeat.propagations);
                ("trail", Obs.Trace.Int b.Obs.Heartbeat.trail);
                ("learnts", Obs.Trace.Int b.Obs.Heartbeat.learnts);
              ];
          })
        v.Obs.Heartbeat.v_history
    in
    request :: beats
  in
  state :: List.concat_map of_view views

let dump_flight s ~now stalled =
  match s.cfg.flight_path with
  | None -> ()
  | Some path -> (
    (* best-effort ring flush so an active --trace capture also holds
       everything this domain buffered (JSONL traces are per-event
       flushed already) *)
    Obs.Trace.flush ();
    let views = Obs.Heartbeat.snapshot () in
    let stalled_corrs =
      List.map (fun (v : Obs.Heartbeat.view) -> v.Obs.Heartbeat.v_corr) stalled
    in
    let events = flight_events s ~now ~stalled_corrs views in
    match open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path with
    | exception Sys_error msg ->
      Format.eprintf "flight-recorder: cannot open %s: %s@." path msg
    | oc ->
      (* one appended batch per firing, closed immediately: the file
         is complete on disk even if the server dies right after *)
      List.iter
        (fun e ->
          output_string oc (Json.to_string (Obs.Trace.to_json e));
          output_char oc '\n')
        events;
      close_out_noerr oc;
      Stats.count "watchdog.dumps" 1;
      Obs.Log.info "watchdog.dump"
        [ ("file", Json.String path); ("inflight", Json.Int (List.length views)) ])

let monitor_tick_s = 0.01

let monitor_loop s stop =
  let next_metrics =
    ref
      (match s.cfg.metrics_interval_s with
      | Some iv -> Stats.now () +. iv
      | None -> infinity)
  in
  while not (Atomic.get stop) do
    Unix.sleepf monitor_tick_s;
    (match s.cfg.stall_window_s with
    | None -> ()
    | Some window_s ->
      let stalled = Obs.Heartbeat.stalled ~window_s in
      if stalled <> [] then begin
        let now = Stats.now () in
        List.iter
          (fun (v : Obs.Heartbeat.view) ->
            Stats.count "watchdog.stalls" 1;
            Obs.Log.warn "watchdog.stall"
              [
                ("corr", Json.String v.Obs.Heartbeat.v_corr);
                ("phase", Json.String v.Obs.Heartbeat.v_phase);
                ("idle_ms", Json.Int (int_of_float (v.Obs.Heartbeat.v_idle_s *. 1e3)));
                ("age_ms", Json.Int (int_of_float (v.Obs.Heartbeat.v_age_s *. 1e3)));
                ("beats", Json.Int v.Obs.Heartbeat.v_beats);
              ])
          stalled;
        dump_flight s ~now stalled
      end);
    match s.cfg.metrics_interval_s with
    | Some iv when Stats.now () >= !next_metrics ->
      next_metrics := Stats.now () +. iv;
      (* the flag is the opt-in: emitted past the level filter, to the
         log sink (stderr or file), never stdout *)
      Obs.Log.force Obs.Log.Info "metrics" (Obs.Metrics.fields ())
    | _ -> ()
  done

let handle_line s line =
  let seq = s.seq in
  s.seq <- seq + 1;
  Stats.count "serve.requests" 1;
  match Request.parse line with
  | Error e ->
    Stats.count "serve.errors" 1;
    Obs.Log.warn "serve.bad_request"
      [
        ("corr", Json.String (corr_of_seq seq));
        ( "id",
          match e.Request.err_id with Some s -> Json.String s | None -> Json.Null
        );
        ("code", Json.String e.Request.code);
        ("detail", Json.String e.Request.detail);
      ];
    emit s seq (Request.render_error ~id:e.Request.err_id e)
  | Ok r -> (
    match r.Request.op with
    | Request.Verify -> handle_verify s seq r
    | Request.Ping -> emit s seq (Request.render_ok ~id:r.Request.id Request.Ping [])
    | Request.Metrics ->
      (* answered inline on the intake thread: a snapshot needs no
         worker, and the reorder buffer keeps it in request order *)
      emit s seq
        (Request.render_ok ~id:r.Request.id Request.Metrics
           [ ("text", Json.String (Obs.Metrics.prometheus ())) ])
    | Request.Stall -> handle_stall s seq r
    | Request.Poison -> handle_poison s seq r
    | Request.Drain ->
      Stats.count "serve.drains" 1;
      quiesce s seq;
      emit s seq (Request.render_ok ~id:r.Request.id Request.Drain [])
    | Request.Shutdown ->
      quiesce s seq;
      s.stop <- true;
      emit s seq (Request.render_ok ~id:r.Request.id Request.Shutdown []))

let make_cache cfg =
  Core.Bcache.create ~prefix:"serve.cache"
    ~max_bytes:(max 1 cfg.cache_mb * 1024 * 1024)
    ()

let run_session ?cache cfg ~input ~output () =
  let cache = match cache with Some c -> c | None -> make_cache cfg in
  let jobs = max 1 cfg.jobs in
  Sched.Pool.with_pool ?capacity:cfg.queue_limit ~jobs (fun pool ->
      let s =
        {
          cfg;
          pool;
          cache;
          output;
          t0 = Stats.now ();
          elock = Mutex.create ();
          pending = Hashtbl.create 64;
          next_seq = 0;
          clock = Mutex.create ();
          coalesce = Hashtbl.create 16;
          glock = Mutex.create ();
          gcond = Condition.create ();
          gen = 0;
          parked = Atomic.make 0;
          seq = 0;
          stop = false;
          stalls_admitted = 0;
        }
      in
      let rec loop () =
        if s.stop then Shutdown_requested
        else
          match input () with
          | None -> Eof
          | Some line ->
            heal s;
            if String.trim line = "" then loop ()
            else begin
              handle_line s line;
              loop ()
            end
      in
      (* the monitor rides alongside the session only when asked for:
         live telemetry must cost nothing when off *)
      let mon_stop = Atomic.make false in
      let monitor =
        if cfg.stall_window_s <> None || cfg.metrics_interval_s <> None then
          Some (Domain.spawn (fun () -> monitor_loop s mon_stop))
        else None
      in
      (* EOF is an implicit drain: release any parked drill workers and
         wait for every admitted response to reach the sink — also on
         the way out of an exception, or the pool shutdown below would
         join a parked worker forever *)
      Fun.protect
        ~finally:(fun () ->
          quiesce s s.seq;
          Atomic.set mon_stop true;
          Option.iter Domain.join monitor)
        loop)

let run_stdio cfg =
  let input () = try Some (input_line stdin) with End_of_file -> None in
  let output line =
    print_string line;
    print_char '\n';
    flush stdout
  in
  ignore (run_session cfg ~input ~output () : ending);
  0

let bind_at path =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error e
  | sock -> (
    match
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8
    with
    | () -> Ok sock
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error e)

(* What is at [path]: its kind and identity, if anything *)
let file_id path =
  match Unix.lstat path with
  | st -> Some (st.Unix.st_kind, st.Unix.st_dev, st.Unix.st_ino)
  | exception Unix.Unix_error _ -> None

(* a listening Unix-domain socket at [path], or why there is none.  A
   stale socket at [path] is replaced; any other file stays as it is. *)
let listen_at path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    match Unix.unlink path with
    | () -> bind_at path
    | exception Unix.Unix_error (e, _, _) -> Error e)
  | _ -> Error Unix.EEXIST
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> bind_at path
  | exception Unix.Unix_error (e, _, _) -> Error e

let run_socket cfg ~path =
  (* one shared cache across connections: the whole point of a
     long-lived server is that later sessions hit what earlier ones
     proved *)
  let cache = make_cache cfg in
  match listen_at path with
  | Error e ->
    (* an unusable path is an input error, like an unreadable netlist *)
    Printf.eprintf "%s: cannot listen: %s\n%!" path (Unix.error_message e);
    2
  | Ok sock ->
    (* sequential accept: one JSONL session at a time, each with its
       own pool; parallelism lives inside a session (--jobs), not
       across connections *)
    let rec accept_loop () =
      let fd, _ = Unix.accept sock in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let input () = try Some (input_line ic) with End_of_file -> None in
      let output line =
        output_string oc line;
        output_char oc '\n';
        flush oc
      in
      let ending =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> run_session ~cache cfg ~input ~output ())
      in
      match ending with Shutdown_requested -> () | Eof -> accept_loop ()
    in
    (* on exit, remove the socket this process bound, and only that *)
    let ours = file_id path in
    let cleanup () =
      if ours <> None && file_id path = ours then
        try Unix.unlink path with Unix.Unix_error _ -> ()
    in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        cleanup ())
      accept_loop;
    0
