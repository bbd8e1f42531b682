(** The long-lived verification service: a JSONL request/response
    session scheduled on a supervised {!Sched.Pool}.

    Robustness properties (chaos-drilled by [scripts/ci.sh] and
    [test/test_serve.ml]; invariants in DESIGN.md §8):

    - {e Exactly one response per request}, written in {e request
      order} regardless of completion order or [--jobs], via a
      reorder buffer flushed by whichever thread completes the
      next-in-order response.  For a fixed cache state and corpus,
      session output is byte-identical for every [jobs] value.
    - {e Per-request exception barrier} ({!Exec.run}): parse errors,
      solver crashes and injected faults become structured error
      responses, never a dead server.
    - {e Worker supervision}: a poisoned worker domain is detected and
      respawned ({!Sched.Pool.heal}), counted as
      ["serve.worker.restarts"]; its queued work still runs.
    - {e Backpressure}: without [queue_limit], admission blocks (the
      session stops reading input — deterministic pipe backpressure);
      with it, a full queue sheds load as
      [{"error":"overloaded","retry_after_ms":N}].
    - {e Verdict cache}: certified verdicts keyed by canonical cone
      fingerprint and configuration, LRU-evicted under [cache_mb], with hit/miss/
      eviction counters and ["serve.latency_us"] percentiles in the
      stats snapshot.  Exact duplicate requests coalesce onto the
      in-flight leader and are answered as cache hits.

    Drill ops: ["stall"] parks a worker until the next ["drain"] (or
    EOF) to saturate the queue deterministically; ["poison"] kills a
    worker after responding; both require their regime (stall needs
    [queue_limit], poison needs chaos arming).

    Live telemetry (DESIGN.md §8): every request is executed under a
    deterministic correlation id ["req-<seq>"] joining its log lines,
    trace spans and solver heartbeats; formerly-silent error paths
    (bad request, shed, worker respawn, request crash, poisoned-cache
    purge) are logged through {!Obs.Log}; the ["metrics"] op answers
    with the Prometheus exposition of the whole stats snapshot plus
    per-request heartbeat gauges.  With [stall_window_s] set, a
    monitor domain flags any in-flight request whose heartbeat has
    not advanced within the window — warn log with its correlation
    id, plus a crash-safe flight-recorder dump ([flight_path], Trace
    JSONL schema, readable by [diam trace-report]).  Telemetry only
    observes: stdout carries protocol responses exclusively, and
    neither the watchdog nor logging can alter a verdict. *)

type config = {
  jobs : int;  (** worker domains per session (clamped to >= 1) *)
  queue_limit : int option;
      (** admission queue bound; [Some _] switches admission from
          blocking to load-shedding *)
  cache_mb : int;  (** verdict cache budget, megabytes *)
  chaos_seed : int option;
      (** arms the chaos drill ops and the differential replay of
          cache hits; [None] in production *)
  stall_window_s : float option;
      (** watchdog stall window, seconds; [Some _] spawns the monitor
          domain *)
  flight_path : string option;
      (** flight-recorder sink for watchdog dumps (appended, Trace
          JSONL schema) *)
  metrics_interval_s : float option;
      (** periodic ["metrics"] JSONL emission through the log sink *)
}

val default_config : config
(** [jobs = 1], blocking admission, 64 MB cache, chaos off, no
    watchdog, no periodic metrics. *)

type ending = Eof | Shutdown_requested

val run_session :
  ?cache:Core.Bcache.t ->
  config ->
  input:(unit -> string option) ->
  output:(string -> unit) ->
  unit ->
  ending
(** Serve one session: read request lines from [input] (until [None] =
    EOF, an implicit drain) and write response lines to [output].
    [cache] lets callers share a cache across sessions (socket mode)
    or inject one pre-seeded (tests); omitted, a fresh
    ["serve.cache"]-prefixed cache is created.  Blank lines are
    ignored.  The pool is created on entry and fully drained and shut
    down on exit, also on exceptions. *)

val run_stdio : config -> int
(** One session over stdin/stdout; returns the process exit code
    (0 — protocol-level failures are responses, not exits). *)

val run_socket : config -> path:string -> int
(** Bind a Unix-domain socket at [path] (replacing a stale socket) and
    serve one connection at a time, each connection being one JSONL
    session; the verdict cache is shared across connections.  A
    ["shutdown"] request ends the server after its session; EOF on a
    connection only ends that session.  A path that cannot be bound,
    or where something other than a socket already exists (left
    untouched), prints ["PATH: cannot listen: <reason>"] to stderr and
    returns 2.  On exit the socket is removed if it is still the one
    this call bound. *)
