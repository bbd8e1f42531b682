(** Structured tracing: hierarchical wall-clock spans with typed
    attributes, captured into a preallocated ring buffer and exported
    as Chrome trace-event JSON (loadable in Perfetto or
    about://tracing) or as a streaming JSONL file.

    Tracing complements {!Stats}: the registry aggregates (how much
    time went to SAT overall), a trace preserves the sequence (which
    BMC depth blew up, which strategy slice burned the budget, what
    nested under what).  When no trace is active every probe is a
    cheap no-op — one ref read and a branch — so instrumentation can
    stay on permanently in the hot layers.

    Capture is domain-safe: each domain records into its own ring and
    span stack, events from worker domains carry a ["domain"]
    attribute, and the exporters emit one tid track per domain (the
    sink itself is shared under a lock).  Worker domains should call
    {!flush} before parking so their buffered events reach the sink
    even if they never fill a ring. *)

(** {1 Events} *)

type value = Int of int | Float of float | String of string | Bool of bool

type arg = string * value
(** A typed attribute ("depth" = 7, "verdict" = "unsat", ...). *)

type kind = Span | Instant

type event = {
  name : string;
  kind : kind;
  ts_us : float;  (** start, microseconds since trace start *)
  dur_us : float;  (** duration in microseconds; 0 for instants *)
  args : arg list;
}

(** {1 Capture} *)

type format =
  | Chrome  (** one JSON array of trace-event objects, written in
                ring-buffered batches and closed on {!stop} *)
  | Jsonl  (** one JSON object per line, flushed per event, so a
               crashed run keeps everything captured so far *)

val format_of_path : string -> format
(** [Jsonl] for a [.jsonl] suffix, [Chrome] otherwise. *)

val start : ?format:format -> string -> unit
(** Open a trace sink at the given path (format defaults to
    {!format_of_path}) and start capturing.  Replaces any active
    trace.  An unwritable path prints a warning and leaves tracing
    off — telemetry must not turn a successful run into a failure.
    The sink is closed automatically at process exit. *)

val setup : ?file:string -> unit -> unit
(** CLI convenience: [start] on [file] when given, else on the
    [DIAMBOUND_TRACE] environment variable when set and non-empty,
    else do nothing. *)

val stop : unit -> unit
(** Flush open spans and every domain's ring buffer, close the sink.
    All recording domains must be quiescent (joined or parked) by the
    time this runs.  No-op when no trace is active. *)

val flush : unit -> unit
(** Drain the calling domain's ring into the sink.  Scheduler workers
    call this when a job finishes so a later {!stop} on the main
    domain never races a worker mid-record.  No-op when no trace is
    active. *)

val active : unit -> bool

val registered : unit -> int
(** How many domains hold a ring buffer.  Only live domains do: a
    worker domain's buffer drains into the active sink (open spans
    closed as truncated) and leaves the registry when the domain
    exits. *)

(** {1 Recording} *)

val with_span :
  ?args:arg list ->
  ?result:('a -> arg list) ->
  ?record:(float -> unit) ->
  string ->
  (unit -> 'a) ->
  'a
(** Run the function under a named span.  [result] maps the return
    value to attributes only known at the end (per-call solver deltas,
    verdicts, after-sizes), appended to [args].  The span is recorded
    even when the function raises, with an ["exception"] attribute
    instead.

    [record], when given, receives the span's duration in seconds —
    also when the function raises, and also when no trace is active —
    from the same clock readings as the trace event.  It is how
    {!Obs.span} feeds the {!Stats} aggregate; aggregate call sites use
    {!Obs.span} rather than passing it. *)

val instant : ?args:arg list -> string -> unit
(** A point event at the current time. *)

val emit : event -> unit
(** Record a fully-formed event verbatim, timestamps included.  The
    recording primitive under {!with_span}/{!instant}; exposed so
    tests can drive the exporters with chosen timestamps.

    When a {!Log.with_corr} correlation context is active, recorded
    events additionally carry a ["corr"] string attribute (unless one
    is already present), so a serve trace can be partitioned per
    request by {!Trace_report}. *)

(** {1 Reading back} *)

val to_json : ?tid:int -> event -> Report.json
(** The exact JSON object either exporter writes for this event
    ([tid] defaults to 0, the main track) — for writers outside this
    module (the serve flight recorder) that must produce files
    {!read_file} and [diam trace-report] accept. *)

val read_file : string -> event list
(** Parse a trace produced by either exporter (sniffed from the
    leading character) back into events, in file order.  Truncated
    captures from crashed or killed runs are salvaged rather than
    refused: a JSONL file may lose its cut-off final line, and a
    Chrome array missing its closing bracket is recovered
    line-by-line (both exporters write one event per line).
    @raise Failure on malformed input (a damaged line mid-file in an
    otherwise intact capture), [Sys_error] on unreadable files. *)
