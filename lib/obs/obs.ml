(** Observability substrate: a process-global registry of counters and
    wall-clock spans ({!Stats}), its human/JSON renderers ({!Report}),
    leveled structured logging with per-request correlation ids
    ({!Log}), structured tracing with Chrome/JSONL export ({!Trace})
    and its offline analyzer ({!Trace_report}), the live in-flight
    progress table ({!Heartbeat}) with its Prometheus/JSONL renderer
    ({!Metrics}), resource budgets ({!Budget}) and warn-and-continue
    file output ({!Fileout}).

    The hot layers (SAT solver callers, the unroller, the BMC loop,
    the transformation pipelines and the verification engine) time
    themselves through one primitive, {!span}, which feeds both the
    registry and the trace; tools expose it via
    [--stats] / [--stats-json FILE] / [--trace FILE] /
    [--log-level] / [--log FILE], and [diam serve] additionally live
    via its [metrics] protocol op and stall watchdog. *)

module Stats = Stats
module Report = Report
module Budget = Budget
module Fileout = Fileout
module Log = Log
module Trace = Trace
module Trace_report = Trace_report
module Heartbeat = Heartbeat
module Metrics = Metrics

(** [span ?args ?result name f] runs [f] once under one clock pair and
    records its duration twice over: into the {!Stats} aggregate under
    [name] — also when [f] raises — and, when a trace is active, as one
    {!Trace} event carrying [args] plus [result r] (or an
    ["exception"] attribute).  Per-instance detail (a depth, a file)
    belongs in [args], never in [name], so the aggregate keeps one row
    per layer. *)
let span ?args ?result name f =
  Trace.with_span ?args ?result ~record:(Stats.add_span name) name f
