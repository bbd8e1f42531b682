(** Process-global observability registry: monotonic counters and
    wall-clock spans.

    Every instrumented layer records into one shared registry, keyed
    by dotted names ("sat.conflicts", "engine.bmc-probe", ...), so a
    tool can run an arbitrary mix of engines and render a single
    coherent report at the end ({!Report}).

    Counters and spans are registered on first use and survive
    {!reset} (which only zeroes them), so a declared schema stays
    stable across runs within a process.

    The registry is domain-safe: counters are atomic (concurrent
    bumps from scheduler worker domains are never lost), and spans
    accumulate into per-domain tables that {!snapshot} merges (calls
    and totals summed, maxima maxed), so one report covers the whole
    process no matter which domain did the work.  A worker domain's
    table is folded into a retired aggregate when the domain exits. *)

type counter
type span

val now : unit -> float
(** Monotonic seconds (CLOCK_MONOTONIC; falls back to wall clock when
    unavailable).  The epoch is arbitrary — only differences between
    two readings are meaningful. *)

(** {1 Counters} *)

val counter : string -> counter
(** Get-or-create the named counter (initially 0). *)

val incr : counter -> unit
val add : counter -> int -> unit

val set : counter -> int -> unit
(** Overwrite: for gauges such as "bound.com.t.raw". *)

val record_max : counter -> int -> unit
(** High-water mark: keep the maximum of the current and given value. *)

val counter_value : counter -> int

val count : string -> int -> unit
(** One-shot [add (counter name) n]. *)

val set_gauge : string -> int -> unit
(** One-shot [set (counter name) n]. *)

val max_gauge : string -> int -> unit
(** One-shot [record_max (counter name) n]. *)

val declare : string list -> unit
(** Register names eagerly so they appear (as zeroes) in every
    snapshot even when the corresponding code path never ran. *)

(** {1 Distributions} *)

val dist : string -> float -> unit
(** Record one sample into the named distribution (domain-safe).  A
    non-empty distribution appears in {!snapshot} as five plain
    counters — [<name>.count], [<name>.p50], [<name>.p90],
    [<name>.p99] and [<name>.max] (nearest-rank percentiles, rounded
    to integers) — so callers pick the unit by scaling before
    recording (the serve layer records microseconds).  Cleared by
    {!reset}. *)

(** {1 Spans} *)

val add_span : string -> float -> unit
(** Record one call of the named span with the given duration
    (seconds); negative values are clamped to zero.  The sink
    {!Obs.span} writes to: instrumented code times through
    {!Obs.span}, which feeds this aggregate and the trace at once. *)

(** {1 Snapshots} *)

type span_stats = { calls : int; total_s : float; max_s : float }

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  spans : (string * span_stats) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every counter and span, keeping registrations. *)
