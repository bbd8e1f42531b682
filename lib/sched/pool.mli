(** A fixed pool of OCaml 5 worker domains draining one bounded job
    queue.

    The pool is deliberately dumb: jobs are opaque thunks, there is no
    stealing, no priorities and no futures — determinism lives in the
    callers (the engine's rank-based verdict selection), not here.
    Cancellation is likewise not a pool concept: callers share a
    [bool Atomic.t] through {!Obs.Budget} tokens and jobs observe it
    at their own check points, so a "cancelled" job is simply one that
    returns early.

    Domains are expensive (a few ms to spawn, an OS thread each), so a
    pool is created once per batch of related work and reused; it is
    not a per-call convenience.  Worker counts beyond
    [Domain.recommended_domain_count] oversubscribe the machine and
    are clamped by {!create}. *)

type t

exception Poison
(** Raised {e out of} a directly-{!submit}ted job to kill the worker
    domain executing it — the fault-injection handle the supervision
    drill is built on.  The dying worker registers itself and the next
    {!submit}/{!try_submit}/{!heal} replaces it (counted as
    ["sched.worker_restarts"]).  Jobs run via {!map}/{!try_map} cannot
    poison: their wrapper captures every exception as the item's
    outcome. *)

val create : ?capacity:int -> jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs] worker domains ([jobs] is clamped
    to [1 .. Domain.recommended_domain_count]).  [capacity] bounds the
    job queue (default [2 * jobs]); {!submit} blocks when the queue is
    full, which keeps a fast producer from buffering an unbounded
    batch ahead of slow workers. *)

val size : t -> int
(** Number of worker domains. *)

val queued : t -> int
(** Jobs currently waiting in the queue (not the ones already running)
    — a point-in-time telemetry probe for the serve flight recorder;
    the value can be stale by the time the caller reads it. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a job; blocks while the queue is full.  A job that raises
    does not kill its worker: the exception is counted
    (["sched.job_error"]) and reported on stderr — jobs that care
    about their outcome capture it themselves (see {!map}) — except
    {!Poison}, which kills the worker (and is healed on the next
    submission).
    @raise Invalid_argument on a pool that has been {!shutdown}. *)

val try_submit : t -> (unit -> unit) -> bool
(** Non-blocking {!submit}: enqueue the job and return [true], or
    return [false] without blocking when the queue is full (counted as
    ["sched.jobs_rejected"]) or the pool is shut down.  This is the
    admission edge backpressure policies (load-shedding servers) are
    built on: the caller learns {e now} that the pool is saturated and
    can answer "overloaded" instead of stalling its intake. *)

val heal : t -> int
(** Join and respawn every worker that died of {!Poison}, returning
    how many were replaced (0 on the healthy path, at the cost of one
    mutex acquisition).  Also run implicitly by {!submit} and
    {!try_submit}, so a pool under traffic self-heals; call it
    directly to bound the window in which capacity is degraded.  After
    {!shutdown} this is a no-op. *)

val try_map : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** [try_map pool f items] runs [f] on every item across the pool and
    waits for all of them; results are in input order regardless of
    completion order, each item's exception captured as its [Error] —
    the per-item exception barrier corpus-style walks are built on.
    Safe to call from the main domain while workers run; must not be
    called from inside a pool job (the worker would wait on itself). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f items] runs [f] on every item across the pool and
    waits for all of them; results are in input order regardless of
    completion order.  If any [f] raised, the first (by input order)
    such exception is re-raised in the caller after all items have
    settled.  Safe to call from the main domain while workers run;
    must not be called from inside a pool job (the worker would wait
    on itself). *)

val shutdown : t -> unit
(** Refuse further submissions, run every job already queued, join all
    workers.  Idempotent.  After shutdown the workers' buffered trace
    events have reached the sink, so a subsequent [Obs.Trace.stop] on
    the calling domain loses nothing. *)

val with_pool : ?capacity:int -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool, guaranteeing
    {!shutdown} on the way out (also on exceptions). *)

val map_jobs : ?capacity:int -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map] on the calling domain when [jobs <= 1], else {!map} on
    a fresh pool of [jobs] workers. *)
