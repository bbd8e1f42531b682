(** Parallel portfolio scheduling on OCaml 5 domains.

    {!Pool} is the only moving part: a fixed set of worker domains
    draining a bounded queue of opaque jobs.  Everything that makes
    parallel verification deterministic — rank-based verdict
    selection, cooperative cancellation through [Obs.Budget] tokens —
    lives in the callers (see the pool executor of [Core.Engine]'s
    grid runner). *)

module Pool = Pool
