(** A CDCL satisfiability solver built from scratch.

    Features: two-watched-literal propagation, first-UIP conflict-clause
    learning with basic minimization, VSIDS variable activities with
    phase saving, Luby restarts, LBD-tiered learnt-clause management
    (core / tier2 / local by glue), inprocessing at restart boundaries
    (subsumption, self-subsuming resolution, bounded variable
    elimination, failed-literal probing — see {!Simplify}), and
    incremental solving under assumptions.  Assumption variables are
    frozen against elimination; eliminated variables are transparently
    reintroduced when later clauses or assumptions mention them, and
    models are extended over eliminated variables before being
    reported.

    Literals are integers: variable [v] gives positive literal [2 * v]
    and negative literal [2 * v + 1]. *)

type t

type lit = int

val pos : int -> lit
(** Positive literal of a variable. *)

val neg_of : int -> lit
(** Negative literal of a variable. *)

val negate : lit -> lit
val var_of : lit -> int
val is_pos : lit -> bool

type result = Sat | Unsat | Unknown

val create : ?inprocess:bool -> unit -> t
(** [inprocess] fixes this instance's inprocessing switch at creation,
    overriding the process default ({!set_inprocess_default} /
    [DIAMBOUND_NO_INPROCESS]); omit it to inherit the default.  An
    explicit per-instance choice is what lets concurrent callers run
    with different options without racing on the global knob. *)

val new_var : t -> int
(** Allocate a fresh variable, returning its index. *)

val num_vars : t -> int

val add_clause : t -> lit list -> unit
(** Add a problem clause.  Tautologies are dropped; duplicate literals
    are removed; the empty clause makes the instance permanently
    unsatisfiable.  Only legal at decision level 0 (i.e. between
    [solve] calls). *)

val solve :
  ?assumptions:lit list ->
  ?max_conflicts:int ->
  ?max_propagations:int ->
  ?should_stop:(unit -> bool) ->
  t ->
  result
(** Solve the current clause set under the given assumptions.  The
    solver is reusable: more clauses and variables may be added after a
    call, and [solve] may be called again.

    The optional allowances bound a single call: [max_conflicts] /
    [max_propagations] cap the conflicts/propagations spent by this
    call (deltas, not lifetime totals), and [should_stop] is a cheap
    external predicate (typically a deadline check).  All three are
    checked only at restart boundaries, so a call may overrun by at
    most one Luby window of conflicts.  On exhaustion the call returns
    {!Unknown} — never a wrong [Sat]/[Unsat] — and the solver remains
    reusable.  Without allowances, [solve] never returns {!Unknown}. *)

val value : t -> lit -> bool
(** Value of a literal in the model found by the last [solve].
    Unassigned variables (eliminated by simplification) read as their
    saved phase.  @raise Invalid_argument when the last [solve] did
    not return [Sat] (or none has run yet): there is no model, and the
    phase-saved data a pre-guard implementation would return is
    stale. *)

val model : t -> bool array
(** Model by variable index.  @raise Invalid_argument when the last
    [solve] did not return [Sat]. *)

(** {1 Self-certification} *)

val set_proof : t -> Proof.t -> unit
(** Attach a proof log.  From now on every input clause, learnt clause
    and learnt-clause deletion is recorded; {!Drup.check} can then
    certify [Unsat] answers with no access to this solver.  Attach
    before adding clauses, or the derivation will be missing axioms. *)

val proof : t -> Proof.t option

val check_model : ?assumptions:lit list -> t -> (unit, string) Stdlib.result
(** Certify the last [Sat] answer: the reported model must satisfy
    every live problem clause, agree with every top-level assignment
    (covering unit clauses folded away at add time), and satisfy
    every listed assumption.  [Error]
    describes the first discrepancy.  Also runs automatically on every
    genuine [Sat] inside [solve] when the environment variable
    [DIAMBOUND_CHECK_MODEL] is set to [1] (raising [Failure] on
    mismatch — that path guards against solver bugs, not injected
    faults, and the test suite enables it globally). *)

(** Statistics from the lifetime of the solver. *)

val num_conflicts : t -> int
val num_decisions : t -> int
val num_propagations : t -> int

val num_restarts : t -> int
(** Completed Luby restarts across all [solve] calls. *)

val num_reduce_dbs : t -> int
(** Learnt-database reductions (each halves the learnt set and sweeps
    deleted clauses out of the watch lists). *)

val num_clauses : t -> int
(** Live problem clauses. *)

val num_learnts : t -> int
(** Live learnt clauses. *)

val trail_depth : t -> int
(** Literals currently assigned (all decision levels).  A live
    progress signal for heartbeat snapshots: meaningful mid-[solve]
    when read from a [should_stop] callback, 0 between solves. *)

val num_watch_entries : t -> int
(** Total entries across all watch lists; with every clause watched
    twice this is [2 * (num_clauses + num_learnts)] between solves. *)

val num_dead_watches : t -> int
(** Watch entries pointing at deleted clauses — always 0 after
    [reduce_db]'s sweep; exposed for regression tests. *)

val set_max_learnts : t -> int -> unit
(** Lower (or raise) the learnt-database size that triggers a
    reduction.  [solve] still never reduces below a third of the
    problem clause count, and every [reduce_db] grows the trigger
    geometrically (at least ×1.1) so long runs stop thrashing. *)

val max_learnts : t -> int
(** Current learnt-database reduction trigger (for regression tests of
    the geometric growth). *)

(** {1 Inprocessing} *)

val set_inprocess_default : bool -> unit
(** Process-global default for inprocessing, captured by {!create}
    (existing solvers are unaffected).  When never called, the
    [DIAMBOUND_NO_INPROCESS] environment variable decides (set to [1]
    to disable).  The CLI tools call this from [--no-inprocess]. *)

val inprocess_default : unit -> bool

val set_inprocess : t -> bool -> unit
(** Enable/disable scheduled inprocessing for this solver instance. *)

val simplify_now : t -> unit
(** Run one inprocessing pass immediately, regardless of the schedule
    and of {!set_inprocess}.  Only legal at decision level 0. *)

val freeze : t -> int -> unit
(** Protect a variable from elimination.  Assumption variables are
    frozen automatically (permanently) by [solve]. *)

val set_simplify_wrapper : t -> ((unit -> unit) -> unit) -> unit
(** Install a wrapper around every inprocessing pass (the observability
    layer uses this to time passes without [sat] depending on [obs]).
    The wrapper must call the supplied thunk exactly once. *)

val num_simplifies : t -> int
(** Inprocessing passes run. *)

val num_subsumed : t -> int
(** Clauses removed by subsumption. *)

val num_strengthened : t -> int
(** Clauses strengthened (self-subsuming resolution + unit rewriting). *)

val num_eliminated : t -> int
(** Variables eliminated (lifetime; reintroductions do not subtract). *)

val num_probed_units : t -> int
(** Units derived by failed-literal probing. *)

val num_core_deleted : t -> int
(** Core-tier (low-LBD) learnts deleted by [reduce_db] — the tier
    invariant says this must stay 0; exposed for regression tests. *)

val pp_stats : Format.formatter -> t -> unit
