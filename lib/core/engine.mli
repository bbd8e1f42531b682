(** The transformation-based verification driver: the paper's
    machinery assembled into a push-button prover.

    Strategies are attempted in cost order, each producing either a
    verdict or a recorded reason to move on:

    + a shallow BMC probe (cheap bug hunting);
    + the structural diameter bound on the original netlist
      (Definition 3 + [7]); if below the cutoff, a BMC run of that
      depth is a complete proof;
    + the bound after COM (Theorem 1) and after COM,RET,COM
      (Theorems 1 and 2), each translated back to the original;
    + for latch-based designs, the above are computed on the
      phase-abstracted netlist and translated through Theorem 3;
    + k-step target enlargement (Theorem 4) when the cone is small
      enough for BDDs;
    + the bounded-COI recurrence diameter [6];
    + temporal induction with uniqueness [5].

    Every completeness-threshold strategy discharges its final BMC run
    on the {e original} netlist, so counterexamples always replay
    there and proofs never depend on a transformation being trusted
    end-to-end.  That independence is also what lets
    {!verify_portfolio} race the same ladder across domains with no
    cross-strategy state.

    Every SAT query goes through a pluggable {!Backend}; the ladder is
    really a grid of (strategy, backend) {e cells}.  With the default
    single reference backend the grid degenerates to the plain ladder
    and behaves exactly as documented above; with a [Race] spec each
    strategy is attempted once per backend, strategy-major (every
    backend of strategy [i] outranks every cell of strategy [i + 1]),
    and non-reference cells are named ["<strategy>@<backend>"] in
    attempts and verdicts. *)

type config = {
  cutoff : int;  (** a bound below this is considered BMC-dischargeable *)
  probe_depth : int;
  enlargement_k : int;
  enlargement_reg_limit : int;
  recurrence_limit : int;
  induction_max_k : int;
  backend : Backend.spec option;
      (** the solver backend(s) this run's ladder solves with; [None]
          inherits the process default ({!Backend.default}).  A
          [Single] backend replaces the reference solver in every cell
          of the ladder; a [Race] crosses every ladder strategy with
          every listed backend (see {!verify_portfolio}).  Per-run and
          per-backend-instance (e.g. [Single (Backend.reference
          ~inprocess:false ())] pins SAT inprocessing off for this run
          only), so concurrent runs with different configurations
          never race on any global toggle. *)
}

val default : config

type attempt = {
  strategy : string;
  reason : string;  (** why the strategy stood down *)
  elapsed_s : float;  (** wall-clock seconds spent in the strategy *)
  bound : Sat_bound.t option;
      (** the translated completeness bound it computed, when one was
          reached before standing down *)
}

type verdict =
  | Proved of { strategy : string; depth : int }
      (** complete: no hit at times [0 .. depth] *)
  | Violated of { strategy : string; cex : Bmc.cex }
  | Inconclusive of { attempts : attempt list }
      (** every strategy's reason for standing down, with timing and
          the bound it got stuck at *)

val discharge_depth : Sat_bound.t -> int option
(** BMC depth that turns a finite diameter bound into a complete
    check: [Some (bound - 1)] for positive finite bounds, [None] for
    huge or non-positive bounds (a bound of 0 means the target is
    unhittable at any depth — no BMC run is needed, and naively using
    [bound - 1] would request a depth of -1). *)

val budget_reason : string
(** The distinguished {!attempt.reason} ("budget-exhausted") recorded
    when a strategy stood down because the resource budget ran out,
    rather than because it was inapplicable or gave up. *)

val cert_fail_reason : string
(** The prefix ("certification-failed") of every {!attempt.reason}
    recorded when a strategy reached a verdict whose certification
    did not check out.  Such a verdict is withheld — the engine
    reports at most [Inconclusive], never an uncertified
    [Proved]/[Violated]. *)

val verify :
  ?config:config ->
  ?budget:Obs.Budget.t ->
  ?certify:bool ->
  ?proof_sink:(Sat.Proof.t -> unit) ->
  ?bcache:Bcache.t * string ->
  Netlist.Net.t ->
  target:string ->
  verdict
(** @raise Invalid_argument on an unknown target name.

    With [~certify:true] every candidate verdict is independently
    re-derived before being reported (see {!Certify}): counterexamples
    must replay on the original netlist, discharge/induction Unsat
    answers must re-check through the DRUP verifier, bound
    translations are recomputed from their recorded theorem steps, and
    a recurrence-derived bound must carry evidence for its closing
    Unsat answer (see {!Recurrence.evidence}).
    Success bumps ["engine.cert_ok"]; any failure (or exception in a
    checker) bumps ["engine.cert_fail"], records a
    {!cert_fail_reason} attempt and lets the ladder continue — so a
    corrupted answer degrades to [Inconclusive] rather than becoming
    a wrong verdict or a crash.  Certification never changes a sound
    verdict, it can only withhold a corrupt one.

    [proof_sink] (implies [certify]) receives the clausal proof of
    each discharge BMC run that certified a [Proved] verdict — for
    [--proof] style dumping.

    Every strategy runs under the {!Obs.span}
    ["engine.<strategy>"], and verdicts bump the
    ["engine.proved"/"engine.violated"/"engine.inconclusive"]
    counters.

    A [budget] governs the whole ladder: each strategy receives an
    equal {!Obs.Budget.slice} of the wall-clock remaining when it
    starts (per-call SAT/BDD allowances pass through unchanged), a
    strategy that runs out records a {!budget_reason} attempt — with
    any bound it managed to compute — and the ladder continues; once
    the overall deadline is gone the remaining strategies stand down
    immediately.  The slice arithmetic is clamped: an overrunning
    early strategy can squeeze a later one down to an already-expired
    slice, but never make it disappear from the attempt log — a dead
    slice still records its {!budget_reason} attempt.  Budget
    exhaustion is never reported as [Proved] or [Violated], and
    additionally bumps ["engine.budget_exhausted"].

    [bcache] is [(cache, key_prefix)]: each ladder strategy probes
    [key_prefix ^ strategy] for a previously certified completeness
    bound and, on a hit, skips its analysis and discharges the cached
    bound directly (BMC run and certification repeated in full, so a
    seeded ladder can only conclude what a fresh one would); when a
    strategy's certified [Proved] carries a bound, it is stored back
    under the same key.  Callers normally reach this through
    {!verify_cached} rather than directly. *)

val verify_portfolio :
  ?config:config ->
  ?budget:Obs.Budget.t ->
  ?certify:bool ->
  ?proof_sink:(Sat.Proof.t -> unit) ->
  ?pool:Sched.Pool.t ->
  ?jobs:int ->
  ?bcache:Bcache.t * string ->
  Netlist.Net.t ->
  target:string ->
  verdict
(** {!verify} with the (strategy, backend) cell grid racing as
    independent portfolio jobs across [jobs] worker domains ([pool], when given, is used
    instead and [jobs] is ignored; with neither, or [jobs <= 1], this
    {e is} sequential {!verify}).

    The result is reproducible and identical to sequential {!verify}
    regardless of [jobs]: the conclusive verdict of the lowest-ranked
    cell wins — never the first to finish — and that is exactly the
    cell the sequential ladder would have stopped at, since every
    lower-ranked cell ran uncancelled to completion and was
    inconclusive.  This holds for multi-backend [Race] specs too:
    backends are sound decision procedures, so a cell's conclusive
    verdict is a function of the problem alone and rank selection
    yields byte-identical output for every [jobs] value.  A conclusive verdict at rank [k] cooperatively
    cancels only the ranks above [k] (their outcome can no longer be
    selected) via {!Obs.Budget} cancellation tokens, which those jobs
    observe at their existing budget check points and record as
    {!budget_reason} attempts.

    Two deliberate semantic differences from a budgeted sequential
    run: each racing cell receives the {e whole} remaining budget
    rather than an equal slice, and for latch-based designs the phase
    abstraction is computed up front rather than lazily after the
    probe.  With an unconstrained budget the verdict, selected
    strategy and (for [Inconclusive]) the attempt reasons coincide
    exactly with {!verify}'s.

    [proof_sink] observes only the winning rank's proofs, in their
    original order, from the calling domain.

    [bcache] behaves as in {!verify}: seeding and storing both happen
    on the calling domain (probe before submission, store on the
    winning rank's verdict), so worker domains never touch the cache
    and the outcome is independent of [jobs] for a given cache
    state. *)

(** {1 Cached verification} *)

type cache_status = Cache_hit | Cache_miss

val cache_keys :
  ?config:config ->
  certify:bool ->
  Netlist.Net.t ->
  target:string ->
  string * string
(** [(verdict_key, bound_key_prefix)] for this problem.  Both embed
    {!Netlist.Net.cone_fingerprint} of the target's cone — structural,
    so build order and names outside the cone do not matter — plus a
    digest of [config] ([verdict_key] as ["v:<fp>:<digest>:<certify>"];
    the bound prefix ["b:<fp>:<digest'>:"] omits [cutoff], a
    completeness bound being valid under any cutoff).  A purge of
    every entry about one cone matches the fingerprint substring.
    @raise Invalid_argument on an unknown target name. *)

val verify_cached :
  ?config:config ->
  ?budget:Obs.Budget.t ->
  ?certify:bool ->
  ?pool:Sched.Pool.t ->
  ?jobs:int ->
  cache:Bcache.t ->
  Netlist.Net.t ->
  target:string ->
  verdict * cache_status
(** {!verify_portfolio} in front of a {!Bcache}: a cached conclusive
    verdict for the same cone fingerprint and configuration is
    returned without running anything ([Cache_hit]); otherwise the
    ladder runs with per-strategy bound seeding (see {!verify}) and,
    when [certify] is on, a conclusive verdict is stored back
    ([Cache_miss]).  Only {e certified} conclusive verdicts ever enter
    the cache — [Inconclusive] outcomes and uncertified runs are never
    cached, so the cache cannot launder an unchecked answer; budget is
    deliberately not part of the key (a certified verdict holds
    however long it took to find).  The verdict-level lookup is what
    the cache's hit/miss counters measure. *)

val pp_verdict : Format.formatter -> verdict -> unit

val exhausted : verdict -> bool
(** [true] iff the verdict is [Inconclusive] with at least one
    {!budget_reason} attempt — i.e. the ladder may only have failed
    because resources ran out.  Conclusive verdicts are never
    exhausted (budget exhaustion must not be reported as
    [Proved]/[Violated]; the campaign's budget oracle asserts exactly
    this). *)

val cert_failed : verdict -> string option
(** The first {!cert_fail_reason} attempt of an [Inconclusive]
    verdict, as ["<strategy>: <reason>"]; [None] for conclusive
    verdicts (which, by construction, certified). *)
