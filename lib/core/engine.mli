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
    end-to-end.  That independence is also what lets the ladder run on
    a worker pool with no cross-strategy state.

    Every SAT query goes through a pluggable {!Backend}; the ladder is
    really a grid of (strategy, backend) {e cells}.  With the default
    single reference backend the grid degenerates to the plain ladder
    and behaves exactly as documented above; with a [Race] spec each
    strategy is attempted once per backend, backend-major (every cell
    of the spec's first backend, in ladder order, outranks every cell
    of the next backend), and non-reference cells are named
    ["<strategy>@<backend>"] in attempts and verdicts.  A later
    backend is a fallback: it decides only targets on which the whole
    ladder of every earlier backend stood down, so no later backend's
    cell outranks a verdict the first backend can reach, at the
    price of that backend reaching a verdict it could have found on an
    earlier rung only after the first ladder is exhausted.

    {b One driver, two executors.}  {!verify} and {!verify_portfolio}
    run the same grid runner: it checks the target, builds the cell
    grid, runs every cell with its own proof buffer, then selects the
    {e lowest-ranked} conclusive cell, replays only that cell's proofs
    into [proof_sink], counts the verdict and opens the one trace span
    ["engine.verify"].  Only the executor differs:

    - {e in-domain} ({!verify}, and {!verify_portfolio} without a pool
      and with [jobs <= 1]): cells run in rank order on the calling
      domain, each on an equal {!Obs.Budget.slice} of the wall clock
      remaining when it starts, and the run stops at the first
      conclusive cell;
    - {e pool} ({!verify_portfolio} with a [pool], or [jobs > 1]):
      every cell is an independent job with the {e whole} remaining
      budget and its rank's {!Obs.Budget} cancellation token; a
      conclusive cell at rank [k] cancels only the ranks above [k],
      which observe it at their budget check points and record
      {!budget_reason} attempts; a rank already cancelled when a
      worker picks it up is not started.

    Selection is by rank, never by completion order, and backends are
    sound decision procedures, so both executors pick the same cell:
    on the pool every lower-ranked cell ran uncancelled and was
    inconclusive.  With an unconstrained budget the verdict, the
    selected strategy and (for [Inconclusive]) the attempt reasons are
    identical for every executor and job count.  The rungs read the
    phase abstraction, COM and COM,RET,COM from a {!Pipeline.Store}:
    a fresh one per call, or one for all targets in {!verify_all}. *)

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
  Netlist.Net.t ->
  target:string ->
  verdict
(** The ladder on the in-domain executor.
    @raise Invalid_argument on an unknown target name.

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
    each discharge BMC run that certified the selected [Proved]
    verdict, in the order the cell produced them, on the calling
    domain — for [--proof] style dumping.

    Every strategy runs under the {!Obs.span}
    ["engine.<strategy>"], and verdicts bump the
    ["engine.proved"/"engine.violated"/"engine.inconclusive"]
    counters.

    A [budget] governs the whole run (see the executors above for how
    it is shared out; per-call SAT/BDD allowances pass through
    unchanged).  A strategy that runs out records a {!budget_reason}
    attempt — with any bound it managed to compute — and the ladder
    continues; a cell whose share is already gone still records its
    {!budget_reason} attempt, never vanishing from the attempt log.
    Budget exhaustion is never reported as [Proved] or [Violated], and
    additionally bumps ["engine.budget_exhausted"] and
    ["budget.exhausted.engine"] — unless the budget's cancellation
    token is set (on the pool: a lower rank concluded), which is a
    stand-down, not exhaustion. *)

val verify_portfolio :
  ?config:config ->
  ?budget:Obs.Budget.t ->
  ?certify:bool ->
  ?proof_sink:(Sat.Proof.t -> unit) ->
  ?pool:Sched.Pool.t ->
  ?jobs:int ->
  Netlist.Net.t ->
  target:string ->
  verdict
(** {!verify} on the pool executor: on [pool] when given (then [jobs]
    is ignored), else on a fresh pool of [jobs] worker domains; with
    neither, or [jobs <= 1], this {e is} {!verify}. *)

val verify_all :
  ?config:config ->
  ?budget:Obs.Budget.t ->
  ?certify:bool ->
  ?proof_sink:(string -> Sat.Proof.t -> unit) ->
  ?jobs:int ->
  ?targets:string list ->
  ?emit:(string -> verdict -> unit) ->
  Netlist.Net.t ->
  (string * verdict) list
(** {!verify} for each of [targets] (default: all, in order) on one
    {!Pipeline.Store}, each target on a {!Obs.Budget.slice} of the
    deadline left when it starts.  With [jobs > 1] targets run on a
    fresh pool (so not from inside a pool job).  The result,
    [proof_sink] and [emit] follow target order on the calling domain,
    a target's proofs before its verdict, whatever the [jobs].
    @raise Invalid_argument on an unknown target name. *)

(** {1 Cached verification} *)

type cache_status = Cache_hit | Cache_miss

val cache_key :
  ?config:config -> certify:bool -> Netlist.Net.t -> target:string -> string
(** The verdict key ["v:<fp>:<digest>:<certify>"] for this problem:
    {!Netlist.Net.cone_fingerprint} of the target's cone — structural,
    so build order and names outside the cone do not matter — plus a
    digest of [config].  A purge of every entry about one cone matches
    the fingerprint substring.
    @raise Invalid_argument on an unknown target name. *)

val verify_cached :
  ?config:config ->
  ?budget:Obs.Budget.t ->
  ?certify:bool ->
  cache:Bcache.t ->
  Netlist.Net.t ->
  target:string ->
  verdict * cache_status
(** {!verify} in front of a {!Bcache}: a cached conclusive
    verdict for the same cone fingerprint and configuration is
    returned without running anything ([Cache_hit]); otherwise
    {!verify} runs and, when [certify] is on, a conclusive verdict is
    stored back ([Cache_miss]).  Only {e certified} conclusive verdicts ever enter
    the cache — [Inconclusive] outcomes and uncertified runs are never
    cached, so the cache cannot launder an unchecked answer; budget is
    deliberately not part of the key (a certified verdict holds
    however long it took to find).  The verdict-level lookup is what
    the cache's hit/miss counters measure. *)

val pp_verdict : Format.formatter -> verdict -> unit

val verdict_brief : verdict -> string
(** A compact, timing-free rendering — ["PROVED(<strategy>,depth=<d>)"],
    ["VIOLATED(<strategy>,t=<t>)"] or
    ["INCONCLUSIVE(<strategy>=<reason>;...)"] — so two verdicts agree
    modulo wall clock iff their briefs are equal. *)

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
