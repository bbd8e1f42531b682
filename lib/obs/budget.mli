(** Resource governance: wall-clock deadlines and solver/BDD
    allowances threaded through the prover stack.

    A budget is a bundle of optional limits — a wall-clock deadline,
    a per-SAT-call conflict/propagation allowance, and a BDD node
    allowance.  Layers consult it at coarse boundaries (solver restart
    boundaries, BMC depth boundaries, transformation rounds), so the
    hot loops stay clean, and degrade to an explicit
    unknown/exhausted outcome instead of running unbounded.  Budget
    exhaustion is never an escaping exception at an API boundary: the
    solver returns [Unknown], BMC returns [Unknown], the engine
    records a ["budget-exhausted"] attempt and moves on.

    A budget may also carry a {e cancellation token} — a shared
    [bool Atomic.t] — checked at the same boundaries as the deadline.
    The portfolio scheduler uses it to stand down in-flight strategies
    once a conclusive verdict arrives: cancellation looks exactly like
    deadline expiry to the layer being stopped (an [Unknown] outcome,
    never an exception), so no solver or transformation needs a second
    stop mechanism.

    Exhaustion events are counted in {!Stats} under
    ["budget.deadline_expired"] / ["budget.cancelled"] (once per budget
    value) and ["budget.exhausted.<layer>"] (once per stand-down whose
    budget was not cancelled). *)

type t

val unlimited : t
(** No limits at all; every check is a cheap no-op. *)

val create :
  ?timeout_s:float ->
  ?conflicts:int ->
  ?propagations:int ->
  ?bdd_nodes:int ->
  ?cancel:bool Atomic.t ->
  unit ->
  t
(** [timeout_s] is relative to now; the deadline is absolute from the
    moment of creation.  [conflicts]/[propagations] limit each
    individual SAT call (checked at restart boundaries).  [bdd_nodes]
    caps BDD manager allocation (target enlargement).  [cancel], when
    given, makes the budget additionally expire as soon as the atomic
    reads [true]. *)

val is_unlimited : t -> bool

val deadline : t -> float option
(** Absolute wall-clock deadline, if any. *)

val conflicts : t -> int option
val propagations : t -> int option
val bdd_nodes : t -> int option

val with_cancel : t -> bool Atomic.t -> t
(** The same limits with the given cancellation token attached
    (replacing any previous token). *)

val cancelled : t -> bool
(** Has the cancellation token (if any) been set?  Does not consult
    the deadline. *)

val expired : t -> bool
(** Has the deadline passed, or the cancellation token been set?
    Always [false] without either.  The first observation bumps the
    ["budget.deadline_expired"] or ["budget.cancelled"] counter (once
    per budget value, so per-depth polling does not inflate it). *)

val remaining_s : t -> float option
(** Seconds left before the deadline ([Some 0.] once expired). *)

val should_stop : t -> (unit -> bool) option
(** Deadline and/or cancellation token as a polling closure, in the
    shape the (observability-free) SAT solver accepts.  [None] only
    when the budget has neither. *)

val slice : t -> ways:int -> t
(** A per-phase slice: the remaining time divided by [ways], with the
    other allowances — including the cancellation token — carried over
    unchanged.  Slicing an expired or deadline-free budget is harmless
    (still expired / still free).  Used by the engine to give each
    remaining strategy a fair share of the total deadline. *)

val note_exhausted : ?budget:t -> string -> unit
(** Record a budget-driven stand-down in the named layer: bumps
    ["budget.exhausted.<layer>"] — unless [budget], the budget the
    layer ran under, has been cancelled: a run stood down by a lower
    conclusive rank did not run out of its allowance. *)

val pp : Format.formatter -> t -> unit
