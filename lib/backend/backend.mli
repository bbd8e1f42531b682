(** Pluggable solver backends.

    Everything above the raw CDCL solver — the unroller, BMC, the
    engine ladder — talks to a {e backend solver}: a first-class value
    satisfying the {!SOLVER} contract (create / new_var / add_clause /
    three-valued solve under assumptions / model access / proof hook /
    stats snapshot / cooperative cancellation).  Three backends ship:

    - {b reference}: the in-tree CDCL solver ({!Sat.Solver}), wrapped
      one-to-one.  Proof-capable; the only backend whose [Unknown]s
      are purely budget-driven.
    - {b bdd}: an exact oracle for small cones.  Clauses are conjoined
      into a node-count-limited BDD ({!Bdd.man}); a false BDD is
      [Unsat], anything else is [Sat] with a model read off one true
      path.  Crossing the node allowance degrades to
      [Unknown "bdd-node-limit:..."] — the oracle never guesses.
    - {b ext}: a DIMACS round-trip to an external solver command
      ([DIAMBOUND_EXT_SOLVER]), CNF written via {!Sat.Dimacs},
      model / DRUP parsed back.  A missing binary, crash, or
      unparseable answer degrades to a structured
      ["backend-unavailable: ..."] [Unknown] — never an exception.

    Literals use the {!Sat.Solver} convention throughout (variable [v]
    gives positive literal [2 * v], negative [2 * v + 1]), so encoders
    are backend-agnostic.

    {b Determinism invariant}: a backend's conclusive answers are a
    function of the clause set and assumptions alone.  [Sat]/[Unsat]
    must agree across backends (each is a sound decision procedure);
    only {e whether} a backend concludes (vs [Unknown]) may differ.
    This is what lets the engine race (strategy × backend) cells and
    still select verdicts by rank, byte-identically for every job
    count. *)

type lit = Sat.Solver.lit

type result = Sat | Unsat | Unknown of string
(** Three-valued answer.  The [Unknown] payload is a structured
    stand-down reason: {!budget_reason} for an exhausted or cancelled
    allowance, ["bdd-node-limit:<n>"] for a BDD blow-up,
    ["backend-unavailable: <detail>"] when a backend cannot run at
    all. *)

val budget_reason : string
(** ["budget-exhausted"] — same distinguished string the engine uses
    for budget-driven attempts. *)

val node_limit_reason : int -> string

val is_node_limit : string -> bool

val unavailable : string -> string
(** [unavailable detail] is ["backend-unavailable: " ^ detail]. *)

val is_unavailable : string -> bool

(** Lifetime statistics snapshot.  Backends without a notion of a
    counter report 0 for it ({!zero_stats} fields); the reference
    backend maps every counter one-to-one from {!Sat.Solver}. *)
type stats = {
  vars : int;
  clauses : int;
  learnts : int;
  trail : int;  (** meaningful mid-solve, from a [should_stop] poll *)
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  reduce_dbs : int;
  simplifies : int;
  subsumed : int;
  strengthened : int;
  eliminated : int;
  probed_units : int;
}

val zero_stats : stats

type solver
(** One live solver instance of some backend. *)

(** The backend contract, as a first-class module: what a solver
    instance must provide to sit behind the unroller and the engine.
    The shipped backends are constructed directly. *)
module type SOLVER = sig
  val name : string

  val new_var : unit -> int

  val add_clause : lit list -> unit

  val solve :
    ?assumptions:lit list ->
    ?max_conflicts:int ->
    ?max_propagations:int ->
    ?max_nodes:int ->
    ?should_stop:(unit -> bool) ->
    unit ->
    result
  (** Solve the current clause set under the assumptions.  Allowances
      the backend has no notion of are ignored; a backend honours
      [should_stop] cooperatively (and {!interrupt}) by returning
      [Unknown budget_reason].  Conclusive answers are never wrong:
      resource pressure degrades to [Unknown]. *)

  val value : lit -> bool
  (** Model value after a [Sat] answer.
      @raise Invalid_argument when the last solve was not [Sat]. *)

  val set_proof : Sat.Proof.t -> unit
  (** Proof hook: route the clausal derivation into a DRUP log.
      Attach before adding clauses.  Backends with [proof_capable =
      false] accept the call but record nothing — their [Unsat]
      answers then fail DRUP certification and are conservatively
      withheld by certifying callers. *)

  val proof_capable : bool

  val stats : unit -> stats
  (** Stats snapshot hook — the only way the observability layer reads
      solver counters, so every backend feeds the same [sat.*]
      telemetry. *)

  val set_simplify_wrapper : ((unit -> unit) -> unit) -> unit
  (** Wrap inprocessing passes (no-op for backends that have none). *)

  val interrupt : unit -> unit
  (** Budget-cancellation hook: request that the current / next
      [solve] stand down with [Unknown budget_reason] at its next
      check point. *)
end

(** {1 Literal helpers} (re-exported from {!Sat.Solver}) *)

val pos : int -> lit
val neg_of : int -> lit
val negate : lit -> lit
val var_of : lit -> int
val is_pos : lit -> bool

(** {1 Instance operations} — thin wrappers over the packed module,
    argument order mirroring {!Sat.Solver} so call sites read the
    same. *)

val name : solver -> string
val new_var : solver -> int
val add_clause : solver -> lit list -> unit

val solve :
  ?assumptions:lit list ->
  ?max_conflicts:int ->
  ?max_propagations:int ->
  ?max_nodes:int ->
  ?should_stop:(unit -> bool) ->
  solver ->
  result

val value : solver -> lit -> bool
val set_proof : solver -> Sat.Proof.t -> unit
val proof_capable : solver -> bool
val stats : solver -> stats
val set_simplify_wrapper : solver -> ((unit -> unit) -> unit) -> unit
val interrupt : solver -> unit

val num_conflicts : solver -> int
val num_propagations : solver -> int
val num_vars : solver -> int
val num_clauses : solver -> int

(** {1 Backend descriptors} *)

type t = {
  b_name : string;  (** short name: "reference", "bdd", "ext" *)
  b_id : string;
      (** identity string folded into cache digests — name plus any
          per-instance configuration that can change answers or
          reasons *)
  b_inprocess : bool option;
      (** the instance-level inprocessing choice this descriptor
          creates solvers with (reference backend only); exposed so
          engine transformations pinned to the CDCL solver can honour
          the same choice *)
  b_create : unit -> solver;
}

val reference : ?inprocess:bool -> unit -> t
(** The CDCL solver as a backend.  [inprocess] is per-backend-instance
    configuration: every solver this descriptor creates is fixed at
    creation ({!Sat.Solver.create}), so concurrent runs with different
    choices never race on a global toggle. *)

val bdd_oracle : ?max_nodes:int -> unit -> t
(** [max_nodes] caps every solve's BDD manager (default: the
    [DIAMBOUND_BDD_NODES] environment variable, else 200000).  A
    tighter per-call allowance ({!solve}'s [max_nodes], fed from the
    budget's BDD-node allowance) wins when smaller. *)

val external_solver : ?cmd:string -> unit -> t
(** [cmd] is a shell command invoked as [cmd CNF PROOF] (default: the
    [DIAMBOUND_EXT_SOLVER] environment variable, resolved per solve).
    Expected output: a SAT-competition status line
    (["s SATISFIABLE"] / ["s UNSATISFIABLE"], or bare
    [SAT]/[UNSAT]/[SATISFIABLE]/[UNSATISFIABLE]) with ["v "]-style
    model lines, DRUP text written to [PROOF].  [diam sat] speaks
    exactly this protocol. *)

val is_reference : t -> bool
val instantiate : t -> solver

val create : ?inprocess:bool -> unit -> solver
(** [instantiate (reference ?inprocess ())] — drop-in for call sites
    that used [Sat.Solver.create]. *)

(** {1 Backend selection} *)

type spec = Single of t | Race of t list
(** What a run solves with: one backend, or a deterministic race over
    several (the engine crosses every ladder strategy with every
    backend in the list; list order is the rank tiebreak). *)

val backends : spec -> t list
val spec_id : spec -> string

val of_name : string -> (t, string) Stdlib.result
(** ["reference"]/["cdcl"], ["bdd"]/["bdd-oracle"],
    ["ext"]/["external"]/["dimacs"]. *)

val race_pool : unit -> t list
(** The backends a ["race"] spec enlists: reference and the BDD
    oracle, plus the external backend when [DIAMBOUND_EXT_SOLVER] is
    set (an unset command would only add structured-unavailable
    noise). *)

val spec_of_string : string -> (spec, string) Stdlib.result
(** {!of_name} names as [Single]; ["race"] as [Race (race_pool ())]. *)

val set_default : spec -> unit
(** Process default, consulted by {!default}.  The CLI tools set it
    from [--backend] / [DIAMBOUND_BACKEND] before any solving. *)

val default : unit -> spec
(** The process default: the last {!set_default}, else
    [DIAMBOUND_BACKEND] (a bad value falls back to the reference
    backend), else [Single (reference ())]. *)

val solver_of : t option -> solver
(** [solver_of (Some b)] is [instantiate b]; [solver_of None] is a
    solver from the first backend of {!default} — what plain
    [Bmc.check] and friends use when no backend is passed
    explicitly. *)
