(** The differential oracle matrix.

    One design/target is run through several engine configurations
    that must be observationally equivalent — sequential ladder,
    ladder with SAT inprocessing disabled, the parallel portfolio —
    plus an already-expired budget cell that must {e never} conclude.
    Certification is on everywhere.  Any verdict disagreement,
    certification failure, budget-accounting violation or crash is a
    {!finding}; a healthy build reports none, and a seeded
    {!Sat.Chaos} fault must surface as at least one. *)

type kind =
  | Disagreement of {
      cell_a : string;
      verdict_a : string;
      cell_b : string;
      verdict_b : string;
    }  (** two cells reached different verdicts (timing excluded) *)
  | Cert_failure of { cell : string; detail : string }
      (** a cell recorded a {!Core.Engine.cert_fail_reason} attempt *)
  | Budget_violation of { cell : string; verdict : string }
      (** the expired-budget cell concluded [Proved]/[Violated] *)
  | Crash of { cell : string; detail : string }
      (** a cell raised; the exception, printed *)

type finding = { target : string; kind : kind }

val schema : string list
val kind_name : kind -> string
val pp_finding : Format.formatter -> finding -> unit

val config : Core.Engine.config
(** The campaign ladder config: limits sized so every fuzz species
    concludes, making any disagreement a bug rather than a tuning
    artifact. *)

type cell = {
  cell : string;  (** "ladder" | "ladder-noinproc" | "portfolio" | "expired-budget" *)
  outcome : (Core.Engine.verdict, string) result;
}

val cells_of_kind : kind -> string list
(** The cell names whose re-evaluation can reproduce a finding of
    this kind — what a shrinker's keep predicate needs to re-run. *)

val run_cells :
  ?jobs:int ->
  ?only:string list ->
  ?mk_budget:(unit -> Obs.Budget.t) ->
  Netlist.Net.t ->
  target:string ->
  cell list
(** Evaluate the matrix cells without checking them.  [only] restricts
    to the named subset (e.g. {!cells_of_kind} during shrinking);
    [mk_budget] mints a fresh per-eval allowance for the live cells
    (never for ["expired-budget"], whose budget is the experiment) —
    a conflicts-only budget keeps repeated evaluation deterministic
    {e and} bounded even when an injected fault makes every strategy
    run to its limits. *)

val check : target:string -> cell list -> finding list
(** Check evaluated cells: crashes, budget violations, certification
    failures and pairwise disagreement, deduplicated to one finding
    per kind. *)

val run :
  ?jobs:int ->
  ?mk_budget:(unit -> Obs.Budget.t) ->
  Netlist.Net.t ->
  target:string ->
  finding list * cell list
(** Run the full matrix on one target ([jobs], default 2, sizes the
    portfolio cell) and check it: findings in deterministic (cell
    declaration) order, plus every cell's outcome for reporting. *)
