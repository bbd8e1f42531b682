(** Corpus runner: walk a directory tree of [.bench]/[.aag] problems
    and verify every one under a per-problem budget and a per-problem
    exception barrier — a malformed file, a crashing strategy or an
    expired budget is a tallied outcome, never an aborted walk. *)

type outcome =
  | Proved  (** every target proved (vacuously, for no targets) *)
  | Violated  (** at least one target has a counterexample *)
  | Timeout  (** no violation; some target's budget ran out *)
  | Inconclusive  (** no violation/timeout; some target inconclusive *)
  | Malformed of { line : int option; msg : string }
      (** parse or I/O error; [line] when the parser reported one *)
  | Crashed of string  (** escaped exception, printed *)

type item = {
  path : string;
  targets : int;
  outcome : outcome;
}

type summary = {
  items : item list;  (** in walk (sorted-path) order *)
  proved : int;
  violated : int;
  timeout : int;
  inconclusive : int;
  malformed : int;
  crashed : int;
}

val schema : string list
(** The ["corpus.*"] tally counters, declared so they appear as zeroes
    in every stats snapshot. *)

val outcome_name : outcome -> string
val pp_outcome : Format.formatter -> outcome -> unit

val walk : string -> string list
(** Recursively collect [.bench]/[.aag] paths under a root, visiting
    each directory's entries in sorted order — the walk order (and so
    the report) is deterministic. *)

val run :
  ?jobs:int ->
  ?config:Core.Engine.config ->
  ?mk_budget:(unit -> Obs.Budget.t) ->
  ?certify:bool ->
  string list ->
  summary
(** Run every path through {!Core.Engine.verify_all}; [mk_budget] is
    called once {e per problem} (fresh deadline each), [jobs > 1]
    distributes problems across a {!Sched.Pool}.  Item order always
    matches input order. *)

val exit_code : summary -> int
(** The extended contract: [1] when any problem violated, was
    malformed or crashed (a finding); else [3] when any timed out or
    was inconclusive; else [0]. *)
