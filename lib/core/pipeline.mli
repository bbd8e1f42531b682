(** Transformation pipelines: the experiment driver of Section 4.

    Each pipeline transforms a netlist, runs the structural diameter
    bounding engine on the result, and translates every per-target
    bound back to the original netlist through the Theorem-1/2/3
    translators.  The three pipelines of Tables 1 and 2 are provided
    ([original], [com], [com_ret_com]), plus the phase-abstraction
    front-end used for the GP (Table 2) designs. *)

type target_report = {
  target : string;
  raw_bound : Sat_bound.t;  (** on the transformed netlist *)
  bound : Sat_bound.t;  (** translated back to the input netlist *)
  translator : Translate.t;
}

type report = {
  pipeline : string;
  reg_counts : Classify.counts;  (** on the transformed netlist *)
  targets : target_report list;
  final : Netlist.Net.t;
}

(** The transformation work of one netlist, each piece computed at
    most once, under a lock, from any domain: the phase front, the COM
    netlist (keyed by [inprocess]; COM,RET,COM retimes it) and the
    three reports.  A result whose [budget] ran out while it was
    computed is returned but not stored.  A store assumes one per-call
    SAT allowance for all its callers. *)
module Store : sig
  type t

  val create : Netlist.Net.t -> t
  val net : t -> Netlist.Net.t

  val register_view : t -> t * Translate.t
  (** For a latch-based netlist, the store of its phase abstraction
      and the Theorem-3 translator; else [(t, identity)]. *)

  val original : t -> report
  val com : ?budget:Obs.Budget.t -> ?inprocess:bool -> t -> report
  val com_ret_com : ?budget:Obs.Budget.t -> ?inprocess:bool -> t -> report
end

(** The pipelines, each on a fresh {!Store}. *)

val original : Netlist.Net.t -> report
val com : ?budget:Obs.Budget.t -> ?inprocess:bool -> Netlist.Net.t -> report

val com_ret_com : ?budget:Obs.Budget.t -> ?inprocess:bool -> Netlist.Net.t -> report
(** COM; RET; COM, with per-target Theorem-2 skews.  The [budget] is
    threaded into the COM sweeps (see {!Transform.Com.run}); the
    structural passes always run to completion. *)

val phase_front : Netlist.Net.t -> Netlist.Net.t * Translate.t
(** Phase abstraction front-end for latch-based designs; the returned
    translator multiplies bounds by the folding factor (Theorem 3). *)

type summary = {
  proved_small : int;  (** |T'|: targets with a bound below the cutoff *)
  total : int;  (** |T| *)
  average : float;  (** average translated bound over T' (0 if empty) *)
}

val summarize : cutoff:int -> report -> summary
