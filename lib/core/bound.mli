(** Per-target structural diameter bounding: the overapproximation
    engine of [7] with the Definition-3 refinements described in the
    paper's introduction.

    Special cases applied before the compositional bound:
    - a target whose cone of influence contains no state element is
      combinational: diameter 1;
    - a target that is (an input, or) an XOR of a fresh primary input
      with anything is input-controlled: any valuation is producible
      at any time, so its diameter is 1 regardless of the rest of its
      cone (the paper's XOR example after Definition 3);
    - a target on a {e free register chain} — registers with
      nondeterministic initial values fed exclusively by further free
      state or a dedicated input — is trace-equivalent to a primary
      input and has diameter 1 (the paper's i0 -> r1 -> r2 example:
      d(r2) = 1 even though d(r1, r2) = 2). *)

type t = {
  bound : Sat_bound.t;
  analysis : Classify.analysis;  (** restricted to the target's cone *)
  coi_regs : int;  (** state elements in the cone *)
}

val target : Netlist.Net.t -> Netlist.Lit.t -> t
val target_named : Netlist.Net.t -> string -> t
(** @raise Invalid_argument on an unknown target name. *)

val all_targets : Netlist.Net.t -> Classify.analysis * (string * t) list
(** Every target's bound from one whole-netlist classification, which
    is returned alongside (each [t.analysis] is that same value). *)

val input_controlled : Netlist.Net.t -> Netlist.Lit.t -> bool
