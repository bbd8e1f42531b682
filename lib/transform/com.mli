(** Redundancy removal (the paper's COM engine, after [14, 15, 27]).

    Semantically equivalent vertices are identified and merged, which
    preserves trace equivalence of every remaining vertex (Theorem 1),
    so diameter bounds computed after COM transfer to the original
    netlist unchanged.

    The engine iterates to fixpoint:
    - cone-of-influence restriction and re-strashing (constant
      propagation, structural AND merging);
    - structural sequential merging: registers with identical
      next-state literal and identical constant initial value;
      registers provably stuck at a constant;
    - SAT sweeping, FRAIG style: candidate equivalences of
      combinational vertices are proposed by bit-parallel random
      simulation from the initial state, each class represented by
      its lowest literal.  A SAT check over all input/state valuations
      confirms a candidate (state elements are cut points, so
      confirmed merges are sound in any state).  Before any check,
      one free-state simulation word per vertex ({!Netlist.Bsim.free_words}:
      inputs, registers and latches all random, as the check's cut
      points) refutes every candidate whose word differs from its
      representative's.  The rest are checked in vertex order in one
      frame, and each proven member is merged there
      ({!Encode.Frame.merge}), so later vertices are encoded over
      their fanins' representatives and structurally hashed: a chain
      of equivalent gates costs linear, not quadratic, work.

    Registers with nondeterministic ([Init_x]) initial values are
    never merged with each other: two such registers disagree at time
    0 in some trace even when their next-state cones coincide. *)

type stats = {
  rounds : int;
  const_regs : int;  (** registers replaced by constants *)
  merged_regs : int;
  merged_ands : int;  (** SAT-confirmed combinational merges *)
  sat_checks : int;
      (** candidate equivalences that reached the SAT solver (one or
          two solves each), in every round; candidates refuted by
          simulation or equal by construction in the frame are not
          counted.  Also added to the [com.sat_checks] counter;
          candidates refuted by their free-state word are added to
          the [com.sim_refuted] counter. *)
}

val run :
  ?seed:int ->
  ?sim_steps:int ->
  ?max_rounds:int ->
  ?budget:Obs.Budget.t ->
  ?inprocess:bool ->
  Netlist.Net.t ->
  Rebuild.result * stats
(** The result's [map] translates every original vertex that survived
    into the reduced netlist (Theorem 1's bijection on the mapped
    sets).

    A [budget] degrades gracefully: SAT equivalence checks get the
    budget's conflict/propagation allowances and deadline, a candidate
    whose check comes back unknown is simply not merged (dropping a
    merge never affects soundness), and an expired deadline stops the
    round loop early — the netlist reduced so far is returned. *)
