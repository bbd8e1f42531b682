(** Compositional diameter bound over the component partition ([7]).

    The components in the target's sequential cone of influence are
    levelized over the dependency DAG (a component's level is one more
    than the maximum level of the components it reads; constant
    components shield their upstream cones and are dropped).  The
    bound folds levels bottom-up from the combinational diameter 1:

    - acyclic components at a level add one time step, regardless of
      how many run in parallel (a pipeline stage of arbitrary width);
    - memory/queue components multiply by (rows + 1);
    - general components multiply by 2^registers (assumed exponential,
      as in the paper's experiments);
    - {b parallel} sequential components at the same level combine
      multiplicatively: the joint state space of independent machines
      is their product, and witnessing a joint valuation may require
      synchronizing them (e.g. two free-running rings of coprime
      lengths need up to lcm steps, which max-composition would
      unsoundly undercut).

    The per-level effect is [d' = (d + ac) * product(factors)]. *)

val effect : Classify.cls -> Sat_bound.t -> Sat_bound.t
(** The single-component effect (series composition). *)

val bound_for :
  Netlist.Net.t ->
  Classify.analysis ->
  seq_cone:bool array ->
  Netlist.Lit.t ->
  Sat_bound.t
(** Diameter bound of a single vertex (target) by levelized
    composition of the components its sequential cone reaches;
    [seq_cone] is that cone, [Coi.of_lits net [target]]. *)
