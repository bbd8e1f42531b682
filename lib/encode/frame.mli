(** Single combinational time-frame of a netlist encoded into a SAT
    solver (Tseitin encoding of the AND graph).

    Inputs and state-element outputs become free solver variables;
    ANDs get defining clauses.  Used for combinational equivalence
    queries (SAT sweeping) where state elements are cut points, and
    chained ({!chain}) for paths from a free initial state. *)

type t

val create : Backend.solver -> Netlist.Net.t -> t
(** Lazily encodes on demand; creating is cheap. *)

val solver : t -> Backend.solver

val lit : t -> Netlist.Lit.t -> Backend.lit
(** Solver literal for a netlist literal, encoding its combinational
    cone (down to inputs/state elements) on first use. *)

val merge : t -> int -> Netlist.Lit.t -> unit
(** [merge t v l] records that AND vertex [v] equals [l] in every
    valuation of the cut points, which the caller has proven in this
    frame's solver.  From then on [v] reads as [l]'s solver literal,
    and ANDs encoded later are built over their fanins' merged
    literals.  Every AND is folded and structurally hashed on its
    solver-literal pair, so a chain of equivalent gates encodes to a
    linear number of clauses; in a frame that never merges the
    netlist is already hashed, and every AND is a fresh variable with
    its three clauses.
    @raise Invalid_argument if [v] is not an AND. *)

val state_var : t -> int -> Backend.lit
(** Solver literal (positive) for the current-state output of a
    register/latch variable. *)

val chain : Backend.solver -> Netlist.Net.t -> int -> t array
(** [chain solver net k]: frames [0 .. k] with every register's
    state in frame [i + 1] tied to its next-state function in frame
    [i] — a path of [k] steps from a {e free} (not initial) state. *)

val distinct :
  Backend.solver -> ('a -> Backend.lit) -> ('a -> Backend.lit) -> 'a list ->
  unit
(** [distinct solver a b xs] asserts [a x <> b x] for at least one [x]
    in [xs]: one fresh difference variable per [x], allocated right
    after [a x] and then [b x] are evaluated, and one clause over all
    of them. *)
