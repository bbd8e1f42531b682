(** Cone-of-influence computation.

    The (sequential) cone of influence of a vertex set is the least set
    of vertices containing it and closed under fanin edges, including
    the next-state edges of registers and the data edges of latches. *)

val of_lits : Net.t -> Lit.t list -> bool array
(** [of_lits t roots] marks every vertex in the sequential cone of
    influence of [roots]. *)

val combinational : Net.t -> Lit.t list -> bool array
(** Like {!of_lits} but stopping at state elements: their next-state
    cones are not entered.  Inputs, ANDs and the state elements feeding
    the roots combinationally are marked. *)

val regs_in : Net.t -> bool array -> int list
(** Register variables marked in a cone, in creation order. *)

val size : bool array -> int
