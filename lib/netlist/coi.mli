(** Cone-of-influence computation.

    The (sequential) cone of influence of a vertex set is the least set
    of vertices containing it and closed under fanin edges, including
    the next-state edges of registers and the data edges of latches. *)

val of_lits : Net.t -> Lit.t list -> bool array
(** [of_lits t roots] marks every vertex in the sequential cone of
    influence of [roots].  One stamped {!walk} on a walker of its own,
    so it is safe on arbitrarily deep netlists, as is {!combinational}. *)

val combinational : Net.t -> Lit.t list -> bool array
(** Like {!of_lits} but stopping at state elements: their next-state
    cones are not entered.  Inputs, ANDs and the state elements feeding
    the roots combinationally are marked. *)

val regs_in : Net.t -> bool array -> int list
(** Register variables marked in a cone, in creation order. *)

val size : bool array -> int

(** {2 Stamped walks}

    A walker owns one visited array for a netlist; each walk tells its
    vertices apart by a fresh stamp, so a walk costs what its cone
    costs.  Walks keep their pending vertices on an explicit stack and
    are safe on arbitrarily deep netlists. *)

type walker

val walker : Net.t -> walker
(** One [num_vars] allocation, shared by every walk of the walker.
    Walks cover the netlist as it was when the walker was made. *)

type cone
(** The result of one walk.  Its marks stay readable until the walker
    walks again. *)

val walk : walker -> through_state:bool -> Lit.t list -> cone
(** [walk w ~through_state roots] marks the cone of [roots]: the
    sequential cone ({!of_lits}) when [through_state], else the
    combinational cone ({!combinational}). *)

val mem : cone -> int -> bool
(** Whether a vertex is in the cone.
    @raise Invalid_argument if the walker has walked since. *)

val leaves : cone -> int list
(** The inputs and state elements the roots reach without crossing a
    state element: the leaves of their combinational cone.  No
    particular order. *)

val state_elems : cone -> int list
(** Every register and latch in the cone.  No particular order. *)
