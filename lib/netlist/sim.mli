(** Three-valued netlist simulation (the semantic traces of
    Definition 2, with X modelling unresolved nondeterministic initial
    values).

    Level-sensitive latches are simulated against an implicit c-phase
    clock: the latch of phase [q] is transparent at times [t] with
    [t mod phases = q] and holds its last sampled value otherwise.
    Evaluation relaxes to a fixpoint within each time step, so chains of
    transparent latches settle correctly. *)

type value = V0 | V1 | Vx

val v_not : value -> value
val v_and : value -> value -> value
val value_of_bool : bool -> value

type state

val create : Net.t -> state
(** Fresh simulation at time 0; state elements hold their initial
    values ([Vx] for [Init_x]). *)

val create_resolved : seed:int -> Net.t -> state
(** Like {!create} but [Init_x] initial values are resolved to
    deterministic pseudo-random booleans derived from [seed]. *)

val create_with : init:(int -> value) -> Net.t -> state
(** Like {!create} but each [Init_x] state element [v] starts at
    [init v] (counterexample replay). *)

val time : state -> int
val value : state -> Lit.t -> value
(** Value of a literal at the current time (after the last {!step}). *)

val step : state -> (int -> value) -> unit
(** [step s input] advances one time step; [input v] supplies the value
    of input variable [v] for this step.  Raises [Failure] if latch
    evaluation fails to reach a fixpoint (combinational cycle through
    transparent latches). *)

val step_bools : state -> bool list -> unit
(** Convenience: inputs supplied positionally, in input creation
    order.  Missing inputs read as [V0]. *)

val run : Net.t -> bool list list -> Lit.t -> value list
(** [run t vectors l] simulates from the initial state through
    [vectors] (one per step) and returns the value of [l] at each
    step. *)
