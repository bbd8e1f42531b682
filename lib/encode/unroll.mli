(** Time-frame expansion (unrolling) of a netlist into a SAT solver.

    The value of vertex [v] at time [t] is represented by a solver
    literal; register outputs at time [t > 0] alias the literal of
    their next-state cone at [t - 1], registers at time 0 alias their
    initial value (a forced constant, or a fresh variable for
    [Init_x]).  Level-sensitive latches follow the implicit c-phase
    clock exactly as in {!Netlist.Sim}. *)

type t

val create : Backend.solver -> Netlist.Net.t -> t
val solver : t -> Backend.solver
val net : t -> Netlist.Net.t

val lit_at : t -> Netlist.Lit.t -> int -> Backend.lit
(** [lit_at u l t] is the solver literal for netlist literal [l] at
    time [t >= 0], encoding cones on demand. *)

val false_lit : t -> Backend.lit
(** A solver literal constrained to false. *)

val value_at : t -> Netlist.Lit.t -> int -> bool
(** Value in the model of the last satisfiable solve. *)

val init_x_assignments : t -> (int * bool) list
(** Values chosen for the nondeterministic initial values in the model
    of the last satisfiable solve, as (state variable, value) pairs,
    sorted by state variable. *)

val input_frames : t -> upto:int -> (int * int * Backend.lit) list
(** All encoded (input variable, time, literal) triples with
    [time <= upto] — for counterexample extraction.  Sorted by
    (time, variable), so extracted counterexamples are deterministic
    across runs. *)

