(** 64-way bit-parallel random simulation.

    Each vertex carries a 64-bit word, one independent random pattern
    per bit lane.  Used to partition vertices into candidate
    equivalence classes before SAT sweeping (redundancy removal) —
    two vertices whose words ever differ are definitely not equivalent.

    Nondeterministic ([Init_x]) initial values are resolved to random
    words, so equalities observed here are only candidates and must be
    confirmed by a complete method. *)

type state

val create : seed:int -> Net.t -> state
val net : state -> Net.t
val time : state -> int

val step_random : state -> unit
(** Advance one time step feeding fresh pseudo-random input words. *)

val word : state -> Lit.t -> int64
(** Word of a literal after the last step. *)

val signatures : seed:int -> steps:int -> Net.t -> int64 array
(** [signatures ~seed ~steps t] runs [steps] random steps and returns a
    per-vertex signature hashing the vertex's words over time.  Equal
    signatures mark candidate-equivalent vertices; a vertex's negation
    candidate uses the complement-closed variant in
    {!canonical_signature}. *)

val free_words : seed:int -> Net.t -> Lit.t -> int64
(** [free_words ~seed net] evaluates the netlist once with every input,
    register and latch output set to an independent random word: the
    cut points of a combinational SAT frame.  Two literals whose free
    words differ are therefore not combinationally equivalent, which
    refutes a signature candidate without a SAT check.  The returned
    function gives a literal's word. *)

val canonical_signature : int64 -> int64 * bool
(** [canonical_signature s] maps a signature and its complement-lane
    counterpart to a canonical representative, returning the
    representative and whether a complementation was applied.
    Signatures are built so that the signature of [~v] is the bitwise
    complement of the signature of [v]. *)
