(** Reduced ordered binary decision diagrams with hash-consed nodes
    and memoized operations.

    Variables are non-negative integers; the variable order is the
    integer order (smaller index nearer the root).  Used as the
    symbolic substrate of target enlargement (preimage computation
    with input quantification, Section 3.4 of the paper). *)

type man
(** A manager owning the node table and operation caches. *)

type t
(** A BDD handle, valid for the manager that created it. *)

exception Node_limit of int
(** Raised (with the current node count) by any operation needing a
    fresh node once a manager's [max_nodes] allowance is reached.  The
    manager stays usable — existing handles remain valid — but callers
    are expected to stand down from the symbolic computation. *)

val man : ?max_nodes:int -> unit -> man
(** [max_nodes] bounds the total nodes the manager may ever allocate;
    crossing it raises {!Node_limit} at the allocation site. *)

val bfalse : t
val btrue : t
val is_false : t -> bool
val is_true : t -> bool
val equal : t -> t -> bool

val var : man -> int -> t
(** The function of a single positive variable. *)

val nvar : man -> int -> t
val bnot : man -> t -> t
val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t
val biff : man -> t -> t -> t
val ite : man -> t -> t -> t -> t
val bor_list : man -> t list -> t

val exists : man -> int list -> t -> t
(** Existential quantification over a set of variables. *)

val forall : man -> int list -> t -> t

val compose : man -> (int -> t option) -> t -> t
(** Simultaneous substitution: replace each variable [v] for which the
    function returns [Some g] by [g].  Substituted functions must only
    mention variables no earlier in the order than necessary for
    termination; the implementation uses full Shannon expansion and so
    is correct for arbitrary substitutions. *)

val view : man -> t -> [ `False | `True | `Node of int * t * t ]
(** Structure of a node: [`Node (v, low, high)]. *)

val eval : man -> (int -> bool) -> t -> bool
val support : man -> t -> int list
(** Variables the function depends on, ascending. *)

val size : man -> t -> int
(** Number of distinct internal nodes reachable from a handle. *)

val sat_count : man -> nvars:int -> t -> float
(** Number of satisfying assignments over a space of [nvars]
    variables (all variables in the support must be [< nvars]). *)

val any_sat : man -> t -> (int * bool) list
(** A satisfying partial assignment of a non-false BDD, as
    (variable, value) pairs along one true path.
    @raise Invalid_argument on the false BDD. *)

val node_count : man -> int
(** Total nodes allocated in the manager (diagnostics). *)
