(** Component classification of the structural diameter bounding
    technique ([7], summarized in Section 4 of the paper).

    The registers of (a cone of) a netlist are partitioned into
    strongly connected components of the register dependency graph and
    each component is classified:

    - [CC] — constant components: registers provably stuck at a binary
      constant (ternary fixpoint under unknown inputs); they do not
      affect the diameter.
    - [AC] — acyclic components: registers on no sequential cycle;
      each pipeline stage increments the diameter by one, regardless
      of width.
    - [MC]/[QC] — memory/queue components: clusters of hold-mux cells
      (next state a multiplexer between held value and new data) with
      [m] atomically-updated rows; they multiply the diameter by
      [m + 1] regardless of row width.  Queues are memory clusters
      whose cells form a data chain.
    - [GC] — general components: everything else; their diameter is
      assumed exponential in their register count (the paper's
      experiments do the same "for speed"). *)

type cls =
  | CC
  | AC
  | MC of int  (** rows *)
  | QC of int  (** depth *)
  | GC of int  (** registers *)

type component = {
  regs : int list;  (** member register variables *)
  cls : cls;
  deps : int list;  (** indices of components this one reads *)
}

type analysis = {
  components : component array;
      (** memory clustering may reorder components; consumers must
          follow [deps] rather than array order (see {!Compose}) *)
  of_reg : (int, int) Hashtbl.t;  (** register variable -> component index *)
  cell_key : (int, int) Hashtbl.t;
      (** memory/queue cell -> canonical select key, letting a bound
          computation count only the rows inside a target's cone *)
}

type counts = { cc : int; ac : int; table : int; gc : int }
(** Register population per class; [table] counts MC and QC cells
    ("table cells" in the paper's terminology). *)

val analyze : ?within:(int -> bool) -> Netlist.Net.t -> analysis
(** Classify the registers of [net], restricted to the vertices in
    [within] (default: the whole netlist), e.g. [Coi.mem] of a
    target's cone. *)

val counts_of : analysis -> counts
val netlist_counts : Netlist.Net.t -> counts
(** Classification of all registers, as reported per design in
    Tables 1 and 2. *)

val pp_counts : Format.formatter -> counts -> unit
val constant_regs : Netlist.Net.t -> (int -> bool) -> (int, bool) Hashtbl.t
(** Ternary-fixpoint constant detection: register variable -> stuck
    value, for registers within the cone. *)
