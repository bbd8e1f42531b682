(** Localization / cut-point insertion (the paper's Section 3.5):
    replace chosen vertices by fresh primary inputs.

    This is an OVERapproximate abstraction: target-unreachable results
    transfer to the original netlist, but diameter bounds do not —
    unreachable states may become reachable (possibly increasing the
    diameter) and unreachable transitions may become reachable
    (possibly decreasing it).  The library exposes it to demonstrate
    (and property-test) that negative result; it must not feed the
    bound translators. *)

val run : Netlist.Net.t -> cut:int list -> Rebuild.result
(** [run net ~cut] replaces each vertex in [cut] by a fresh input. *)
