(** ISCAS89 [.bench] format reader and writer.

    Supported gate types: [AND], [NAND], [OR], [NOR], [XOR], [XNOR],
    [NOT], [BUFF], [DFF] (all with arbitrary arity where sensible), the
    constants [CONST0]/[CONST1], plus two extensions:

    - [DFF(d, i)] with [i] in [{0, 1, X}] selects the initial value
      (plain [DFF(d)] defaults to 0);
    - [LATCH(d, p)] declares a level-sensitive latch of clock phase
      [p]; the netlist's phase count is the maximum declared phase + 1.

    Every [OUTPUT] is registered both as a netlist output and as a
    verification target (the paper uses each primary output as a
    target for the ISCAS89 experiments). *)

val parse : string -> Netlist.Net.t
(** Runs under the [textio.parse] span, with the text's [bytes] and
    the netlist's [vars] as result attributes.
    @raise Parse_error.Parse_error on malformed input, with the
    1-based line of the offending declaration. *)

val parse_file : string -> Netlist.Net.t
(** @raise Parse_error.Parse_error on malformed input.
    @raise Sys_error if the file cannot be read. *)

val to_string : Netlist.Net.t -> string
val write_file : string -> Netlist.Net.t -> unit
