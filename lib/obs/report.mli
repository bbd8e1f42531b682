(** Rendering of {!Stats} snapshots: a human-readable table and a
    stable, machine-readable JSON form.

    The JSON schema is
    {v
    { "counters": { "<name>": <int>, ... },
      "spans":    { "<name>": { "calls": <int>,
                                "total_s": <number>,
                                "max_s": <number> }, ... } }
    v}
    with keys emitted in sorted order, so diffs between runs are
    meaningful. *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Compact rendering with sorted-as-given keys and round-trippable
    floats.  Non-finite floats (nan, infinities) have no JSON literal
    and are emitted as [null] ({!Trace.read_file} reads it back as
    [nan]), so a snapshot containing one is still valid JSON. *)

val parse : string -> json
(** @raise Failure on malformed input. *)

(** {1 Snapshots} *)

val json_of_snapshot : Stats.snapshot -> json
(** The schema above. *)

val pp_human : Format.formatter -> Stats.snapshot -> unit
(** Two aligned tables: counters, then spans with call counts and
    total/max wall-clock time. *)

val write_file : string -> Stats.snapshot -> unit
(** Write the JSON rendering (with a trailing newline). *)

val emit :
  ?ppf:Format.formatter ->
  ?human:bool ->
  ?json_file:string ->
  unit ->
  unit
(** CLI convenience: snapshot the global registry once, print the
    human table to [ppf] (default stdout) when [human], and write the
    JSON snapshot to [json_file] when given.  An unwritable
    [json_file] prints a warning to stderr instead of raising —
    telemetry must not turn a successful run into a failure.
    [diam serve] passes [Format.err_formatter]: its stdout is a
    JSONL protocol stream and must carry nothing else. *)
