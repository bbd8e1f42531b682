(** Warn-and-continue file output for auxiliary CLI artifacts.

    Waveform dumps, generated netlists and stats snapshots are
    by-products: an unwritable path must not turn an otherwise
    successful run into a crash (the same contract {!Report.emit}
    already honours for [--stats-json]). *)

val write_or_warn : what:string -> string -> string -> bool
(** [write_or_warn ~what path text] writes [text] to [path].  On
    [Sys_error] (unwritable directory, permission denied, ...) a
    one-line warning naming [what] goes to stderr and the result is
    [false]; no exception escapes. *)
