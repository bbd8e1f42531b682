(** A byte-budgeted LRU cache for verification results.

    Keys are opaque strings — in practice canonical fingerprints
    ({!Netlist.Net.cone_fingerprint}) combined with a digest of the
    engine configuration, so structurally equal problems share entries
    no matter how their netlists were built.  Values are certified
    conclusive verdicts.  Anything uncertified or inconclusive is
    deliberately uncacheable — a cache must never launder a result
    whose provenance was not checked (see DESIGN.md §8 for the
    coherence invariants the serve layer's chaos drill enforces on
    top).

    The cache is mutex-protected (serve workers on several domains hit
    it concurrently) and instrumented: [<prefix>.hits], [.misses],
    [.insertions], [.evictions], [.purged] counters plus [.entries]
    and [.bytes] gauges, so a [--stats-json] snapshot shows cache
    effectiveness directly. *)

type payload =
  | Proved of { strategy : string; depth : int }
  | Violated of { strategy : string; cex : Bmc.cex }
      (** conclusive verdicts are cached only after certification
          succeeded; the replaying side may re-certify (the cex
          replays on the requesting netlist precisely because the key
          fingerprints the cone it was found in) *)

type t

val create : ?prefix:string -> max_bytes:int -> unit -> t
(** [create ~max_bytes ()] — an empty cache holding at most (an
    estimate of) [max_bytes] bytes of entries; least-recently-used
    entries are evicted on overflow.  [prefix] (default ["cache"])
    names the counters, e.g. ["serve.cache"].
    @raise Invalid_argument when [max_bytes <= 0]. *)

val find : t -> string -> payload option
(** Lookup; a hit refreshes the entry's recency and bumps
    [<prefix>.hits] / [<prefix>.misses]. *)

val add : t -> string -> payload -> unit
(** Insert or replace, then evict from the cold end until the byte
    budget holds.  An entry larger than the whole budget is refused
    (and counted as an eviction) rather than cycling the cache. *)

val purge : t -> (string -> payload -> bool) -> int
(** Drop every entry the predicate selects, returning how many.  The
    coherence hammer: when a served result is found poisoned or fails
    re-certification, the serve layer purges the fingerprint's entries
    so the fault cannot be replayed to a later request. *)

val length : t -> int
val bytes : t -> int
(** Current entry count / estimated resident bytes. *)
