type payload =
  | Proved of { strategy : string; depth : int }
  | Violated of { strategy : string; cex : Bmc.cex }

(* intrusive doubly-linked LRU order: [first] is most recently used,
   [last] is the eviction candidate *)
type node = {
  key : string;
  mutable payload : payload;
  mutable size : int;
  mutable prev : node option; (* towards [first] *)
  mutable next : node option; (* towards [last] *)
}

type t = {
  prefix : string;
  max_bytes : int;
  lock : Mutex.t;
  index : (string, node) Hashtbl.t;
  mutable first : node option;
  mutable last : node option;
  mutable bytes : int;
}

(* Approximate heap footprint.  The budget exists to keep a long-lived
   server's memory bounded, not to account bytes exactly, so a cheap
   structural estimate is enough: fixed per-node overhead (node, two
   hashtable words, LRU links) plus string payloads plus list cells. *)
let node_overhead = 120

let payload_bytes = function
  | Proved { strategy; _ } -> 32 + String.length strategy
  | Violated { strategy; cex } ->
    48 + String.length strategy
    + (48 * List.length cex.Bmc.inputs)
    + (32 * List.length cex.Bmc.init_x)

let entry_bytes key payload =
  node_overhead + String.length key + payload_bytes payload

let c t name = t.prefix ^ name

let create ?(prefix = "cache") ~max_bytes () =
  if max_bytes <= 0 then invalid_arg "Bcache.create: max_bytes must be positive";
  let prefix = prefix ^ "." in
  Obs.Stats.declare
    (List.map (( ^ ) prefix)
       [ "hits"; "misses"; "insertions"; "evictions"; "purged"; "entries";
         "bytes" ]);
  {
    prefix;
    max_bytes;
    lock = Mutex.create ();
    index = Hashtbl.create 64;
    first = None;
    last = None;
    bytes = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ----- DLL plumbing (callers hold the lock) ----- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.first <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.last <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.first;
  (match t.first with Some f -> f.prev <- Some n | None -> t.last <- Some n);
  t.first <- Some n

let touch t n =
  if t.first != Some n then begin
    unlink t n;
    push_front t n
  end

let drop t n =
  unlink t n;
  Hashtbl.remove t.index n.key;
  t.bytes <- t.bytes - n.size

let gauges t =
  Obs.Stats.set_gauge (c t "entries") (Hashtbl.length t.index);
  Obs.Stats.set_gauge (c t "bytes") t.bytes

let evict_to_budget t =
  while t.bytes > t.max_bytes && t.last <> None do
    (match t.last with
    | Some n ->
      drop t n;
      Obs.Stats.count (c t "evictions") 1
    | None -> ())
  done

(* ----- public surface ----- *)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.index key with
      | Some n ->
        touch t n;
        Obs.Stats.count (c t "hits") 1;
        Some n.payload
      | None ->
        Obs.Stats.count (c t "misses") 1;
        None)

let add t key payload =
  let size = entry_bytes key payload in
  locked t (fun () ->
      if size > t.max_bytes then begin
        (* a single entry larger than the whole budget would evict
           everything and then itself — refuse it instead (it still
           counts as an eviction: the budget pushed it out) *)
        (match Hashtbl.find_opt t.index key with Some n -> drop t n | None -> ());
        Obs.Stats.count (c t "evictions") 1
      end
      else begin
        (match Hashtbl.find_opt t.index key with
        | Some n ->
          t.bytes <- t.bytes - n.size + size;
          n.payload <- payload;
          n.size <- size;
          touch t n
        | None ->
          let n = { key; payload; size; prev = None; next = None } in
          Hashtbl.replace t.index key n;
          t.bytes <- t.bytes + size;
          push_front t n);
        Obs.Stats.count (c t "insertions") 1;
        evict_to_budget t
      end;
      gauges t)

let purge t pred =
  locked t (fun () ->
      let doomed =
        Hashtbl.fold
          (fun _ n acc -> if pred n.key n.payload then n :: acc else acc)
          t.index []
      in
      List.iter (drop t) doomed;
      let n = List.length doomed in
      if n > 0 then Obs.Stats.count (c t "purged") n;
      gauges t;
      n)

let length t = locked t (fun () -> Hashtbl.length t.index)
let bytes t = locked t (fun () -> t.bytes)
