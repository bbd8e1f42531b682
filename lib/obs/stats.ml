(* Domain-safe registry: counters are atomics (a lost increment under
   concurrent bumping is a silent lie in every report downstream), and
   spans live in per-domain tables merged at snapshot time so two
   domains timing the same name never race on one record.  The
   registry hashtables themselves are guarded by one mutex; counter
   and span handles are looked up under the lock but bumped without
   it. *)

type counter = int Atomic.t
type span = { mutable calls : int; mutable total : float; mutable max : float }

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

(* one span table per live domain, registered on first use and merged
   by {!snapshot}; a worker domain's table is folded into [retired]
   when the domain exits, so a process that spawns a fresh pool per
   session keeps one table per live domain, not one per domain ever *)
let span_tables : (string, span) Hashtbl.t list ref = ref []
let retired : (string, span) Hashtbl.t = Hashtbl.create 64

(* fold one span record into a table: calls and totals summed, maxima
   maxed *)
let merge_into into name (sp : span) =
  match Hashtbl.find_opt into name with
  | Some acc ->
    acc.calls <- acc.calls + sp.calls;
    acc.total <- acc.total +. sp.total;
    acc.max <- Float.max acc.max sp.max
  | None -> Hashtbl.replace into name { sp with calls = sp.calls }

let retire tbl =
  locked (fun () ->
      Hashtbl.iter (merge_into retired) tbl;
      span_tables := List.filter (fun t -> t != tbl) !span_tables)

let span_key : (string, span) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let tbl = Hashtbl.create 64 in
      locked (fun () -> span_tables := tbl :: !span_tables);
      (* the main domain's exit hooks run before the process's at_exit
         handlers, which may still record and snapshot: keep its table *)
      if not (Domain.is_main_domain ()) then
        Domain.at_exit (fun () -> retire tbl);
      tbl)

(* CLOCK_MONOTONIC (bechamel's stub, nanoseconds): an NTP step
   mid-span must not record a negative or wildly wrong duration.
   The epoch is arbitrary (boot), which every consumer tolerates —
   budgets and spans only ever subtract two readings.  If the stub is
   unavailable on this platform, fall back to wall clock. *)
let monotonic () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let now =
  match monotonic () with
  | (_ : float) -> monotonic
  | exception _ -> Unix.gettimeofday

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.replace counters name c;
        c)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let set c n = Atomic.set c n

let rec record_max c n =
  let cur = Atomic.get c in
  if n > cur && not (Atomic.compare_and_set c cur n) then record_max c n

let counter_value c = Atomic.get c
let count name n = add (counter name) n
let set_gauge name n = set (counter name) n
let max_gauge name n = record_max (counter name) n
let declare names = List.iter (fun name -> ignore (counter name)) names

(* spans: the calling domain's private table, so no lock is needed on
   the record itself *)
let span name =
  let spans = Domain.DLS.get span_key in
  match Hashtbl.find_opt spans name with
  | Some sp -> sp
  | None ->
    let sp = { calls = 0; total = 0.; max = 0. } in
    Hashtbl.replace spans name sp;
    sp

let add_span name dt =
  (* clock steps (or misuse) must never record negative durations;
     nan is kept as-is so a corrupted measurement stays visible *)
  let dt = if dt < 0. then 0. else dt in
  let sp = span name in
  sp.calls <- sp.calls + 1;
  sp.total <- sp.total +. dt;
  if dt > sp.max then sp.max <- dt

(* ----- distributions -----

   Percentile gauges for the serve layer: each [dist name v] appends
   into a per-name reservoir, and {!snapshot} folds every non-empty
   reservoir into plain counters (<name>.count/.p50/.p90/.p99/.max),
   so percentiles ride the existing snapshot/JSON/baseline schema
   without a new field.  Recording is mutex-guarded — distributions
   are per-request-rate events (never hot-loop), so contention is
   irrelevant next to losing a sample.

   Samples are stored unboxed in a growable float array, so recording
   allocates nothing per sample.  With a list of boxed samples, each
   allocated on the (short-lived) worker domain that recorded it, a
   process serving one session on a fresh pool after another grew its
   major heap by 7-12K words per session under OCaml 5.1, far more
   than the samples themselves; unboxed, the heap stays flat. *)

type reservoir = { mutable samples : float array; mutable len : int }

let dists : (string, reservoir) Hashtbl.t = Hashtbl.create 16

let dist name v =
  locked (fun () ->
      let r =
        match Hashtbl.find_opt dists name with
        | Some r -> r
        | None ->
          let r = { samples = Array.make 64 0.; len = 0 } in
          Hashtbl.replace dists name r;
          r
      in
      if r.len = Array.length r.samples then begin
        let grown = Array.make (2 * r.len) 0. in
        Array.blit r.samples 0 grown 0 r.len;
        r.samples <- grown
      end;
      r.samples.(r.len) <- v;
      r.len <- r.len + 1)

let percentile sorted n q =
  (* nearest-rank on a sorted array: the conventional estimator, exact
     at the sample points, monotone in q *)
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let dist_counters () =
  let folded = ref [] in
  locked (fun () ->
      Hashtbl.iter
        (fun name r ->
          let a = Array.sub r.samples 0 r.len in
          let n = r.len in
          if n > 0 then begin
            Array.sort Float.compare a;
            let p q = int_of_float (Float.round (percentile a n q)) in
            folded :=
              (name ^ ".count", n)
              :: (name ^ ".p50", p 0.50)
              :: (name ^ ".p90", p 0.90)
              :: (name ^ ".p99", p 0.99)
              :: (name ^ ".max", int_of_float (Float.round a.(n - 1)))
              :: !folded
          end)
        dists);
  !folded

type span_stats = { calls : int; total_s : float; max_s : float }

type snapshot = {
  counters : (string * int) list;
  spans : (string * span_stats) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  let merged : (string, span) Hashtbl.t = Hashtbl.create 64 in
  let merge = Hashtbl.iter (merge_into merged) in
  let counters, tables =
    locked (fun () ->
        merge retired;
        ( Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) counters
            [],
          !span_tables ))
  in
  (* merge the live per-domain tables.  Quiescent domains' records are
     stable; a domain still recording contributes a consistent-enough
     prefix (each field is a single word store). *)
  List.iter merge tables;
  {
    counters = List.sort by_name (dist_counters () @ counters);
    spans =
      Hashtbl.fold
        (fun name (sp : span) acc ->
          (name, { calls = sp.calls; total_s = sp.total; max_s = sp.max })
          :: acc)
        merged []
      |> List.sort by_name;
  }

let reset () =
  locked (fun () ->
      Hashtbl.reset dists;
      Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
      List.iter
        (Hashtbl.iter (fun _ (sp : span) ->
             sp.calls <- 0;
             sp.total <- 0.;
             sp.max <- 0.))
        (retired :: !span_tables))
