type value = Int of int | Float of float | String of string | Bool of bool
type arg = string * value
type kind = Span | Instant

type event = {
  name : string;
  kind : kind;
  ts_us : float;
  dur_us : float;
  args : arg list;
}

type format = Chrome | Jsonl

let format_of_path path =
  if Filename.check_suffix path ".jsonl" then Jsonl else Chrome

(* ----- serialization (via the Report JSON printer, so escaping and
   float round-tripping are shared with the stats snapshots) ----- *)

let json_of_value = function
  | Int n -> Report.Int n
  | Float f -> Report.Float f
  | String s -> Report.String s
  | Bool b -> Report.Bool b

(* [tid] is the recording domain, so a multi-domain trace renders as
   one track per domain in Perfetto instead of one garbled track *)
let json_of_event ~tid e =
  let args =
    match e.args with
    | [] -> []
    | l -> [ ("args", Report.Obj (List.map (fun (k, v) -> (k, json_of_value v)) l)) ]
  in
  Report.Obj
    ([
       ("name", Report.String e.name);
       ("ph", Report.String (match e.kind with Span -> "X" | Instant -> "i"));
       ("pid", Report.Int 1);
       ("tid", Report.Int tid);
       ("ts", Report.Float e.ts_us);
     ]
    @ (match e.kind with
      | Span -> [ ("dur", Report.Float e.dur_us) ]
      | Instant -> [ ("s", Report.String "t") ] (* thread-scoped instant *))
    @ args)

let value_of_json = function
  | Report.Int n -> Int n
  | Report.Float f -> Float f
  | Report.String s -> String s
  | Report.Bool b -> Bool b
  | Report.Null -> Float Float.nan (* non-finite floats export as null *)
  | Report.List _ | Report.Obj _ ->
    failwith "Trace.read_file: composite attribute value"

let event_of_json j =
  let fields =
    match j with
    | Report.Obj fields -> fields
    | _ -> failwith "Trace.read_file: event is not an object"
  in
  let str name =
    match List.assoc_opt name fields with
    | Some (Report.String s) -> s
    | _ -> failwith (Printf.sprintf "Trace.read_file: missing field %S" name)
  in
  let num ?default name =
    match (List.assoc_opt name fields, default) with
    | Some (Report.Float f), _ -> f
    | Some (Report.Int n), _ -> float_of_int n
    | _, Some d -> d
    | _, None -> failwith (Printf.sprintf "Trace.read_file: missing field %S" name)
  in
  let kind =
    match str "ph" with
    | "X" -> Span
    | "i" | "I" -> Instant
    | ph -> failwith (Printf.sprintf "Trace.read_file: unsupported phase %S" ph)
  in
  let args =
    match List.assoc_opt "args" fields with
    | None -> []
    | Some (Report.Obj l) -> List.map (fun (k, v) -> (k, value_of_json v)) l
    | Some _ -> failwith "Trace.read_file: args is not an object"
  in
  {
    name = str "name";
    kind;
    ts_us = num "ts";
    dur_us = (match kind with Span -> num ~default:0. "dur" | Instant -> 0.);
    args;
  }

(* ----- capture state -----

   The sink (file, format, start time) is process-global; every domain
   records into its own ring and span stack, so concurrent spans from
   scheduler workers never interleave on one stack.  Rings drain into
   the shared channel under the sink lock; each drained event carries
   its domain both as the Chrome [tid] and, for worker domains, as a
   "domain" attribute so offline analysis can partition the track. *)

type frame = { f_name : string; f_ts : float; f_args : arg list }

type sink = {
  format : format;
  oc : out_channel;
  t0 : float;
  lock : Mutex.t;
  mutable wrote_any : bool; (* Chrome comma management *)
}

type local = {
  domain : int;
  ring : event array; (* preallocated; [pending] slots await a drain *)
  mutable pending : int;
  mutable stack : frame list; (* open spans, innermost first *)
}

let capacity = 1024

let dummy =
  { name = ""; kind = Instant; ts_us = 0.; dur_us = 0.; args = [] }

let state : sink option ref = ref None
let active () = !state <> None

(* every live domain's buffer, for the final drain at [stop]; guarded
   by the registry lock below *)
let locals_lock = Mutex.create ()
let all_locals : local list ref = ref []

(* caller holds st.lock *)
let drain_locked st l =
  for i = 0 to l.pending - 1 do
    let line = Report.to_string (json_of_event ~tid:l.domain l.ring.(i)) in
    (match st.format with
    | Chrome ->
      if st.wrote_any then output_string st.oc ",\n";
      st.wrote_any <- true;
      output_string st.oc line
    | Jsonl ->
      output_string st.oc line;
      output_char st.oc '\n');
    l.ring.(i) <- dummy
  done;
  l.pending <- 0;
  (* crash-safety: a JSONL sink is flushed through to disk per drain *)
  if st.format = Jsonl then flush st.oc

let drain st l =
  Mutex.lock st.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock st.lock)
    (fun () -> drain_locked st l)

let push st l e =
  (* an active correlation context stamps every event, so all spans
     of one serve request are joinable with its log lines by id *)
  let e =
    match Log.current_corr () with
    | Some c when not (List.mem_assoc "corr" e.args) ->
      { e with args = e.args @ [ ("corr", String c) ] }
    | _ -> e
  in
  (* worker-domain events carry their origin as an attribute too, so
     format-agnostic consumers (trace-report) can partition *)
  let e =
    if l.domain = 0 then e
    else { e with args = e.args @ [ ("domain", Int l.domain) ] }
  in
  l.ring.(l.pending) <- e;
  l.pending <- l.pending + 1;
  if l.pending = capacity || st.format = Jsonl then drain st l

let now_us st = (Stats.now () -. st.t0) *. 1e6

let end_span st l ~t_us extra =
  match l.stack with
  | [] -> () (* unbalanced end; drop rather than crash the run *)
  | f :: rest ->
    l.stack <- rest;
    let dur = Float.max 0. (t_us -. f.f_ts) in
    push st l
      {
        name = f.f_name;
        kind = Span;
        ts_us = f.f_ts;
        dur_us = dur;
        args = f.f_args @ extra;
      }

(* a worker domain's buffer lives as long as the domain: on exit its
   open spans close as truncated, its pending events reach the active
   sink, and it leaves the registry, so a process that spawns a fresh
   pool per session keeps one ring per live domain, not one per domain
   ever *)
let retire l =
  (match !state with
  | None -> ()
  | Some st ->
    while l.stack <> [] do
      end_span st l ~t_us:(now_us st) [ ("truncated", Bool true) ]
    done;
    drain st l);
  Mutex.lock locals_lock;
  all_locals := List.filter (fun x -> x != l) !all_locals;
  Mutex.unlock locals_lock

let local_key : local Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let l =
        {
          domain = (Domain.self () :> int);
          ring = Array.make capacity dummy;
          pending = 0;
          stack = [];
        }
      in
      Mutex.lock locals_lock;
      all_locals := l :: !all_locals;
      Mutex.unlock locals_lock;
      (* the main domain's exit hooks run before the process's at_exit
         handlers, where [stop] still drains it: keep its buffer *)
      if not (Domain.is_main_domain ()) then Domain.at_exit (fun () -> retire l);
      l)

let local () = Domain.DLS.get local_key

let flush () =
  match !state with
  | None -> ()
  | Some st -> drain st (local ())

let registered () =
  Mutex.lock locals_lock;
  let n = List.length !all_locals in
  Mutex.unlock locals_lock;
  n

let stop () =
  match !state with
  | None -> ()
  | Some st ->
    state := None;
    Mutex.lock locals_lock;
    let locals = !all_locals in
    Mutex.unlock locals_lock;
    (* spans still open anywhere (exception unwind, at_exit, a worker
       domain parked between jobs) are closed now so the trace stays
       well-formed; the recording domains must be quiescent by the
       time the sink closes (the scheduler joins its pool first) *)
    List.iter
      (fun l ->
        while l.stack <> [] do
          end_span st l ~t_us:(now_us st) [ ("truncated", Bool true) ]
        done;
        drain st l)
      locals;
    if st.format = Chrome then output_string st.oc "\n]\n";
    (match close_out st.oc with
    | () -> ()
    | exception Sys_error msg ->
      Format.eprintf "trace: error closing sink: %s@." msg)

let exit_hook = ref false

let start ?format path =
  stop ();
  let format = match format with Some f -> f | None -> format_of_path path in
  match open_out path with
  | exception Sys_error msg -> Format.eprintf "trace: cannot open sink: %s@." msg
  | oc ->
    if format = Chrome then output_string oc "[\n";
    (* stale buffers from a previous sink must not leak into this one *)
    Mutex.lock locals_lock;
    List.iter
      (fun l ->
        l.pending <- 0;
        l.stack <- [])
      !all_locals;
    Mutex.unlock locals_lock;
    state :=
      Some
        { format; oc; t0 = Stats.now (); lock = Mutex.create (); wrote_any = false };
    if not !exit_hook then begin
      exit_hook := true;
      at_exit stop
    end

let setup ?file () =
  match file with
  | Some path -> start path
  | None -> (
    match Sys.getenv_opt "DIAMBOUND_TRACE" with
    | Some path when path <> "" -> start path
    | _ -> ())

let emit e = match !state with None -> () | Some st -> push st (local ()) e

let instant ?(args = []) name =
  match !state with
  | None -> ()
  | Some st ->
    push st (local ())
      { name; kind = Instant; ts_us = now_us st; dur_us = 0.; args }

(* One clock pair times [f] for both consumers: the trace event (when
   a trace is active) and [record] (when given).  With neither, [f]
   runs untimed — the inactive-trace fast path. *)
let with_span ?(args = []) ?result ?record name f =
  match (!state, record) with
  | None, None -> f ()
  | st, _ ->
    let t0 = Stats.now () in
    let opened =
      Option.map
        (fun st ->
          let l = local () in
          l.stack <-
            { f_name = name; f_ts = (t0 -. st.t0) *. 1e6; f_args = args }
            :: l.stack;
          (st, l))
        st
    in
    let finish extra =
      let t1 = Stats.now () in
      Option.iter (fun record -> record (t1 -. t0)) record;
      Option.iter
        (fun (st, l) -> end_span st l ~t_us:((t1 -. st.t0) *. 1e6) (extra ()))
        opened
    in
    (match f () with
    | r ->
      finish (fun () -> match result with Some g -> g r | None -> []);
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish (fun () -> [ ("exception", String (Printexc.to_string e)) ]);
      Printexc.raise_with_backtrace e bt)

let to_json ?(tid = 0) e = json_of_event ~tid e

(* ----- reading back ----- *)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_file path =
  let text = read_all path in
  let n = String.length text in
  let rec first_nonspace i =
    if i >= n then None
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> first_nonspace (i + 1)
      | c -> Some c
  in
  (* salvage pass for a capture cut off mid-write (crashed or killed
     run): both exporters write one event object per line, so any
     complete line is recoverable even when the file as a whole no
     longer parses *)
  let salvage () =
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
           let l = String.trim l in
           let n = String.length l in
           let l = if n > 0 && l.[n - 1] = ',' then String.sub l 0 (n - 1) else l in
           if String.length l = 0 || l.[0] <> '{' then None
           else
             match event_of_json (Report.parse l) with
             | e -> Some e
             | exception Failure _ -> None)
  in
  match first_nonspace 0 with
  | None -> []
  | Some '[' -> (
    match Report.parse text with
    | Report.List items -> List.map event_of_json items
    | _ -> failwith "Trace.read_file: expected a trace-event array"
    | exception Failure _ -> salvage ())
  | Some _ -> (
    (* JSONL: one event per non-empty line; only a truncated FINAL
       line is forgiven (that is the crash-safety contract), a
       malformed line mid-file still fails loudly *)
    let lines =
      String.split_on_char '\n' text
      |> List.filter (fun l -> String.trim l <> "")
    in
    let rec parse_lines = function
      | [] -> []
      | [ last ] -> (
        match event_of_json (Report.parse last) with
        | e -> [ e ]
        | exception Failure _ -> [])
      | l :: rest -> event_of_json (Report.parse l) :: parse_lines rest
    in
    parse_lines lines)
