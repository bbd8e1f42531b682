module Net = Netlist.Net
module Stats = Obs.Stats

type target_report = {
  target : string;
  raw_bound : Sat_bound.t;
  bound : Sat_bound.t;
  translator : Translate.t;
}

type report = {
  pipeline : string;
  reg_counts : Classify.counts;
  targets : target_report list;
  final : Netlist.Net.t;
}

(* slug for stats keys: "COM,RET,COM" -> "com-ret-com" *)
let slug name =
  String.map (function ',' -> '-' | c -> Char.lowercase_ascii c) name

(* trace attributes: netlist size under a prefix, so every pipeline
   span carries its before/after shape *)
let size_args prefix net =
  Obs.Trace.
    [
      (prefix ^ "_regs", Int (Net.num_regs net + Net.num_latches net));
      (prefix ^ "_ands", Int (Net.num_ands net));
    ]

(* every transformation step runs under its own span, whose trace
   event carries the before/after netlist sizes *)
let after_final r = size_args "after" r.final

(* node/register reduction accounting shared by every pipeline *)
let record_reduction name ~before ~after =
  let s = slug name in
  let state n = Net.num_regs n + Net.num_latches n in
  Stats.count
    (Printf.sprintf "pipeline.%s.regs_removed" s)
    (state before - state after);
  Stats.count
    (Printf.sprintf "pipeline.%s.ands_removed" s)
    (Net.num_ands before - Net.num_ands after);
  Stats.set_gauge (Printf.sprintf "pipeline.%s.regs_after" s) (state after);
  Stats.set_gauge (Printf.sprintf "pipeline.%s.ands_after" s) (Net.num_ands after)

let report_on name net translator_of =
  let s = slug name in
  let analysis, bounds = Bound.all_targets net in
  let targets =
    List.map
      (fun (tname, b) ->
        let translator = translator_of tname in
        let translated = translator.Translate.apply b.Bound.bound in
        (* per-transform bound-reduction entry: the bound on the
           transformed netlist and its translation to the original *)
        Stats.set_gauge (Printf.sprintf "bound.%s.%s.raw" s tname) b.Bound.bound;
        Stats.set_gauge
          (Printf.sprintf "bound.%s.%s.translated" s tname)
          translated;
        { target = tname; raw_bound = b.Bound.bound; bound = translated; translator })
      bounds
  in
  {
    pipeline = name;
    reg_counts = Classify.counts_of analysis;
    targets;
    final = net;
  }

(* ----- the per-netlist store -----

   Each entry is computed once under its own lock; a value whose
   budget ran out while it was computed is returned but not kept.
   Locks nest only from a report entry to the COM netlist entry. *)

type 'a entry = { lock : Mutex.t; mutable value : 'a option }

let entry () = { lock = Mutex.create (); value = None }

let get ?(budget = Obs.Budget.unlimited) e compute =
  Mutex.protect e.lock (fun () ->
      match e.value with
      | Some v -> v
      | None ->
        let v = compute () in
        if not (Obs.Budget.expired budget) then e.value <- Some v;
        v)

(* the COM entries, one per SAT inprocessing choice *)
let at entries inprocess =
  entries.(match inprocess with None -> 0 | Some false -> 1 | Some true -> 2)

module Store = struct
  type t = {
    net : Net.t;
    phase : (t * Translate.t) entry;
    original : report entry;
    reduced : Net.t entry array;  (* COM's netlist *)
    com : report entry array;
    com_ret_com : report entry array;
  }

  let create net =
    let keyed () = Array.init 3 (fun _ -> entry ()) in
    let phase = entry () and original = entry () in
    { net; phase; original; reduced = keyed (); com = keyed (); com_ret_com = keyed () }

  let net s = s.net

  let phase_front s =
    get s.phase (fun () ->
        Obs.span "pipeline.phase" ~args:(size_args "before" s.net)
          ~result:(fun (abstracted, _) -> size_args "after" abstracted.net)
          (fun () ->
            let abstracted = Transform.Phase.run s.net in
            record_reduction "phase" ~before:s.net
              ~after:abstracted.Transform.Phase.net;
            ( create abstracted.Transform.Phase.net,
              Translate.state_folding ~factor:abstracted.Transform.Phase.factor
            )))

  let register_view s =
    if Net.num_latches s.net > 0 then phase_front s else (s, Translate.identity)

  (* a report entry, computed under its pipeline's span *)
  let stored_report ?budget e name s f =
    get ?budget e (fun () ->
        Obs.span ("pipeline." ^ name) ~args:(size_args "before" s.net)
          ~result:after_final f)

  let original s =
    stored_report s.original "original" s (fun () ->
        report_on "Original" s.net (fun _ -> Translate.identity))

  let com_net ?budget ?inprocess net =
    (fst (Transform.Com.run ?budget ?inprocess net)).Transform.Rebuild.net

  (* no span of its own: the work shows under whichever pipeline
     asked for it first *)
  let reduced ?budget ?inprocess s =
    get ?budget (at s.reduced inprocess) (fun () ->
        com_net ?budget ?inprocess s.net)

  let com ?budget ?inprocess s =
    stored_report ?budget (at s.com inprocess) "com" s (fun () ->
        let reduced = reduced ?budget ?inprocess s in
        record_reduction "COM" ~before:s.net ~after:reduced;
        report_on "COM" reduced (fun _ -> Translate.trace_equivalence))

  (* RET then COM on top of the stored COM netlist *)
  let com_ret_com ?budget ?inprocess s =
    stored_report ?budget (at s.com_ret_com inprocess) "com-ret-com" s (fun () ->
        let step name net after f =
          Obs.span ("pipeline.com-ret-com." ^ name)
            ~args:(size_args "before" net)
            ~result:(fun r -> size_args "after" (after r)) f
        in
        let first =
          step "com1" s.net Fun.id (fun () -> reduced ?budget ?inprocess s)
        in
        let rebuilt r = r.Transform.Retime.rebuilt.Transform.Rebuild.net in
        let retimed =
          step "ret" first rebuilt (fun () -> Transform.Retime.run first)
        in
        let net = rebuilt retimed in
        let second =
          step "com2" net Fun.id (fun () -> com_net ?budget ?inprocess net)
        in
        record_reduction "COM,RET,COM" ~before:s.net ~after:second;
        let skews = retimed.Transform.Retime.target_skews in
        report_on "COM,RET,COM" second (fun tname ->
            let skew = Option.value (List.assoc_opt tname skews) ~default:0 in
            Translate.compose Translate.trace_equivalence
              (Translate.compose (Translate.retiming ~skew)
                 Translate.trace_equivalence)))
end

let original net = Store.original (Store.create net)
let com ?budget ?inprocess net = Store.com ?budget ?inprocess (Store.create net)

let com_ret_com ?budget ?inprocess net =
  Store.com_ret_com ?budget ?inprocess (Store.create net)

let phase_front net =
  let view, fold = Store.phase_front (Store.create net) in
  (view.Store.net, fold)

type summary = { proved_small : int; total : int; average : float }

let summarize ~cutoff report =
  let small =
    List.filter
      (fun t -> (not (Sat_bound.is_huge t.bound)) && t.bound < cutoff)
      report.targets
  in
  let proved_small = List.length small in
  let total = List.length report.targets in
  let average =
    if proved_small = 0 then 0.
    else
      List.fold_left (fun acc t -> acc +. float_of_int t.bound) 0. small
      /. float_of_int proved_small
  in
  { proved_small; total; average }
