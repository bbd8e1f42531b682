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
      (Bound.all_targets net)
  in
  {
    pipeline = name;
    reg_counts = Classify.netlist_counts net;
    targets;
    final = net;
  }

let original net =
  Obs.span "pipeline.original" ~args:(size_args "before" net)
    ~result:after_final (fun () ->
      report_on "Original" net (fun _ -> Translate.identity))

let com ?budget ?inprocess net =
  Obs.span "pipeline.com" ~args:(size_args "before" net) ~result:after_final
    (fun () ->
      let reduced, _stats = Transform.Com.run ?budget ?inprocess net in
      record_reduction "COM" ~before:net ~after:reduced.Transform.Rebuild.net;
      report_on "COM" reduced.Transform.Rebuild.net (fun _ ->
          Translate.trace_equivalence))

let com_ret_com ?budget ?inprocess net =
  Obs.span "pipeline.com-ret-com" ~args:(size_args "before" net)
    ~result:after_final (fun () ->
      let com_after (r, _) = size_args "after" r.Transform.Rebuild.net in
      let first, _ =
        Obs.span "pipeline.com-ret-com.com1" ~args:(size_args "before" net)
          ~result:com_after (fun () -> Transform.Com.run ?budget ?inprocess net)
      in
      let first = first.Transform.Rebuild.net in
      let retimed =
        Obs.span "pipeline.com-ret-com.ret" ~args:(size_args "before" first)
          ~result:(fun r ->
            size_args "after" r.Transform.Retime.rebuilt.Transform.Rebuild.net)
          (fun () -> Transform.Retime.run first)
      in
      let second, _ =
        let net = retimed.Transform.Retime.rebuilt.Transform.Rebuild.net in
        Obs.span "pipeline.com-ret-com.com2" ~args:(size_args "before" net)
          ~result:com_after (fun () -> Transform.Com.run ?budget ?inprocess net)
      in
      record_reduction "COM,RET,COM" ~before:net
        ~after:second.Transform.Rebuild.net;
      let skews = retimed.Transform.Retime.target_skews in
      report_on "COM,RET,COM" second.Transform.Rebuild.net (fun tname ->
          let skew = Option.value (List.assoc_opt tname skews) ~default:0 in
          Translate.compose Translate.trace_equivalence
            (Translate.compose (Translate.retiming ~skew)
               Translate.trace_equivalence)))

let phase_front net =
  Obs.span "pipeline.phase" ~args:(size_args "before" net)
    ~result:(fun (abstracted, _) -> size_args "after" abstracted)
    (fun () ->
      let abstracted = Transform.Phase.run net in
      record_reduction "phase" ~before:net ~after:abstracted.Transform.Phase.net;
      ( abstracted.Transform.Phase.net,
        Translate.state_folding ~factor:abstracted.Transform.Phase.factor ))

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

let pp_report ~cutoff ppf report =
  let s = summarize ~cutoff report in
  Format.fprintf ppf "%-12s R:%a  |T'|/|T|: %d/%d  avg: %.1f" report.pipeline
    Classify.pp_counts report.reg_counts s.proved_small s.total s.average
