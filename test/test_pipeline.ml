module Net = Netlist.Net
module Lit = Netlist.Lit

let cutoff = 50

let summaries net =
  let s r = Core.Pipeline.summarize ~cutoff r in
  ( s (Core.Pipeline.original net),
    s (Core.Pipeline.com net),
    s (Core.Pipeline.com_ret_com net) )

let test_monotone_on_gadget_design () =
  let net = Workload.Iscas.by_name "PROLOG" in
  let o, c, r = summaries net in
  Helpers.check_int "paper |T'| original" 14 o.Core.Pipeline.proved_small;
  Helpers.check_int "paper |T'| after COM" 16 c.Core.Pipeline.proved_small;
  Helpers.check_int "paper |T'| after COM,RET,COM" 24 r.Core.Pipeline.proved_small;
  Helpers.check_int "|T| stable" o.Core.Pipeline.total r.Core.Pipeline.total

let test_ret_only_win () =
  let net = Workload.Iscas.by_name "S953" in
  let o, c, r = summaries net in
  Helpers.check_int "original" 3 o.Core.Pipeline.proved_small;
  Helpers.check_int "COM alone does not help" 3 c.Core.Pipeline.proved_small;
  Helpers.check_int "retiming unlocks everything" 23 r.Core.Pipeline.proved_small

let test_translated_bounds_sound_via_bmc () =
  (* every finite translated bound below the cutoff is a real BMC
     completeness threshold on the ORIGINAL netlist: absence of a hit
     within it matches exact reachability *)
  let net = Workload.Iscas.by_name "S27" in
  let report = Core.Pipeline.com_ret_com net in
  List.iter
    (fun tr ->
      if (not (Core.Sat_bound.is_huge tr.Core.Pipeline.bound))
         && tr.Core.Pipeline.bound < cutoff
      then begin
        let t = List.assoc tr.Core.Pipeline.target (Net.targets net) in
        match Core.Exact.explore net t with
        | None -> ()
        | Some e -> (
          match e.Core.Exact.earliest_hit with
          | None -> ()
          | Some hit ->
            Helpers.check_bool
              (Printf.sprintf "hit of %s within bound" tr.Core.Pipeline.target)
              true
              (hit <= tr.Core.Pipeline.bound - 1))
      end)
    report.Core.Pipeline.targets

let prop_pipeline_bounds_sound =
  Helpers.qtest ~count:25 "pipeline-translated bounds cover earliest hits"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_structured seed in
      let report = Core.Pipeline.com_ret_com net in
      match
        List.find_opt
          (fun tr -> String.equal tr.Core.Pipeline.target "t")
          report.Core.Pipeline.targets
      with
      | None -> true (* target collapsed to a constant inside COM *)
      | Some tr ->
        if Core.Sat_bound.is_huge tr.Core.Pipeline.bound then true
        else (
          match Core.Exact.explore net t with
          | None -> true
          | Some e -> (
            match e.Core.Exact.earliest_hit with
            | None -> true
            | Some hit -> hit <= tr.Core.Pipeline.bound - 1)))

let test_phase_front () =
  let base = Workload.Recipe.build (List.nth Workload.Gp.profiles 3) (* D_DASA *) in
  let latched = Workload.Gp.latchify base in
  let abstracted, translator = Core.Pipeline.phase_front latched in
  Helpers.check_bool "factor 2 translator" true
    (String.equal translator.Core.Translate.name "T3(x2)");
  Helpers.check_bool "registers near the base design" true
    (let n = Net.num_regs abstracted in
     n > 0 && n <= Net.num_regs base)

let test_gp_monotone () =
  let latched = Workload.Gp.by_name "L_LRU" in
  let abstracted, _ = Core.Pipeline.phase_front latched in
  let o, c, r = summaries abstracted in
  Helpers.check_int "original" 0 o.Core.Pipeline.proved_small;
  Helpers.check_int "COM win" 12 c.Core.Pipeline.proved_small;
  Helpers.check_int "stays after RET" 12 r.Core.Pipeline.proved_small

let test_summary_average () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let p = Workload.Gen.pipeline net ~name:"p" ~stages:3 ~data:a in
  Net.add_target net "t1" p.Workload.Gen.out;
  Net.add_target net "t2" (List.hd p.Workload.Gen.regs);
  let r = Core.Pipeline.original net in
  let s = Core.Pipeline.summarize ~cutoff r in
  Helpers.check_int "both small" 2 s.Core.Pipeline.proved_small;
  (* bounds 4 and 2 *)
  Helpers.check_bool "average" true (abs_float (s.Core.Pipeline.average -. 3.0) < 1e-9)

(* ----- the per-netlist store ----- *)

let calls name =
  match List.assoc_opt name (Obs.Stats.snapshot ()).Obs.Stats.spans with
  | Some s -> s.Obs.Stats.calls
  | None -> 0

let brief r =
  List.map
    (fun t -> (t.Core.Pipeline.target, t.Core.Pipeline.raw_bound, t.Core.Pipeline.bound))
    r.Core.Pipeline.targets

let test_store_computes_once () =
  let latched = Workload.Gp.by_name "L_LRU" in
  Obs.Stats.reset ();
  let store = Core.Pipeline.Store.create latched in
  let view () = fst (Core.Pipeline.Store.register_view store) in
  let coms = List.init 2 (fun _ -> Core.Pipeline.Store.com (view ())) in
  let crcs = List.init 2 (fun _ -> Core.Pipeline.Store.com_ret_com (view ())) in
  Helpers.check_int "one phase front" 1 (calls "pipeline.phase");
  Helpers.check_int "one COM" 1 (calls "pipeline.com");
  Helpers.check_int "one COM,RET,COM" 1 (calls "pipeline.com-ret-com");
  (* the one-shot pipelines, which run COM again inside COM,RET,COM,
     agree with the store *)
  let abstracted, _ = Core.Pipeline.phase_front latched in
  Helpers.check_bool "COM as one-shot" true
    (List.for_all (fun r -> brief r = brief (Core.Pipeline.com abstracted)) coms);
  Helpers.check_bool "COM,RET,COM as one-shot" true
    (List.for_all
       (fun r -> brief r = brief (Core.Pipeline.com_ret_com abstracted))
       crcs)

let test_store_drops_expired () =
  let net = Workload.Iscas.by_name "S27" in
  Obs.Stats.reset ();
  let store = Core.Pipeline.Store.create net in
  let expired = Obs.Budget.create ~timeout_s:0. () in
  ignore (Core.Pipeline.Store.com ~budget:expired store);
  ignore (Core.Pipeline.Store.com store);
  ignore (Core.Pipeline.Store.com store);
  Helpers.check_int "the expired result is not kept" 2 (calls "pipeline.com");
  (* a different inprocessing choice is a different entry *)
  ignore (Core.Pipeline.Store.com ~inprocess:false store);
  Helpers.check_int "keyed by inprocessing" 3 (calls "pipeline.com")

let test_store_across_domains () =
  let net = Workload.Iscas.by_name "S953" in
  Obs.Stats.reset ();
  let store = Core.Pipeline.Store.create net in
  let run () = brief (Core.Pipeline.Store.com_ret_com store) in
  let others = List.init 2 (fun _ -> Domain.spawn run) in
  let mine = run () in
  Helpers.check_bool "every domain reads one result" true
    (List.for_all (fun d -> Domain.join d = mine) others);
  Helpers.check_int "computed once" 1 (calls "pipeline.com-ret-com")

let suite =
  [
    Alcotest.test_case "gadget design monotone" `Slow test_monotone_on_gadget_design;
    Alcotest.test_case "RET-only win" `Slow test_ret_only_win;
    Alcotest.test_case "translated bounds sound (BMC)" `Quick
      test_translated_bounds_sound_via_bmc;
    Alcotest.test_case "phase front-end" `Quick test_phase_front;
    Alcotest.test_case "GP COM win" `Slow test_gp_monotone;
    Alcotest.test_case "summary average" `Quick test_summary_average;
    prop_pipeline_bounds_sound;
    Alcotest.test_case "store computes once" `Quick test_store_computes_once;
    Alcotest.test_case "store drops expired results" `Quick
      test_store_drops_expired;
    Alcotest.test_case "store across domains" `Quick test_store_across_domains;
  ]
