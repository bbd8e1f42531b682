(* Obs.Trace: exporter round trips, span capture, and the offline
   trace-report views. *)

module Trace = Obs.Trace
module Trace_report = Obs.Trace_report
module Rng = Workload.Rng

let contains text needle =
  let n = String.length needle and m = String.length text in
  let rec at i = i + n <= m && (String.sub text i n = needle || at (i + 1)) in
  at 0

let with_tmp f =
  let path = Filename.temp_file "diambound_trace" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let ev ?(args = []) ?(kind = Trace.Span) name ts dur =
  { Trace.name; kind; ts_us = ts; dur_us = dur; args }

(* ----- seed-driven event generation (floats built from ints, so
   both exporters round-trip them exactly) ----- *)

let rand_value rng : Trace.value =
  match Rng.int rng 4 with
  | 0 -> Trace.Int (Rng.int rng 1000 - 500)
  | 1 -> Trace.Float (float_of_int (Rng.int rng 10_000) /. 8.)
  | 2 ->
    Trace.String
      (String.init (Rng.int rng 8) (fun _ ->
           Char.chr (Char.code 'a' + Rng.int rng 26)))
  | _ -> Trace.Bool (Rng.bool rng)

let rand_event rng =
  let kind = if Rng.int rng 4 = 0 then Trace.Instant else Trace.Span in
  let args =
    List.init (Rng.int rng 4) (fun i ->
        (Printf.sprintf "a%d" i, rand_value rng))
  in
  ev
    (Printf.sprintf "e%d" (Rng.int rng 5))
    (float_of_int (Rng.int rng 1_000_000) /. 4.)
    (match kind with
    | Trace.Instant -> 0.
    | Trace.Span -> float_of_int (Rng.int rng 100_000) /. 4.)
    ~kind ~args

let rand_events seed =
  let rng = Rng.create seed in
  List.init (1 + Rng.int rng 20) (fun _ -> rand_event rng)

let roundtrip format events =
  with_tmp (fun path ->
      Trace.start ~format path;
      List.iter Trace.emit events;
      Trace.stop ();
      Trace.read_file path)

let prop_roundtrip format name =
  Helpers.qtest ~count:60 name
    QCheck.(int_bound 1000000)
    (fun seed ->
      let events = rand_events seed in
      roundtrip format events = events)

let prop_chrome_roundtrip = prop_roundtrip Trace.Chrome "chrome roundtrip is exact"
let prop_jsonl_roundtrip = prop_roundtrip Trace.Jsonl "jsonl roundtrip is exact"

(* ----- unit tests ----- *)

let test_format_of_path () =
  Helpers.check_bool "jsonl suffix" true
    (Trace.format_of_path "a/b.jsonl" = Trace.Jsonl);
  Helpers.check_bool "anything else is Chrome" true
    (Trace.format_of_path "trace.json" = Trace.Chrome)

let test_disabled_noop () =
  Trace.stop ();
  Helpers.check_bool "inactive" false (Trace.active ());
  Trace.emit (ev "ghost" 0. 1.);
  Trace.instant "ghost";
  Helpers.check_int "with_span runs the body" 7
    (Trace.with_span "s" (fun () -> 7));
  let asked = ref false in
  Helpers.check_int "with_span ~result returns the body's value" 9
    (Trace.with_span "s"
       ~result:(fun _ ->
         asked := true;
         [ ("k", Trace.Int 1) ])
       (fun () -> 9));
  Helpers.check_bool "result attributes not computed untraced" false !asked

let test_span_capture () =
  let events =
    with_tmp (fun path ->
        Trace.start ~format:Trace.Jsonl path;
        Helpers.check_bool "active" true (Trace.active ());
        let v =
          Trace.with_span "outer"
            ~args:[ ("who", Trace.String "test") ]
            (fun () ->
              Trace.with_span "inner" (fun () -> Trace.instant "tick");
              42)
        in
        Helpers.check_int "value through the span" 42 v;
        Trace.stop ();
        Trace.read_file path)
  in
  (* completion order: the instant first, then inner, then outer *)
  match events with
  | [ tick; inner; outer ] ->
    Helpers.check Alcotest.(list string) "names" [ "tick"; "inner"; "outer" ]
      (List.map (fun (e : Trace.event) -> e.Trace.name) events);
    Helpers.check_bool "instant kind" true (tick.Trace.kind = Trace.Instant);
    Helpers.check_bool "outer starts first" true
      (outer.Trace.ts_us <= inner.Trace.ts_us);
    Helpers.check_bool "inner nests in outer" true
      (inner.Trace.ts_us +. inner.Trace.dur_us
      <= outer.Trace.ts_us +. outer.Trace.dur_us +. 1e-3);
    Helpers.check_bool "outer kept its args" true
      (List.assoc "who" outer.Trace.args = Trace.String "test")
  | l -> Alcotest.fail (Printf.sprintf "expected 3 events, got %d" (List.length l))

let test_exception_annotates_span () =
  let events =
    with_tmp (fun path ->
        Trace.start ~format:Trace.Jsonl path;
        (try Trace.with_span "boom" (fun () -> failwith "kapow")
         with Failure _ -> ());
        Trace.stop ();
        Trace.read_file path)
  in
  match events with
  | [ e ] -> (
    match List.assoc_opt "exception" e.Trace.args with
    | Some (Trace.String msg) ->
      Helpers.check_bool "exception text captured" true (contains msg "kapow")
    | _ -> Alcotest.fail "no exception attribute")
  | _ -> Alcotest.fail "expected exactly the failing span"

let test_stop_truncates_open_spans () =
  (* stop() inside an open span: the span must still be written, marked
     truncated, so a killed run leaves a well-formed trace *)
  let events =
    with_tmp (fun path ->
        Trace.start ~format:Trace.Chrome path;
        Trace.with_span "open" (fun () -> Trace.stop ());
        Trace.read_file path)
  in
  match events with
  | [ e ] ->
    Helpers.check_bool "span named" true (e.Trace.name = "open");
    Helpers.check_bool "marked truncated" true
      (List.assoc_opt "truncated" e.Trace.args = Some (Trace.Bool true))
  | _ -> Alcotest.fail "expected exactly the truncated span"

(* ----- Obs.span: one call, one aggregate row and one trace event ----- *)

let span_row name =
  List.assoc_opt name (Obs.Stats.snapshot ()).Obs.Stats.spans

let traced f =
  with_tmp (fun path ->
      Obs.Stats.reset ();
      Trace.start ~format:Trace.Jsonl path;
      Fun.protect ~finally:Trace.stop f;
      Trace.read_file path)

let test_obs_span_feeds_both () =
  let events =
    traced (fun () ->
        Helpers.check_int "value through the span" 5
          (Obs.span "t.both" ~args:[ ("k", Trace.Int 1) ] (fun () -> 5)))
  in
  match (events, span_row "t.both") with
  | [ e ], Some row ->
    Helpers.check_bool "event named" true (e.Trace.name = "t.both");
    Helpers.check_bool "event kept its args" true
      (e.Trace.args = [ ("k", Trace.Int 1) ]);
    Helpers.check_int "one aggregate call" 1 row.Obs.Stats.calls;
    (* one clock pair measured both *)
    Helpers.check_bool "same duration in both" true
      (Float.abs (e.Trace.dur_us -. (row.Obs.Stats.total_s *. 1e6)) < 1.)
  | _ -> Alcotest.fail "expected one event and one aggregate row"

let test_obs_span_records_raise () =
  let asked = ref false in
  let events =
    traced (fun () ->
        try
          Obs.span "t.raise"
            ~result:(fun () ->
              asked := true;
              [])
            (fun () -> failwith "kapow")
        with Failure _ -> ())
  in
  Helpers.check_bool "result not asked of a raise" false !asked;
  (match span_row "t.raise" with
  | Some row -> Helpers.check_int "aggregate recorded" 1 row.Obs.Stats.calls
  | None -> Alcotest.fail "no aggregate row for a raising span");
  match events with
  | [ e ] -> (
    match List.assoc_opt "exception" e.Trace.args with
    | Some (Trace.String msg) ->
      Helpers.check_bool "exception text captured" true (contains msg "kapow")
    | _ -> Alcotest.fail "no exception attribute")
  | _ -> Alcotest.fail "expected exactly the failing span"

let test_obs_span_appends_result () =
  let events =
    traced (fun () ->
        ignore
          (Obs.span "t.result"
             ~args:[ ("before", Trace.Int 1) ]
             ~result:(fun r -> [ ("after", Trace.Int r) ])
             (fun () -> 2)))
  in
  match events with
  | [ e ] ->
    Helpers.check_bool "result attributes follow args" true
      (e.Trace.args = [ ("before", Trace.Int 1); ("after", Trace.Int 2) ])
  | _ -> Alcotest.fail "expected one event"

let test_obs_span_untraced () =
  Trace.stop ();
  Obs.Stats.reset ();
  let asked = ref false in
  Obs.span "t.untraced"
    ~result:(fun () ->
      asked := true;
      [])
    (fun () -> ());
  Helpers.check_bool "no trace attributes computed" false !asked;
  match span_row "t.untraced" with
  | Some row -> Helpers.check_int "aggregate still recorded" 1 row.Obs.Stats.calls
  | None -> Alcotest.fail "untraced span lost its aggregate row"

let test_unwritable_sink_is_nonfatal () =
  Trace.start "/nonexistent-dir/trace.json";
  Helpers.check_bool "tracing stays off" false (Trace.active ());
  Trace.instant "ignored" (* must not raise *)

let test_forest_self_time () =
  let events =
    [
      ev "root" 0. 100.;
      ev "child" 10. 30.;
      ev "child" 50. 20.;
      ev "late-root" 200. 5.;
      ev "blip" 15. 0. ~kind:Trace.Instant;
    ]
  in
  match Trace_report.forest events with
  | [ root; late ] ->
    Helpers.check_int "two children" 2 (List.length root.Trace_report.children);
    Helpers.check_bool "root self = 100 - 30 - 20" true
      (Float.abs (root.Trace_report.self_us -. 50.) < 1e-6);
    Helpers.check_bool "late root is a root" true
      (late.Trace_report.event.Trace.name = "late-root")
  | l -> Alcotest.fail (Printf.sprintf "expected 2 roots, got %d" (List.length l))

let test_depth_table () =
  let depth_ev d dur ~conflicts ~props ts =
    ev "bmc.depth" ts dur
      ~args:
        [
          ("depth", Trace.Int d);
          ("conflicts", Trace.Int conflicts);
          ("propagations", Trace.Int props);
        ]
  in
  let events =
    [
      depth_ev 0 10. ~conflicts:1 ~props:10 0.;
      depth_ev 1 20. ~conflicts:2 ~props:20 10.;
      depth_ev 1 40. ~conflicts:3 ~props:30 30.;
      ev "other" 70. 5.;
    ]
  in
  match Trace_report.depth_table events with
  | [ d0; d1 ] ->
    Helpers.check_int "depth 0" 0 d0.Trace_report.depth;
    Helpers.check_int "depth 0 calls" 1 d0.Trace_report.calls;
    Helpers.check_int "depth 1 calls" 2 d1.Trace_report.calls;
    Helpers.check_bool "depth 1 total" true
      (Float.abs (d1.Trace_report.total_us -. 60.) < 1e-6);
    Helpers.check_bool "depth 1 max" true
      (Float.abs (d1.Trace_report.max_us -. 40.) < 1e-6);
    Helpers.check_int "depth 1 conflicts sum" 5 d1.Trace_report.conflicts;
    Helpers.check_int "depth 1 propagations sum" 50 d1.Trace_report.propagations
  | l -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length l))

let test_multi_domain_capture () =
  (* spans emitted from worker domains land in per-domain rings and
     carry a "domain" argument; flush before the domain parks so stop
     never loses them *)
  let events =
    with_tmp (fun path ->
        Trace.start ~format:Trace.Jsonl path;
        let workers =
          Array.init 2 (fun i ->
              Domain.spawn (fun () ->
                  Trace.with_span
                    (Printf.sprintf "worker%d" i)
                    (fun () -> Trace.instant "beat");
                  Trace.flush ()))
        in
        Array.iter Domain.join workers;
        Trace.with_span "main" (fun () -> ());
        Trace.stop ();
        Trace.read_file path)
  in
  let by_name n =
    List.filter (fun (e : Trace.event) -> e.Trace.name = n) events
  in
  Helpers.check_int "both workers traced" 1 (List.length (by_name "worker0"));
  Helpers.check_int "both workers traced" 1 (List.length (by_name "worker1"));
  Helpers.check_int "main traced" 1 (List.length (by_name "main"));
  let domain_of (e : Trace.event) =
    match List.assoc_opt "domain" e.Trace.args with
    | Some (Trace.Int d) -> d
    | _ -> 0
  in
  List.iter
    (fun n ->
      List.iter
        (fun e ->
          Helpers.check_bool (n ^ " has a nonzero domain tag") true
            (domain_of e <> 0))
        (by_name n))
    [ "worker0"; "worker1" ];
  List.iter
    (fun e -> Helpers.check_int "main stays domain 0" 0 (domain_of e))
    (by_name "main")

let test_exited_domains_leave_registry () =
  (* one domain after another, each recording once under an active
     trace: every event reaches the sink, and the registry keeps a
     buffer per live domain only, not one per domain ever spawned *)
  let n = 64 in
  let events, before, after =
    with_tmp (fun path ->
        Trace.start ~format:Trace.Jsonl path;
        Obs.span "t.main" (fun () -> ());
        let before = Trace.registered () in
        for i = 1 to n do
          Domain.join
            (Domain.spawn (fun () ->
                 Obs.span ~args:[ ("i", Trace.Int i) ] "t.exited" (fun () -> ())))
        done;
        let after = Trace.registered () in
        Trace.stop ();
        (Trace.read_file path, before, after))
  in
  Helpers.check_int "every exited domain's event read back" n
    (List.length
       (List.filter (fun (e : Trace.event) -> e.Trace.name = "t.exited") events));
  Helpers.check_bool "exited domains left the registry" true (after <= before)

let test_corr_attr_attached () =
  (* spans emitted under a correlation context carry the "corr"
     attribute, without any caller plumbing *)
  let events =
    with_tmp (fun path ->
        Trace.start ~format:Trace.Jsonl path;
        Obs.Log.with_corr "req-9" (fun () ->
            Trace.with_span "work" (fun () -> Trace.instant "tick"));
        Trace.with_span "outside" (fun () -> ());
        Trace.stop ();
        Trace.read_file path)
  in
  let corr_of (e : Trace.event) = List.assoc_opt "corr" e.Trace.args in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.name with
      | "work" | "tick" ->
        Helpers.check_bool (e.Trace.name ^ " tagged") true
          (corr_of e = Some (Trace.String "req-9"))
      | _ ->
        Helpers.check_bool "untagged outside the context" true
          (corr_of e = None))
    events;
  Helpers.check_int "all three captured" 3 (List.length events)

let test_truncated_jsonl_tail_tolerated () =
  (* a crash mid-line must lose only that line: the complete prefix
     still reads back *)
  let events = [ ev "a" 0. 10.; ev "b" 5. 2. ] in
  let salvaged =
    with_tmp (fun path ->
        Trace.start ~format:Trace.Jsonl path;
        List.iter Trace.emit events;
        Trace.stop ();
        let text = In_channel.with_open_text path In_channel.input_all in
        (* cut the final line mid-object *)
        let cut = String.length text - 12 in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (String.sub text 0 cut));
        Trace.read_file path)
  in
  Helpers.check_int "complete prefix survives" 1 (List.length salvaged);
  Helpers.check_bool "first event intact" true
    ((List.hd salvaged).Trace.name = "a");
  (* a malformed line MID-file (followed by a complete one) is
     corruption, not truncation, and must still fail loudly *)
  with_tmp (fun path ->
      Trace.start ~format:Trace.Jsonl path;
      Trace.emit (ev "tail" 0. 1.);
      Trace.stop ();
      let good = In_channel.with_open_text path In_channel.input_all in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc ("{nope\n" ^ good));
      match Trace.read_file path with
      | _ -> Alcotest.fail "mid-file corruption must still fail"
      | exception Failure _ -> ())

let test_truncated_chrome_salvaged () =
  (* a Chrome array that never got its closing bracket (killed run)
     salvages its complete per-line objects *)
  let events = [ ev "a" 0. 10.; ev "b" 5. 2.; ev "c" 8. 1. ] in
  let salvaged =
    with_tmp (fun path ->
        Trace.start ~format:Trace.Chrome path;
        List.iter Trace.emit events;
        Trace.stop ();
        let text = In_channel.with_open_text path In_channel.input_all in
        let cut = String.length text - 10 in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (String.sub text 0 cut));
        Trace.read_file path)
  in
  Helpers.check_bool "most events recovered" true (List.length salvaged >= 2);
  Helpers.check_bool "prefix order kept" true
    (List.map (fun (e : Trace.event) -> e.Trace.name) salvaged
    = List.filteri (fun i _ -> i < List.length salvaged) [ "a"; "b"; "c" ])

let test_report_empty_trace_graceful () =
  let text = Format.asprintf "%a" (Trace_report.pp ~top:5) [] in
  Helpers.check_bool "clear empty-capture message" true
    (contains text "no events");
  Helpers.check_bool "mentions truncation as a cause" true
    (contains text "truncated")

let test_corr_table () =
  let tag corr e = { e with Trace.args = ("corr", Trace.String corr) :: e.Trace.args } in
  let events =
    [
      tag "req-0" (ev "root" 0. 100.);
      tag "req-0" (ev "child" 10. 40.);
      tag "req-1" (ev "other" 200. 30.);
      ev "untagged" 300. 5.;
    ]
  in
  match Trace_report.corr_table (Trace_report.forest events) with
  | [ r0; r1 ] ->
    Helpers.check Alcotest.string "first corr" "req-0" r0.Trace_report.c_corr;
    Helpers.check_int "req-0 groups both spans" 2 r0.Trace_report.c_spans;
    (* busy time is self time: the child's 40 is not double-counted *)
    Helpers.check_bool "req-0 busy = 100" true
      (Float.abs (r0.Trace_report.c_busy_us -. 100.) < 1e-6);
    Helpers.check Alcotest.string "second corr" "req-1" r1.Trace_report.c_corr;
    Helpers.check_int "req-1 span" 1 r1.Trace_report.c_spans
  | l -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length l))

let test_report_pp_smoke () =
  let events =
    [
      ev "engine.verify" 0. 100.;
      ev "bmc.depth" 5. 60. ~args:[ ("depth", Trace.Int 3) ];
    ]
  in
  let text = Format.asprintf "%a" (Trace_report.pp ~top:5) events in
  Helpers.check_bool "summary line" true (contains text "2 spans");
  Helpers.check_bool "self-time table" true (contains text "engine.verify");
  Helpers.check_bool "critical path" true (contains text "critical path");
  Helpers.check_bool "per-depth table" true (contains text "per-depth BMC cost")

let suite =
  [
    Alcotest.test_case "format of path" `Quick test_format_of_path;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "span capture" `Quick test_span_capture;
    Alcotest.test_case "exception annotates span" `Quick
      test_exception_annotates_span;
    Alcotest.test_case "Obs.span feeds aggregate and trace" `Quick
      test_obs_span_feeds_both;
    Alcotest.test_case "Obs.span records a raising body" `Quick
      test_obs_span_records_raise;
    Alcotest.test_case "Obs.span appends result attributes" `Quick
      test_obs_span_appends_result;
    Alcotest.test_case "Obs.span aggregates without a trace" `Quick
      test_obs_span_untraced;
    Alcotest.test_case "stop truncates open spans" `Quick
      test_stop_truncates_open_spans;
    Alcotest.test_case "unwritable sink is nonfatal" `Quick
      test_unwritable_sink_is_nonfatal;
    Alcotest.test_case "forest self time" `Quick test_forest_self_time;
    Alcotest.test_case "depth table" `Quick test_depth_table;
    Alcotest.test_case "multi-domain capture" `Quick
      test_multi_domain_capture;
    Alcotest.test_case "exited domains leave the registry" `Quick
      test_exited_domains_leave_registry;
    Alcotest.test_case "corr attr attaches under with_corr" `Quick
      test_corr_attr_attached;
    Alcotest.test_case "truncated jsonl tail tolerated" `Quick
      test_truncated_jsonl_tail_tolerated;
    Alcotest.test_case "truncated chrome salvaged" `Quick
      test_truncated_chrome_salvaged;
    Alcotest.test_case "empty trace reports gracefully" `Quick
      test_report_empty_trace_graceful;
    Alcotest.test_case "per-request corr table" `Quick test_corr_table;
    Alcotest.test_case "report pp smoke" `Quick test_report_pp_smoke;
    prop_chrome_roundtrip;
    prop_jsonl_roundtrip;
  ]
