module Stats = Obs.Stats
module Report = Obs.Report
module Net = Netlist.Net
module Lit = Netlist.Lit

(* the registry is process-global; isolate each case *)
let fresh () = Stats.reset ()

let contains text needle =
  let n = String.length needle and m = String.length text in
  let rec at i = i + n <= m && (String.sub text i n = needle || at (i + 1)) in
  at 0

let test_counters () =
  fresh ();
  Stats.count "t.a" 1;
  Stats.count "t.a" 2;
  Stats.set_gauge "t.b" 7;
  Stats.set_gauge "t.b" 4;
  Stats.max_gauge "t.c" 3;
  Stats.max_gauge "t.c" 9;
  Stats.max_gauge "t.c" 5;
  let snap = Stats.snapshot () in
  let get name = List.assoc name snap.Stats.counters in
  Helpers.check_int "count accumulates" 3 (get "t.a");
  Helpers.check_int "set overwrites" 4 (get "t.b");
  Helpers.check_int "max keeps the max" 9 (get "t.c");
  (* snapshot is sorted by name *)
  let names = List.map fst snap.Stats.counters in
  Helpers.check_bool "counters sorted" true (List.sort compare names = names)

let test_spans () =
  fresh ();
  let v = Obs.span "t.span" (fun () -> 41 + 1) in
  Helpers.check_int "span returns the value" 42 v;
  Obs.span "t.span" (fun () -> ());
  (* exceptions still record the span *)
  (try Obs.span "t.span" (fun () -> failwith "boom") with Failure _ -> ());
  let snap = Stats.snapshot () in
  let sp = List.assoc "t.span" snap.Stats.spans in
  Helpers.check_int "three calls recorded" 3 sp.Stats.calls;
  Helpers.check_bool "total >= max" true (sp.Stats.total_s >= sp.Stats.max_s);
  Helpers.check_bool "non-negative" true (sp.Stats.total_s >= 0.)

let test_reset () =
  fresh ();
  Stats.count "t.x" 5;
  Obs.span "t.y" (fun () -> ());
  Stats.reset ();
  let snap = Stats.snapshot () in
  Helpers.check_int "counter zeroed, still registered" 0
    (List.assoc "t.x" snap.Stats.counters);
  Helpers.check_int "span zeroed, still registered" 0
    (List.assoc "t.y" snap.Stats.spans).Stats.calls

(* the fields of a parsed JSON object, in document order *)
let fields = function
  | Report.Obj kv -> kv
  | _ -> Alcotest.fail "expected an object"

let member name json =
  match List.assoc_opt name (fields json) with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing field %S" name)

let test_json_roundtrip () =
  fresh ();
  Stats.count "t.n" 12;
  Stats.set_gauge "t.g" 0;
  Obs.span "t.s" (fun () -> ());
  let snap = Stats.snapshot () in
  let json = Report.json_of_snapshot snap in
  let back = Report.parse (Report.to_string json) in
  Helpers.check_bool "parses back to the same tree" true (back = json);
  Helpers.check_bool "counters and spans only" true
    (List.map fst (fields back) = [ "counters"; "spans" ]);
  Helpers.check_bool "counters survive the round trip" true
    (fields (member "counters" back)
    = List.map (fun (name, n) -> (name, Report.Int n)) snap.Stats.counters);
  Helpers.check_bool "spans survive the round trip" true
    (List.map
       (fun (name, sp) ->
         ( name,
           ( member "calls" sp,
             member "total_s" sp,
             member "max_s" sp ) ))
       (fields (member "spans" back))
    = List.map
        (fun (name, sp) ->
          ( name,
            ( Report.Int sp.Stats.calls,
              Report.Float sp.Stats.total_s,
              Report.Float sp.Stats.max_s ) ))
        snap.Stats.spans)

let test_json_escapes () =
  let json =
    Report.Obj
      [
        ("quote\"back\\slash", Report.String "tab\t nl\n");
        ("nums", Report.List [ Report.Int (-3); Report.Float 0.125; Report.Null ]);
        ("flag", Report.Bool true);
      ]
  in
  let text = Report.to_string json in
  Helpers.check_bool "escaped round trip" true (Report.parse text = json)

let test_nonfinite_floats () =
  (* regression: "%.17g" used to print nan/inf literally, producing
     invalid JSON that no parser (including ours) would read back *)
  let json =
    Report.Obj
      [
        ("a", Report.Float Float.nan);
        ("b", Report.Float Float.infinity);
        ("c", Report.Float Float.neg_infinity);
        ("d", Report.Float 1.5);
      ]
  in
  let text = Report.to_string json in
  Helpers.check_bool "no bare nan" false (contains text "nan");
  Helpers.check_bool "no bare inf" false (contains text "inf");
  (* it parses back, with non-finite values as null *)
  match Report.parse text with
  | Report.Obj fields ->
    Helpers.check_bool "nan emitted as null" true
      (List.assoc "a" fields = Report.Null);
    Helpers.check_bool "inf emitted as null" true
      (List.assoc "b" fields = Report.Null);
    Helpers.check_bool "-inf emitted as null" true
      (List.assoc "c" fields = Report.Null);
    Helpers.check_bool "finite float intact" true
      (List.assoc "d" fields = Report.Float 1.5)
  | _ -> Alcotest.fail "expected an object"

let test_nonfinite_span_roundtrips () =
  (* a snapshot carrying a non-finite span total must still produce
     parseable JSON and survive the snapshot round trip *)
  fresh ();
  Stats.add_span "t.bad" Float.nan;
  let snap = Stats.snapshot () in
  let text = Report.to_string (Report.json_of_snapshot snap) in
  let sp = member "t.bad" (member "spans" (Report.parse text)) in
  Helpers.check_bool "nan total emitted as null" true
    (member "total_s" sp = Report.Null);
  Helpers.check_bool "calls intact" true (member "calls" sp = Report.Int 1)

let test_parse_errors () =
  let bad s =
    match Report.parse s with
    | exception Failure _ -> true
    | _ -> false
  in
  Helpers.check_bool "truncated object" true (bad "{\"a\": 1");
  Helpers.check_bool "bare word" true (bad "nope");
  Helpers.check_bool "trailing garbage" true (bad "{} {}");
  Helpers.check_bool "unterminated string" true (bad "{\"a\": \"x");
  Helpers.check_bool "bad escape" true (bad "{\"a\": \"\\q\"}");
  Helpers.check_bool "truncated unicode escape" true (bad "{\"a\": \"\\u00");
  Helpers.check_bool "truncated list" true (bad "[1, 2");
  Helpers.check_bool "missing colon" true (bad "{\"a\" 1}");
  Helpers.check_bool "empty input" true (bad "")

let test_parse_oddities () =
  (* not rejected, but the behavior is pinned: duplicate keys are both
     kept and assoc-lookup sees the first; overflowing float literals
     become infinity (re-emitted as null) *)
  (match Report.parse "{\"a\": 1, \"a\": 2}" with
  | Report.Obj fields ->
    Helpers.check_bool "duplicate keys: first wins" true
      (List.assoc "a" fields = Report.Int 1);
    Helpers.check_int "duplicate keys both kept" 2 (List.length fields)
  | _ -> Alcotest.fail "expected an object");
  match Report.parse "{\"big\": 1e999}" with
  | Report.Obj fields ->
    Helpers.check_bool "1e999 parses to infinity" true
      (List.assoc "big" fields = Report.Float Float.infinity)
  | _ -> Alcotest.fail "expected an object"

let test_now_monotonic () =
  (* satellite: Stats.now must never run backwards (the old
     gettimeofday base jumped under NTP), so durations derived from it
     stay non-negative *)
  let prev = ref (Stats.now ()) in
  for _ = 1 to 10_000 do
    let t = Stats.now () in
    if t < !prev then
      Alcotest.fail (Printf.sprintf "clock ran backwards: %g -> %g" !prev t);
    prev := t
  done

let test_add_span_clamps_negative () =
  fresh ();
  Stats.add_span "t.neg" (-0.5);
  let sp = List.assoc "t.neg" (Stats.snapshot ()).Stats.spans in
  Helpers.check_bool "negative duration clamped to zero" true
    (sp.Stats.total_s = 0. && sp.Stats.max_s = 0.);
  Helpers.check_int "call still counted" 1 sp.Stats.calls

let test_engine_populates_stats () =
  (* end-to-end: a verify run flows through every instrumented layer *)
  fresh ();
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r0 = Net.add_reg net ~init:Net.Init0 "r0" in
  let r1 = Net.add_reg net ~init:Net.Init1 "r1" in
  Net.set_next net r0 a;
  Net.set_next net r1 (Lit.neg a);
  Net.add_target net "t" (Net.add_and net r0 r1);
  (match Core.Engine.verify net ~target:"t" with
  | Core.Engine.Proved _ -> ()
  | v ->
    Alcotest.fail (Format.asprintf "unexpected: %a" Core.Engine.pp_verdict v));
  let snap = Stats.snapshot () in
  let counter name = List.assoc name snap.Stats.counters in
  Helpers.check_bool "solver ran" true (counter "sat.solves" > 0);
  Helpers.check_bool "propagations counted" true
    (counter "sat.propagations" > 0);
  Helpers.check_bool "encoding counted" true (counter "encode.vars" > 0);
  Helpers.check_int "verdict counted" 1 (counter "engine.proved");
  let span name = List.assoc name snap.Stats.spans in
  Helpers.check_bool "probe span recorded" true
    ((span "engine.bmc-probe").Stats.calls = 1);
  Helpers.check_bool "probe span timed" true
    ((span "engine.bmc-probe").Stats.total_s >= 0.)

let test_multi_domain_counters () =
  (* counters are atomics and span tables are per-domain: hammering
     from several domains at once must lose no update *)
  fresh ();
  let per_domain = 10_000 in
  let workers =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Stats.count "mt.hits" 1
            done;
            Stats.add_span (Printf.sprintf "mt.work.d%d" d) 0.001))
  in
  Array.iter Domain.join workers;
  let snap = Stats.snapshot () in
  Helpers.check_int "no update lost" (4 * per_domain)
    (List.assoc "mt.hits" snap.Stats.counters);
  (* every domain's span table is merged into the snapshot *)
  for d = 0 to 3 do
    let name = Printf.sprintf "mt.work.d%d" d in
    Helpers.check_bool (name ^ " merged") true
      (List.mem_assoc name snap.Stats.spans)
  done

let test_retired_domains_fold () =
  (* a domain's span table outlives it only as part of the retired
     aggregate: domains spawned and joined one after another each
     leave their span behind, and reset zeroes it with the rest *)
  fresh ();
  for _ = 1 to 8 do
    Domain.join (Domain.spawn (fun () -> Obs.span "t.retired" (fun () -> ())))
  done;
  let calls () =
    (List.assoc "t.retired" (Stats.snapshot ()).Stats.spans).Stats.calls
  in
  Helpers.check_int "every exited domain's call survives" 8 (calls ());
  Stats.reset ();
  Helpers.check_int "reset zeroes the retired aggregate" 0 (calls ())

(* satellite: dist reservoirs are shared (mutex-guarded), so the
   folded percentile counters must not depend on WHICH domain recorded
   each sample — scatter the same samples over 4 worker domains and
   demand the exact counters of the single-domain recording *)
let qcheck_dist_domain_independent =
  Helpers.qtest ~count:25 "dist percentiles are domain-independent"
    QCheck.(list_of_size Gen.(int_range 1 64) (int_bound 10_000))
    (fun samples ->
      fresh ();
      List.iter (fun v -> Stats.dist "qc.single" (float_of_int v)) samples;
      let chunks = Array.make 4 [] in
      List.iteri (fun i v -> chunks.(i mod 4) <- v :: chunks.(i mod 4)) samples;
      let workers =
        Array.map
          (fun chunk ->
            Domain.spawn (fun () ->
                List.iter
                  (fun v -> Stats.dist "qc.multi" (float_of_int v))
                  chunk))
          chunks
      in
      Array.iter Domain.join workers;
      let snap = Stats.snapshot () in
      let get name sfx = List.assoc (name ^ sfx) snap.Stats.counters in
      List.for_all
        (fun sfx -> get "qc.single" sfx = get "qc.multi" sfx)
        [ ".count"; ".p50"; ".p90"; ".p99"; ".max" ])

(* a reservoir outgrows its first allocation without losing a sample:
   1000 samples 0..999, recorded in a scrambled order *)
let test_dist_grows () =
  fresh ();
  for i = 0 to 999 do
    Stats.dist "t.grow" (float_of_int (i * 7919 mod 1000))
  done;
  let counters = (Stats.snapshot ()).Stats.counters in
  List.iter
    (fun (sfx, want) ->
      Helpers.check_int sfx want (List.assoc ("t.grow" ^ sfx) counters))
    [
      (".count", 1000); (".p50", 499); (".p90", 899); (".p99", 989);
      (".max", 999);
    ]

let test_pp_human_smoke () =
  fresh ();
  Stats.count "t.k" 2;
  Obs.span "t.t" (fun () -> ());
  let text = Format.asprintf "%a" Report.pp_human (Stats.snapshot ()) in
  Helpers.check_bool "mentions the counter" true (contains text "t.k");
  Helpers.check_bool "mentions the span" true (contains text "t.t")

let suite =
  [
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "spans" `Quick test_spans;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json escapes" `Quick test_json_escapes;
    Alcotest.test_case "non-finite floats emit null" `Quick
      test_nonfinite_floats;
    Alcotest.test_case "non-finite span roundtrips" `Quick
      test_nonfinite_span_roundtrips;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse oddities" `Quick test_parse_oddities;
    Alcotest.test_case "now is monotonic" `Quick test_now_monotonic;
    Alcotest.test_case "add_span clamps negatives" `Quick
      test_add_span_clamps_negative;
    Alcotest.test_case "engine populates stats" `Quick
      test_engine_populates_stats;
    Alcotest.test_case "multi-domain counters merge" `Quick
      test_multi_domain_counters;
    Alcotest.test_case "retired domains fold into the aggregate" `Quick
      test_retired_domains_fold;
    qcheck_dist_domain_independent;
    Alcotest.test_case "dist reservoir grows" `Quick test_dist_grows;
    Alcotest.test_case "pp_human smoke" `Quick test_pp_human_smoke;
  ]
