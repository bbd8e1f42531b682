(* Obs.Baseline: snapshot diffing, meta compatibility, and the
   regression gate behind `bench --baseline`. *)

module Stats = Obs.Stats
module Report = Obs.Report
module Baseline = Obs.Baseline

let contains text needle =
  let n = String.length needle and m = String.length text in
  let rec at i = i + n <= m && (String.sub text i n = needle || at (i + 1)) in
  at 0

let sp ?(calls = 1) total = { Stats.calls; total_s = total; max_s = total }

let entry ?(meta = []) counters spans = { Baseline.meta; snap = { Stats.counters; spans } }

let meta_v1 =
  Report.
    [
      ("schema", Int 2);
      ("tool", String "bench");
      ("experiments", List [ String "table1" ]);
    ]

let test_self_diff_no_regressions () =
  let e = entry [ ("sat.solves", 10) ] [ ("bench.table1", sp 0.5) ] in
  let d = Baseline.diff ~base:e ~cur:e in
  Helpers.check_int "one counter row" 1 (List.length d.Baseline.counters);
  Helpers.check_int "one span row" 1 (List.length d.Baseline.spans);
  Helpers.check_int "self compare never regresses" 0
    (List.length (Baseline.regressions ~threshold_pct:0. d))

let test_slowdown_detected () =
  let base = entry [] [ ("bench.table1", sp 0.1) ] in
  let cur = entry [] [ ("bench.table1", sp 0.2) ] in
  let d = Baseline.diff ~base ~cur in
  match Baseline.regressions ~threshold_pct:50. d with
  | [ (name, growth) ] ->
    Helpers.check Alcotest.string "regressed span" "bench.table1" name;
    Helpers.check_bool "growth is 100%" true (Float.abs (growth -. 100.) < 1e-6)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 regression, got %d" (List.length l))

let test_threshold_is_strict () =
  let base = entry [] [ ("s", sp 0.1) ] in
  let cur = entry [] [ ("s", sp 0.15) ] in
  let d = Baseline.diff ~base ~cur in
  Helpers.check_int "exactly-at-threshold passes" 0
    (List.length (Baseline.regressions ~threshold_pct:50. d));
  Helpers.check_int "past-threshold fails" 1
    (List.length (Baseline.regressions ~threshold_pct:49. d))

let test_noise_floor () =
  (* a 900% blowup on a sub-millisecond span is noise, not a regression *)
  let base = entry [] [ ("tiny", sp 1e-5) ] in
  let cur = entry [] [ ("tiny", sp 1e-4) ] in
  let d = Baseline.diff ~base ~cur in
  Helpers.check_int "below the floor never counts" 0
    (List.length (Baseline.regressions ~threshold_pct:50. d));
  Helpers.check_int "floor is tunable" 1
    (List.length (Baseline.regressions ~min_total_s:1e-5 ~threshold_pct:50. d))

let test_outer_join () =
  let base = entry [ ("only.base", 1) ] [ ("gone", sp 0.2) ] in
  let cur = entry [ ("only.cur", 2) ] [ ("new", sp 0.3) ] in
  let d = Baseline.diff ~base ~cur in
  let counter name =
    List.find (fun (r : Baseline.counter_row) -> r.Baseline.name = name)
      d.Baseline.counters
  in
  Helpers.check_bool "base-only counter" true
    ((counter "only.base").Baseline.cur_n = None);
  Helpers.check_bool "cur-only counter" true
    ((counter "only.cur").Baseline.base_n = None);
  (* a span that vanished can't regress; a new span has no baseline *)
  Helpers.check_int "no regressions across the join" 0
    (List.length (Baseline.regressions ~threshold_pct:0. d))

let test_compat () =
  let ok = function Ok () -> true | Error _ -> false in
  let base = entry ~meta:meta_v1 [] [] in
  Helpers.check_bool "same meta" true
    (ok (Baseline.compat ~base ~cur:(entry ~meta:meta_v1 [] [])));
  Helpers.check_bool "legacy (no meta) accepted" true
    (ok (Baseline.compat ~base ~cur:(entry [] [])));
  let other_exp =
    Report.
      [
        ("schema", Int 2);
        ("tool", String "bench");
        ("experiments", List [ String "table2" ]);
      ]
  in
  Helpers.check_bool "different experiments refused" false
    (ok (Baseline.compat ~base ~cur:(entry ~meta:other_exp [] [])));
  let other_tool =
    Report.
      [
        ("schema", Int 2);
        ("tool", String "diam");
        ("experiments", List [ String "table1" ]);
      ]
  in
  Helpers.check_bool "different tool refused" false
    (ok (Baseline.compat ~base ~cur:(entry ~meta:other_tool [] [])))

let test_meta_file_roundtrip () =
  let path = Filename.temp_file "diambound_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Stats.reset ();
      Stats.count "t.k" 3;
      Obs.span "t.s" (fun () -> ());
      Report.write_file ~meta:meta_v1 path (Stats.snapshot ());
      let e = Baseline.load path in
      Helpers.check_bool "meta survives the file" true (e.Baseline.meta = meta_v1);
      Helpers.check_int "counter survives the file" 3
        (List.assoc "t.k" e.Baseline.snap.Stats.counters);
      (* legacy snapshot without meta still loads *)
      Report.write_file path (Stats.snapshot ());
      let legacy = Baseline.load path in
      Helpers.check_bool "legacy file has empty meta" true
        (legacy.Baseline.meta = []))

let test_load_errors () =
  let fails path =
    match Baseline.load path with
    | exception Failure _ -> true
    | exception Sys_error _ -> true
    | _ -> false
  in
  Helpers.check_bool "missing file" true (fails "/nonexistent/snap.json");
  let path = Filename.temp_file "diambound_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"counters\": {}";
      close_out oc;
      Helpers.check_bool "truncated JSON" true (fails path))

let test_pct () =
  Helpers.check_bool "zero base" true (Baseline.pct ~base:0. ~cur:1. = None);
  Helpers.check_bool "negative base" true (Baseline.pct ~base:(-1.) ~cur:1. = None);
  match Baseline.pct ~base:2. ~cur:3. with
  | Some p -> Helpers.check_bool "+50%" true (Float.abs (p -. 50.) < 1e-9)
  | None -> Alcotest.fail "expected a percentage"

let test_pp_smoke () =
  let base = entry [ ("c", 1) ] [ ("s", sp 0.1) ] in
  let cur = entry [ ("c", 2) ] [ ("s", sp 0.2) ] in
  let text = Format.asprintf "%a" Baseline.pp (Baseline.diff ~base ~cur) in
  Helpers.check_bool "counter row rendered" true (contains text "c");
  Helpers.check_bool "span row rendered" true (contains text "s")

let suite =
  [
    Alcotest.test_case "self diff has no regressions" `Quick
      test_self_diff_no_regressions;
    Alcotest.test_case "slowdown detected" `Quick test_slowdown_detected;
    Alcotest.test_case "threshold is strict" `Quick test_threshold_is_strict;
    Alcotest.test_case "noise floor" `Quick test_noise_floor;
    Alcotest.test_case "outer join" `Quick test_outer_join;
    Alcotest.test_case "meta compatibility" `Quick test_compat;
    Alcotest.test_case "meta file roundtrip" `Quick test_meta_file_roundtrip;
    Alcotest.test_case "load errors" `Quick test_load_errors;
    Alcotest.test_case "pct" `Quick test_pct;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
  ]
