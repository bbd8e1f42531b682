(* diam serve: the wire schema, the LRU verdict cache, the per-request
   exception barrier, and full in-memory session drills (supervision,
   backpressure, chaos-tested cache coherence). *)

module Request = Serve.Request
module Exec = Serve.Exec
module Server = Serve.Server
module Bcache = Core.Bcache
module Engine = Core.Engine

let counter name = Obs.Stats.counter_value (Obs.Stats.counter name)

(* inline .bench fixtures: a target that can never be hit (proved at
   depth 0 by the structural bound) and one hit immediately *)
let proved_bench = "OUTPUT(t0)\nconst0 = CONST0()\nt0 = BUFF(const0)"
let violated_bench = "OUTPUT(t0)\nconst1 = CONST1()\nt0 = BUFF(const1)"

let mb = 1024 * 1024

let fresh_cache () = Bcache.create ~max_bytes:mb ()

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_contains what sub s =
  if not (contains ~sub s) then
    Alcotest.failf "%s: expected %S inside %S" what sub s

(* ---- request parsing ---- *)

let test_parse_roundtrip () =
  match
    Request.parse
      {|{"id":"r1","op":"verify","netlist":"OUTPUT(t)","target":"t","timeout_ms":250,"certify":false,"cutoff":9,"chaos":"flip-to-sat","future_field":[1,2]}|}
  with
  | Error e -> Alcotest.failf "parse failed: %s" e.Request.detail
  | Ok r ->
    Helpers.check_bool "id" true (r.Request.id = Some "r1");
    Helpers.check_bool "op" true (r.Request.op = Request.Verify);
    Helpers.check_bool "source" true
      (r.Request.source = Some (Request.Inline "OUTPUT(t)"));
    Helpers.check_bool "target" true (r.Request.target = Some "t");
    Helpers.check_bool "timeout" true (r.Request.timeout_ms = Some 250);
    Helpers.check_bool "certify" true (r.Request.certify = false);
    Helpers.check_bool "cutoff" true (r.Request.cutoff = Some 9);
    Helpers.check_bool "chaos" true (r.Request.chaos = Some "flip-to-sat")

let test_parse_defaults () =
  match Request.parse {|{"netlist_file":"x.bench"}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e.Request.detail
  | Ok r ->
    Helpers.check_bool "op defaults to verify" true
      (r.Request.op = Request.Verify);
    Helpers.check_bool "certify defaults to true" true r.Request.certify;
    Helpers.check_bool "file source" true
      (r.Request.source = Some (Request.File "x.bench"))

let test_parse_errors () =
  let code line =
    match Request.parse line with
    | Ok _ -> Alcotest.failf "expected an error for %s" line
    | Error e -> (e.Request.err_id, e.Request.code)
  in
  Helpers.check_bool "malformed json" true
    (snd (code "{nope") = "bad-json");
  Helpers.check_bool "non-object" true (snd (code "[1,2]") = "bad-request");
  (* the id is salvaged even when another field is mistyped, so the
     error response still correlates with its request *)
  Helpers.check_bool "typed field with salvaged id" true
    (code {|{"id":"x","op":"verify","timeout_ms":"soon"}|}
    = (Some "x", "bad-request"));
  Helpers.check_bool "unknown op" true
    (snd (code {|{"op":"dance"}|}) = "bad-request");
  Helpers.check_bool "exclusive sources" true
    (snd (code {|{"netlist":"a","netlist_file":"b"}|}) = "bad-request")

let test_coalesce_key () =
  let req line =
    match Request.parse line with
    | Ok r -> r
    | Error e -> Alcotest.failf "parse: %s" e.Request.detail
  in
  let k1 = Request.coalesce_key (req {|{"id":"a","netlist":"N"}|}) in
  let k2 = Request.coalesce_key (req {|{"id":"b","netlist":"N"}|}) in
  Helpers.check_bool "id excluded from the key" true (k1 = k2 && k1 <> None);
  Helpers.check_bool "different payloads differ" true
    (k1 <> Request.coalesce_key (req {|{"netlist":"M"}|}));
  Helpers.check_bool "chaos never coalesces" true
    (Request.coalesce_key (req {|{"netlist":"N","chaos":"crash"}|}) = None);
  Helpers.check_bool "only verify coalesces" true
    (Request.coalesce_key (req {|{"op":"ping"}|}) = None)

(* ---- the LRU verdict cache ---- *)

let proved_payload = Bcache.Proved { strategy = "s"; depth = 1 }

let test_bcache_lru_eviction () =
  (* size the budget from a measured entry so the estimate's constants
     stay internal to Bcache *)
  let probe = Bcache.create ~max_bytes:mb () in
  Bcache.add probe "k1" proved_payload;
  let entry = Bcache.bytes probe in
  let c = Bcache.create ~max_bytes:((2 * entry) + (entry / 2)) () in
  Bcache.add c "k1" proved_payload;
  Bcache.add c "k2" proved_payload;
  Helpers.check_int "both resident" 2 (Bcache.length c);
  (* touch k1 so k2 is now the cold end *)
  Helpers.check_bool "k1 hit" true (Bcache.find c "k1" <> None);
  Bcache.add c "k3" proved_payload;
  Helpers.check_int "evicted down to budget" 2 (Bcache.length c);
  Helpers.check_bool "recently-used survived" true (Bcache.find c "k1" <> None);
  Helpers.check_bool "cold end evicted" true (Bcache.find c "k2" = None);
  Helpers.check_bool "new entry resident" true (Bcache.find c "k3" <> None)

let test_bcache_oversize_refused () =
  let probe = Bcache.create ~max_bytes:mb () in
  Bcache.add probe "k" proved_payload;
  let entry = Bcache.bytes probe in
  let c = Bcache.create ~max_bytes:(entry - 1) () in
  Bcache.add c "k" proved_payload;
  Helpers.check_int "refused, not cycled" 0 (Bcache.length c);
  Helpers.check_int "no resident bytes" 0 (Bcache.bytes c)

let test_bcache_purge () =
  let c = fresh_cache () in
  Bcache.add c "v:aa:1" proved_payload;
  Bcache.add c "v:aa:2" proved_payload;
  Bcache.add c "v:bb:1" proved_payload;
  let n =
    Bcache.purge c (fun k _ -> String.length k >= 4 && String.sub k 2 2 = "aa")
  in
  Helpers.check_int "purged the fingerprint's entries" 2 n;
  Helpers.check_int "others survive" 1 (Bcache.length c);
  Helpers.check_bool "survivor is the other cone" true
    (Bcache.find c "v:bb:1" <> None)

let test_bcache_replace_updates_bytes () =
  let c = fresh_cache () in
  Bcache.add c "k" proved_payload;
  let b1 = Bcache.bytes c in
  Bcache.add c "k"
    (Bcache.Proved { strategy = "a-much-longer-strategy-name"; depth = 3 });
  Helpers.check_int "still one entry" 1 (Bcache.length c);
  Helpers.check_bool "byte estimate tracked the replacement" true
    (Bcache.bytes c <> b1)

let test_bcache_violated_roundtrip () =
  (* a counterexample is stored packed: a hit must give back the same
     inputs and initial values, in their order *)
  let cex =
    {
      Bmc.depth = 3;
      inputs = [ (4, 0, true); (7, 0, false); (4, 3, false); (12, 2, true) ];
      init_x = [ (9, true); (2, false) ];
    }
  in
  let c = fresh_cache () in
  Bcache.add c "k" (Bcache.Violated { strategy = "bmc"; cex });
  Helpers.check_bool "same counterexample" true
    (match Bcache.find c "k" with
    | Some (Bcache.Violated { strategy = "bmc"; cex = got }) -> got = cex
    | _ -> false);
  Helpers.check_int "purge sees it violated" 1
    (Bcache.purge c (fun _ -> function
       | Bcache.Violated { cex = got; _ } -> got = cex
       | Bcache.Proved _ -> false))

(* ---- the request barrier (Exec) ---- *)

let verify_req ?id ?(netlist = proved_bench) ?target ?timeout_ms
    ?(certify = true) ?cutoff ?chaos () =
  {
    Request.id;
    op = Request.Verify;
    source = Some (Request.Inline netlist);
    target;
    timeout_ms;
    certify;
    cutoff;
    chaos;
  }

let test_exec_barrier () =
  let cache = fresh_cache () in
  let failed code r =
    match Exec.run ~cache ~chaos_seed:None r with
    | Exec.Failed { code = c; _ } -> Helpers.check Alcotest.string "error code" code c
    | Exec.Verdict _ -> Alcotest.failf "expected a %s error" code
  in
  failed "parse-error" (verify_req ~netlist:"t0 = NONSENSE(" ());
  failed "bad-request" (verify_req ~target:"no-such-target" ());
  failed "bad-request" { (verify_req ()) with Request.source = None };
  failed "io-error"
    {
      (verify_req ()) with
      Request.source = Some (Request.File "/nonexistent/x.bench");
    };
  (* chaos without arming is a client error, not an injection *)
  failed "bad-request" (verify_req ~chaos:"flip-to-sat" ());
  (* an armed crash drill dies INSIDE the barrier: structured internal
     error, counted, never an escaped exception *)
  let errors_before = counter "serve.request_error" in
  (match
     Exec.run ~cache ~chaos_seed:(Some 3) (verify_req ~chaos:"crash" ())
   with
  | Exec.Failed { code = c; _ } -> Helpers.check Alcotest.string "code" "internal" c
  | Exec.Verdict _ -> Alcotest.fail "crash drill must fail structurally");
  Helpers.check_int "request_error counted" (errors_before + 1)
    (counter "serve.request_error")

let test_exec_budget_degrades () =
  let cache = fresh_cache () in
  match Exec.run ~cache ~chaos_seed:None (verify_req ~timeout_ms:0 ()) with
  | Exec.Failed { code = c; _ } -> Alcotest.failf "expected a verdict, got %s" c
  | Exec.Verdict { verdict; _ } -> (
    match verdict with
    | Engine.Inconclusive _ ->
      Helpers.check_bool "budget exhaustion reported" true
        (Engine.exhausted verdict)
    | _ -> Alcotest.fail "an expired budget must degrade to unknown")

let test_exec_cache_hit () =
  let cache = fresh_cache () in
  let run () = Exec.run ~cache ~chaos_seed:None (verify_req ()) in
  (match run () with
  | Exec.Verdict { cache = c; _ } -> Helpers.check Alcotest.string "first" "miss" c
  | Exec.Failed { detail; _ } -> Alcotest.failf "first run failed: %s" detail);
  match run () with
  | Exec.Verdict { verdict; cache = c; _ } ->
    Helpers.check Alcotest.string "second" "hit" c;
    Helpers.check_bool "served verdict is the proof" true
      (match verdict with Engine.Proved _ -> true | _ -> false)
  | Exec.Failed { detail; _ } -> Alcotest.failf "second run failed: %s" detail

let test_exec_uncertified_not_cached () =
  (* only certified conclusive results may enter the cache: an
     uncertified run must stay a miss forever *)
  let cache = fresh_cache () in
  let run () =
    Exec.run ~cache ~chaos_seed:None (verify_req ~certify:false ())
  in
  ignore (run ());
  match run () with
  | Exec.Verdict { cache = c; _ } ->
    Helpers.check Alcotest.string "still a miss" "miss" c
  | Exec.Failed { detail; _ } -> Alcotest.failf "run failed: %s" detail

let test_exec_poisoned_hit_purged () =
  (* plant a poisoned entry under the exact key the request computes,
     arm chaos: the differential replay must catch the mismatch, purge
     the cone's entries and serve the fresh answer *)
  let cache = fresh_cache () in
  let net = Textio.Bench_io.parse proved_bench in
  let vkey = Engine.cache_key ~certify:true net ~target:"t0" in
  Bcache.add cache vkey (Bcache.Proved { strategy = "bogus"; depth = 42 });
  let purged_before = counter "serve.cache.poisoned_purged" in
  (match Exec.run ~cache ~chaos_seed:(Some 11) (verify_req ()) with
  | Exec.Failed { detail; _ } -> Alcotest.failf "run failed: %s" detail
  | Exec.Verdict { verdict; cache = c; _ } ->
    Helpers.check Alcotest.string "served as purged" "purged" c;
    Helpers.check_bool "fresh verdict, not the poisoned one" true
      (match verdict with
      | Engine.Proved { depth; _ } -> depth <> 42
      | _ -> false));
  Helpers.check_bool "purge counted" true
    (counter "serve.cache.poisoned_purged" > purged_before);
  Helpers.check_bool "poisoned entry gone" true (Bcache.find cache vkey = None)

let test_exec_key_separates_configs () =
  (* the one cache key must still tell configurations apart: a cutoff
     or certification change is a different question about the cone *)
  let cache = fresh_cache () in
  let answer what ?cutoff ?certify want =
    match Exec.run ~cache ~chaos_seed:None (verify_req ?cutoff ?certify ()) with
    | Exec.Verdict { cache = c; _ } -> Helpers.check Alcotest.string what want c
    | Exec.Failed { detail; _ } -> Alcotest.failf "%s failed: %s" what detail
  in
  answer "default cutoff, first" "miss";
  answer "default cutoff, again" "hit";
  answer "cutoff 9, first" ~cutoff:9 "miss";
  answer "cutoff 9, again" ~cutoff:9 "hit";
  answer "uncertified" ~certify:false "miss"

(* ---- full sessions ---- *)

let run_lines ?cache cfg lines =
  let remaining = ref lines in
  let input () =
    match !remaining with
    | [] -> None
    | l :: rest ->
      remaining := rest;
      Some l
  in
  let out = ref [] in
  let output l = out := l :: !out in
  let ending = Server.run_session ?cache cfg ~input ~output () in
  (ending, List.rev !out)

let inline_verify ?(id = "v") ?(bench = proved_bench) () =
  let escaped = String.concat {|\n|} (String.split_on_char '\n' bench) in
  Printf.sprintf {|{"id":%S,"op":"verify","netlist":"%s"}|} id escaped

let test_session_mixed () =
  let lines =
    [
      {|{"id":"p","op":"ping"}|};
      inline_verify ~id:"v1" ();
      "";
      {|{"id":"d","op":"drain"}|};
      inline_verify ~id:"v2" ();
      "garbage line";
      {|{"id":"bad","op":"verify"}|};
      inline_verify ~id:"v3" ~bench:violated_bench ();
      {|{"id":"s","op":"shutdown"}|};
    ]
  in
  let ending, out = run_lines Server.default_config lines in
  Helpers.check_bool "shutdown honoured" true (ending = Server.Shutdown_requested);
  (* one response per request, in request order; the blank line is free *)
  Helpers.check_int "response per request" 8 (List.length out);
  let nth i = List.nth out i in
  check_contains "ping" {|"ok":true|} (nth 0);
  check_contains "first verify" {|"cache":"miss"|} (nth 1);
  check_contains "first verify" {|"verdict":"proved"|} (nth 1);
  check_contains "drain" {|"op":"drain"|} (nth 2);
  check_contains "duplicate verify" {|"cache":"hit"|} (nth 3);
  check_contains "bad json" {|"error":"bad-json"|} (nth 4);
  check_contains "missing netlist" {|"error":"bad-request"|} (nth 5);
  check_contains "violated" {|"verdict":"violated"|} (nth 6);
  check_contains "shutdown" {|"op":"shutdown"|} (nth 7);
  (* the same corpus, any --jobs: byte-identical output *)
  let _, out2 = run_lines { Server.default_config with Server.jobs = 4 } lines in
  Helpers.check_bool "jobs-independent output" true
    (List.equal String.equal out out2)

let test_session_coalesce_adjacent_duplicates () =
  (* two identical verifies with no drain between: whether the second
     coalesces onto the in-flight leader or hits the by-then-populated
     cache, the answer must read as a hit *)
  let lines = [ inline_verify ~id:"a" (); inline_verify ~id:"b" () ] in
  let ending, out = run_lines Server.default_config lines in
  Helpers.check_bool "eof ends the session" true (ending = Server.Eof);
  Helpers.check_int "both answered" 2 (List.length out);
  check_contains "leader" {|"cache":"miss"|} (List.nth out 0);
  check_contains "duplicate" {|"cache":"hit"|} (List.nth out 1)

let test_session_stall_and_shed () =
  let cfg =
    { Server.default_config with Server.jobs = 1; queue_limit = Some 1 }
  in
  let shed_before = counter "serve.shed" in
  let lines =
    [
      {|{"id":"st","op":"stall"}|};
      inline_verify ~id:"q1" ();
      (* a DIFFERENT problem: an identical one would coalesce onto q1
         and never touch the saturated queue *)
      inline_verify ~id:"q2" ~bench:violated_bench ();
      {|{"id":"st2","op":"stall"}|};
      {|{"id":"d","op":"drain"}|};
    ]
  in
  let _, out = run_lines cfg lines in
  Helpers.check_int "all answered" 5 (List.length out);
  check_contains "stall released by drain" {|"op":"stall"|} (List.nth out 0);
  check_contains "queue slot filled" {|"id":"q1"|} (List.nth out 1);
  check_contains "overflow shed" {|"error":"overloaded"|} (List.nth out 2);
  check_contains "retry advice" {|"retry_after_ms"|} (List.nth out 2);
  check_contains "second stall refused" {|all workers already stalled|}
    (List.nth out 3);
  check_contains "drain" {|"op":"drain"|} (List.nth out 4);
  Helpers.check_int "shed counted" (shed_before + 1) (counter "serve.shed");
  (* determinism of the whole saturation drill *)
  let _, out2 = run_lines cfg lines in
  Helpers.check_bool "drill is deterministic" true
    (List.equal String.equal out out2)

let test_session_stall_requires_queue_limit () =
  let _, out = run_lines Server.default_config [ {|{"id":"st","op":"stall"}|} ] in
  check_contains "refused under blocking admission" {|stall requires|}
    (List.nth out 0)

let test_session_poison_supervision () =
  let cfg = { Server.default_config with Server.chaos_seed = Some 5 } in
  let restarts_before = counter "serve.worker.restarts" in
  let lines =
    [
      {|{"id":"po","op":"poison"}|};
      {|{"id":"d","op":"drain"}|};
      inline_verify ~id:"v" ();
    ]
  in
  let ending, out = run_lines cfg lines in
  Helpers.check_bool "eof" true (ending = Server.Eof);
  Helpers.check_int "all answered" 3 (List.length out);
  check_contains "poison acknowledged" {|"op":"poison"|} (List.nth out 0);
  check_contains "verify after the kill still works" {|"verdict":"proved"|}
    (List.nth out 2);
  Helpers.check_bool "restart observed" true
    (counter "serve.worker.restarts" > restarts_before)

let test_session_poison_requires_arming () =
  let _, out = run_lines Server.default_config [ {|{"op":"poison"}|} ] in
  check_contains "refused unarmed" {|"error":"bad-request"|} (List.nth out 0)

let test_session_chaos_never_caches_faults () =
  (* an injected fault's (uncertifiable) result must not poison the
     cache for the followup clean request *)
  let cfg = { Server.default_config with Server.chaos_seed = Some 7 } in
  let cache = fresh_cache () in
  let bench = violated_bench in
  let chaos_line =
    let escaped = String.concat {|\n|} (String.split_on_char '\n' bench) in
    Printf.sprintf
      {|{"id":"c","op":"verify","netlist":"%s","chaos":"flip-to-unsat"}|}
      escaped
  in
  let lines =
    [ chaos_line; {|{"id":"d","op":"drain"}|}; inline_verify ~id:"v" ~bench () ]
  in
  let _, out = run_lines ~cache cfg lines in
  Helpers.check_int "all answered" 3 (List.length out);
  check_contains "fault injection reported" {|"injections":|} (List.nth out 0);
  check_contains "clean request gets the true verdict" {|"verdict":"violated"|}
    (List.nth out 2)

(* ---- live telemetry ---- *)

let with_tmp_files n f =
  let paths =
    List.init n (fun _ -> Filename.temp_file "diambound_serve" ".jsonl")
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () -> f paths)

let log_events path =
  Obs.Log.to_stderr ();
  (* close the sink before reading *)
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter_map (fun line ->
         match Obs.Report.parse line with
         | Obs.Report.Obj fields -> (
           match List.assoc_opt "event" fields with
           | Some (Obs.Report.String e) -> Some (e, fields)
           | _ -> None)
         | _ -> None
         | exception Failure _ ->
           Alcotest.failf "unparseable log line: %s" line)

let test_session_metrics_op () =
  let lines =
    [
      inline_verify ~id:"v" ();
      {|{"id":"d","op":"drain"}|};
      {|{"id":"m","op":"metrics"}|};
    ]
  in
  let _, out = run_lines Server.default_config lines in
  Helpers.check_int "all answered" 3 (List.length out);
  let m = List.nth out 2 in
  check_contains "metrics is ok" {|"ok":true|} m;
  (* the embedded exposition carries the declared serve counters and
     the per-request heartbeat series (TYPE headers always present) *)
  check_contains "prometheus text" "# TYPE diambound_" m;
  check_contains "heartbeat series declared" "diambound_heartbeat_conflicts" m;
  check_contains "serve counters exported" "diambound_serve_heartbeat_registered"
    m;
  check_contains "spans exported" "_seconds_total" m

let test_session_watchdog_flight_recorder () =
  (* the chaos stall drill end-to-end: a parked worker never beats, so
     the monitor must flag it, log a warn with its correlation id, and
     dump a flight-recorder snapshot trace-report can read *)
  with_tmp_files 2 @@ function
  | [ flight; log_path ] ->
    Obs.Heartbeat.clear ();
    Obs.Log.set_file log_path;
    Fun.protect ~finally:Obs.Log.reset @@ fun () ->
    (try Sys.remove flight with Sys_error _ -> ());
    let cfg =
      {
        Server.default_config with
        Server.jobs = 1;
        queue_limit = Some 2;
        stall_window_s = Some 0.05;
        flight_path = Some flight;
        metrics_interval_s = Some 0.05;
      }
    in
    let stalls_before = counter "watchdog.stalls" in
    let dumps_before = counter "watchdog.dumps" in
    let step = ref 0 in
    let input () =
      incr step;
      match !step with
      | 1 -> Some {|{"id":"st","op":"stall"}|}
      | 2 ->
        (* give the 50ms window time to elapse while the worker parks *)
        Unix.sleepf 0.3;
        Some {|{"id":"d","op":"drain"}|}
      | _ -> None
    in
    let out = ref [] in
    let ending =
      Server.run_session cfg ~input ~output:(fun l -> out := l :: !out) ()
    in
    Helpers.check_bool "session ended at eof" true (ending = Server.Eof);
    Helpers.check_int "both requests answered" 2 (List.length !out);
    Helpers.check_bool "stall flagged" true
      (counter "watchdog.stalls" > stalls_before);
    Helpers.check_bool "flight recorded" true
      (counter "watchdog.dumps" > dumps_before);
    (* the warn line carries the parked request's correlation id *)
    let events = log_events log_path in
    let stall_warns =
      List.filter (fun (e, _) -> e = "watchdog.stall") events
    in
    Helpers.check_bool "watchdog warn logged" true (stall_warns <> []);
    List.iter
      (fun (_, fields) ->
        Helpers.check_bool "warn level" true
          (List.assoc_opt "level" fields = Some (Obs.Report.String "warn"));
        Helpers.check_bool "correlated" true
          (List.assoc_opt "corr" fields = Some (Obs.Report.String "req-0"));
        Helpers.check_bool "phase recorded" true
          (List.assoc_opt "phase" fields
          = Some (Obs.Report.String "stall.parked")))
      stall_warns;
    Helpers.check_bool "periodic metrics emitted" true
      (List.exists (fun (e, _) -> e = "metrics") events);
    (* the dump parses as a trace and names the stalled request *)
    let dumped = Obs.Trace.read_file flight in
    Helpers.check_bool "dump is non-empty" true (dumped <> []);
    let corr_of (e : Obs.Trace.event) =
      List.assoc_opt "corr" e.Obs.Trace.args
    in
    Helpers.check_bool "stalled request in the dump" true
      (List.exists
         (fun (e : Obs.Trace.event) ->
           e.Obs.Trace.name = "flight.request"
           && corr_of e = Some (Obs.Trace.String "req-0")
           && List.assoc_opt "stalled" e.Obs.Trace.args
              = Some (Obs.Trace.Bool true))
         dumped);
    Helpers.check_bool "pool state in the dump" true
      (List.exists
         (fun (e : Obs.Trace.event) -> e.Obs.Trace.name = "flight.state")
         dumped);
    (* and trace-report renders it (the per-request table shows req-0) *)
    let report = Format.asprintf "%a" (Obs.Trace_report.pp ~top:5) dumped in
    check_contains "report groups by corr" "req-0" report
  | _ -> assert false

let test_session_stdout_is_protocol_only () =
  (* with logging at its noisiest, stdout must still carry exactly the
     protocol responses: every line a JSON object with protocol keys,
     none of the log schema *)
  with_tmp_files 1 @@ function
  | [ log_path ] ->
    Obs.Log.set_file log_path;
    Obs.Log.set_level Obs.Log.Debug;
    Fun.protect ~finally:Obs.Log.reset @@ fun () ->
    let lines =
      [
        {|{"id":"p","op":"ping"}|};
        "garbage line";
        inline_verify ~id:"v" ();
        {|{"id":"m","op":"metrics"}|};
      ]
    in
    let _, out = run_lines Server.default_config lines in
    Helpers.check_int "one response per request" 4 (List.length out);
    List.iter
      (fun line ->
        match Obs.Report.parse line with
        | Obs.Report.Obj fields ->
          Helpers.check_bool "response, not a log record" true
            (List.assoc_opt "level" fields = None
            && List.assoc_opt "ts" fields = None)
        | _ -> Alcotest.failf "non-object on stdout: %s" line
        | exception Failure _ ->
          Alcotest.failf "non-JSON on stdout: %s" line)
      out;
    (* the noise went to the sink: at least the bad-request warn *)
    let events = log_events log_path in
    Helpers.check_bool "parse error logged" true
      (List.exists (fun (e, _) -> e = "serve.bad_request") events)
  | _ -> assert false

let test_session_logging_does_not_change_bytes () =
  (* the same corpus with logging off and at debug: byte-identical
     responses (metrics excluded — its text is time-dependent) *)
  let lines =
    [
      inline_verify ~id:"a" ();
      "garbage";
      {|{"id":"d","op":"drain"}|};
      inline_verify ~id:"b" ~bench:violated_bench ();
    ]
  in
  let quiet = run_lines Server.default_config lines in
  with_tmp_files 1 @@ function
  | [ log_path ] ->
    Obs.Log.set_file log_path;
    Obs.Log.set_level Obs.Log.Debug;
    Fun.protect ~finally:Obs.Log.reset @@ fun () ->
    let noisy =
      run_lines { Server.default_config with Server.jobs = 2 } lines
    in
    Helpers.check_bool "logging & jobs leave the bytes alone" true
      (snd quiet = snd noisy)
  | _ -> assert false

let test_session_eof_releases_stalls () =
  (* EOF is an implicit drain: a parked worker must be released and
     answered, not joined forever *)
  let cfg =
    { Server.default_config with Server.jobs = 1; queue_limit = Some 2 }
  in
  let ending, out = run_lines cfg [ {|{"id":"st","op":"stall"}|} ] in
  Helpers.check_bool "eof" true (ending = Server.Eof);
  Helpers.check_int "stall answered at eof" 1 (List.length out);
  check_contains "ok" {|"ok":true|} (List.nth out 0)

let test_socket_unbindable_path () =
  (* a path under a regular file cannot be bound: an input error (2),
     not an escaped Unix_error *)
  let file = Filename.temp_file "diam-serve" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Helpers.check_int "exit code" 2
    (Server.run_socket Server.default_config
       ~path:(Filename.concat file "x.sock"))

let test_socket_regular_file_kept () =
  (* a regular file at PATH is not a stale socket: it keeps its bytes
     and the server refuses to listen, an input error (2) *)
  let file = Filename.temp_file "diam-serve" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let bytes = "not a socket\n" in
  Out_channel.with_open_bin file (fun oc -> output_string oc bytes);
  Helpers.check_int "exit code" 2
    (Server.run_socket Server.default_config ~path:file);
  Helpers.check Alcotest.string "bytes kept" bytes
    (In_channel.with_open_bin file In_channel.input_all)

let suite =
  [
    Alcotest.test_case "request roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "request defaults" `Quick test_parse_defaults;
    Alcotest.test_case "request error taxonomy" `Quick test_parse_errors;
    Alcotest.test_case "coalesce key" `Quick test_coalesce_key;
    Alcotest.test_case "bcache LRU eviction" `Quick test_bcache_lru_eviction;
    Alcotest.test_case "bcache refuses oversized entries" `Quick
      test_bcache_oversize_refused;
    Alcotest.test_case "bcache purge" `Quick test_bcache_purge;
    Alcotest.test_case "bcache replacement re-accounts bytes" `Quick
      test_bcache_replace_updates_bytes;
    Alcotest.test_case "bcache violated entry round trip" `Quick
      test_bcache_violated_roundtrip;
    Alcotest.test_case "exec barrier" `Quick test_exec_barrier;
    Alcotest.test_case "exec budget degrades to unknown" `Quick
      test_exec_budget_degrades;
    Alcotest.test_case "exec cache hit" `Quick test_exec_cache_hit;
    Alcotest.test_case "exec uncertified results are not cached" `Quick
      test_exec_uncertified_not_cached;
    Alcotest.test_case "poisoned cache hit purged by replay" `Quick
      test_exec_poisoned_hit_purged;
    Alcotest.test_case "exec cache key separates configurations" `Quick
      test_exec_key_separates_configs;
    Alcotest.test_case "socket: unbindable path is an input error" `Quick
      test_socket_unbindable_path;
    Alcotest.test_case "socket: a regular file at the path is kept" `Quick
      test_socket_regular_file_kept;
    Alcotest.test_case "session: mixed corpus, jobs-independent" `Quick
      test_session_mixed;
    Alcotest.test_case "session: adjacent duplicates read as hits" `Quick
      test_session_coalesce_adjacent_duplicates;
    Alcotest.test_case "session: stall saturates, overflow sheds" `Quick
      test_session_stall_and_shed;
    Alcotest.test_case "session: stall needs --queue-limit" `Quick
      test_session_stall_requires_queue_limit;
    Alcotest.test_case "session: poison is supervised" `Quick
      test_session_poison_supervision;
    Alcotest.test_case "session: poison needs arming" `Quick
      test_session_poison_requires_arming;
    Alcotest.test_case "session: chaos cannot poison the cache" `Quick
      test_session_chaos_never_caches_faults;
    Alcotest.test_case "session: eof releases stalled workers" `Quick
      test_session_eof_releases_stalls;
    Alcotest.test_case "session: metrics op renders prometheus" `Quick
      test_session_metrics_op;
    Alcotest.test_case "session: watchdog records stalled flights" `Quick
      test_session_watchdog_flight_recorder;
    Alcotest.test_case "session: stdout carries protocol only" `Quick
      test_session_stdout_is_protocol_only;
    Alcotest.test_case "session: logging leaves response bytes alone" `Quick
      test_session_logging_does_not_change_bytes;
  ]
