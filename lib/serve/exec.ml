module Json = Obs.Report
module Engine = Core.Engine
module Bcache = Core.Bcache

type outcome =
  | Verdict of {
      verdict : Engine.verdict;
      body : (string * Json.json) list;
      cache : string;
    }
  | Failed of { code : string; detail : string }

let schema =
  [
    "serve.chaos_requests";
    "serve.cache.poisoned_purged";
    "serve.request_error";
  ]

let () = Obs.Stats.declare schema

let fault_of_name = function
  | "flip-to-unsat" -> Some Sat.Chaos.Flip_to_unsat
  | "flip-to-sat" -> Some Sat.Chaos.Flip_to_sat
  | "corrupt-model" -> Some Sat.Chaos.Corrupt_model
  | "drop-proof" -> Some Sat.Chaos.Drop_proof
  | _ -> None

let body_of_verdict ?injections v =
  let base =
    match v with
    | Engine.Proved { strategy; depth } ->
      [
        ("verdict", Json.String "proved");
        ("strategy", Json.String strategy);
        ("depth", Json.Int depth);
      ]
    | Engine.Violated { strategy; cex } ->
      [
        ("verdict", Json.String "violated");
        ("strategy", Json.String strategy);
        ("time", Json.Int cex.Bmc.depth);
      ]
    | Engine.Inconclusive { attempts } ->
      let reason =
        if Engine.exhausted v then Engine.budget_reason
        else if Engine.cert_failed v <> None then Engine.cert_fail_reason
        else "strategies-exhausted"
      in
      [
        ("verdict", Json.String "unknown");
        ("reason", Json.String reason);
        ( "attempts",
          Json.List
            (List.map
               (fun (a : Engine.attempt) ->
                 Json.Obj
                   [
                     ("strategy", Json.String a.Engine.strategy);
                     ("reason", Json.String a.Engine.reason);
                   ])
               attempts) );
      ]
  in
  match injections with
  | Some n -> base @ [ ("injections", Json.Int n) ]
  | None -> base

let cache_name = function
  | Engine.Cache_hit -> "hit"
  | Engine.Cache_miss -> "miss"

(* [override] (diam batch's per-problem budget, which may carry
   conflict/BDD allowances the wire format has no field for) wins over
   the request's own timeout *)
let budget_of ?override (r : Request.t) =
  match override with
  | Some b -> b
  | None -> (
    match r.Request.timeout_ms with
    | None -> Obs.Budget.unlimited
    | Some ms ->
      Obs.Budget.create ~timeout_s:(float_of_int (max 0 ms) /. 1000.) ())

(* the cone fingerprint inside a cache key: "v:<fp>:..." embeds the
   32-hex-char MD5 right after the kind tag *)
let fp_of_vkey vkey = String.sub vkey 2 32

(* fallback correlation ids for front-ends that pass none (diam
   batch); the server passes deterministic "req-<seq>" ids instead *)
let corr_seq = Atomic.make 0

let run ~cache ~chaos_seed ?budget ?corr (r : Request.t) =
  let corr =
    match corr with
    | Some c -> c
    | None -> Printf.sprintf "exec-%d" (Atomic.fetch_and_add corr_seq 1)
  in
  let id_json =
    match r.Request.id with Some s -> Json.String s | None -> Json.Null
  in
  let go () =
    match r.Request.source with
    | None -> Failed { code = "bad-request"; detail = "missing netlist" }
    | Some source -> (
      match
        match source with
        | Request.Inline text -> Textio.Bench_io.parse text
        | Request.File path -> Textio.Bench_io.parse_file path
      with
      | exception Textio.Parse_error { line; msg } ->
        Failed
          {
            code = "parse-error";
            detail = Printf.sprintf "line %d: %s" line msg;
          }
      | exception Sys_error msg -> Failed { code = "io-error"; detail = msg }
      | net -> (
        let targets = Netlist.Net.targets net in
        let target =
          match r.Request.target with
          | Some t ->
            if List.mem_assoc t targets then Ok t
            else Error ("unknown target " ^ t)
          | None -> (
            match targets with
            | [ (t, _) ] -> Ok t
            | [] -> Error "netlist has no targets"
            | _ -> Error "netlist has several targets; name one")
        in
        match target with
        | Error detail -> Failed { code = "bad-request"; detail }
        | Ok target -> (
          let config =
            match r.Request.cutoff with
            | Some cutoff -> { Engine.default with Engine.cutoff }
            | None -> Engine.default
          in
          let certify = r.Request.certify in
          let budget () = budget_of ?override:budget r in
          (* a derivation that neither reads nor writes the cache *)
          let fresh () =
            Engine.verify ~config ~budget:(budget ()) ~certify net ~target
          in
          match (r.Request.chaos, chaos_seed) with
          | Some _, None ->
            Failed
              {
                code = "bad-request";
                detail = "chaos requires the server to be armed (DIAMBOUND_CHAOS_SEED)";
              }
          | Some "crash", Some _ ->
            (* the crash drill: an exception escaping the request body,
               contained by the barrier in [run] *)
            failwith "chaos: injected crash"
          | Some name, Some seed -> (
            Obs.Stats.count "serve.chaos_requests" 1;
            match fault_of_name name with
            | None ->
              Failed
                { code = "bad-request"; detail = "unknown chaos fault " ^ name }
            | Some fault ->
              (* scoped to this worker domain: concurrent innocent
                 requests on other workers never observe the fault.
                 The cache is bypassed in BOTH directions — a fault
                 must neither read a clean cached answer (it would mask
                 the injection) nor write anything back *)
              let v, injections =
                Sat.Chaos.with_fault_scoped ~seed fault fresh
              in
              Verdict
                {
                  verdict = v;
                  body = body_of_verdict ~injections v;
                  cache = "bypass";
                })
          | None, _ -> (
            let v, status =
              Engine.verify_cached ~config ~budget:(budget ()) ~certify ~cache
                net ~target
            in
            match (status, chaos_seed) with
            | Engine.Cache_hit, Some _ -> (
              (* Differential replay under chaos arming: a hit is
                 re-derived from scratch before being served.  A
                 mismatch means the cached entry is poisoned — purge
                 everything about this cone and serve the fresh
                 answer, so a fault can never be replayed out of the
                 cache. *)
              let fresh = fresh () in
              if
                String.equal (Engine.verdict_brief v)
                  (Engine.verdict_brief fresh)
                || Engine.exhausted fresh
              then
                (* an exhausted replay (the requester brought a starved
                   budget) is no evidence against the cached proof —
                   only a CONCLUSIVE disagreement convicts an entry *)
                Verdict { verdict = v; body = body_of_verdict v; cache = "hit" }
              else begin
                let vkey = Engine.cache_key ~config ~certify net ~target in
                let fp = fp_of_vkey vkey in
                let holds_fp k =
                  String.length k >= 34 && String.equal (String.sub k 2 32) fp
                in
                let purged = Bcache.purge cache (fun k _ -> holds_fp k) in
                Obs.Stats.count "serve.cache.poisoned_purged" (max 1 purged);
                Obs.Log.error "serve.cache.poisoned"
                  [
                    ("id", id_json);
                    ("fingerprint", Json.String fp);
                    ("purged", Json.Int purged);
                  ];
                Verdict
                  {
                    verdict = fresh;
                    body = body_of_verdict fresh;
                    cache = "purged";
                  }
              end)
            | _ ->
              Verdict
                {
                  verdict = v;
                  body = body_of_verdict v;
                  cache = cache_name status;
                }
            ))))
  in
  (* The per-request exception barrier: NOTHING a request does — parse
     failure, solver crash, injected fault — may take the serving loop
     down.  Anything escaping the handlers above becomes a structured
     "internal" error response.

     The whole request runs under its correlation context (log lines,
     trace spans and heartbeats all join on [corr]) and is visible in
     the in-flight table from first to last instruction. *)
  Obs.Log.with_corr corr (fun () ->
      Obs.Heartbeat.register ~phase:"start" corr;
      Fun.protect
        ~finally:(fun () -> Obs.Heartbeat.finish corr)
        (fun () ->
          let outcome =
            match go () with
            | outcome -> outcome
            | exception e ->
              Obs.Stats.count "serve.request_error" 1;
              Failed { code = "internal"; detail = Printexc.to_string e }
          in
          (* formerly-silent failure paths become log events; the
             response itself is unchanged *)
          (match outcome with
          | Failed { code = "internal"; detail } ->
            Obs.Log.error "serve.request.crashed"
              [ ("id", id_json); ("detail", Json.String detail) ]
          | Failed { code; detail } ->
            Obs.Log.warn "serve.request.failed"
              [
                ("id", id_json);
                ("code", Json.String code);
                ("detail", Json.String detail);
              ]
          | Verdict _ -> ());
          outcome))
