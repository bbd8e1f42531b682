(* Engine.verify_portfolio: reproducibility against the sequential
   ladder, cooperative cancellation, budget starvation. *)

module Net = Netlist.Net
module Lit = Netlist.Lit

(* the portfolio contract: for every jobs count, verdict, winning
   strategy and (when inconclusive) the stand-down reasons match the
   sequential ladder exactly under an unlimited budget.  Certified with
   a counting proof sink, every executor — in-domain, a caller-owned
   one-worker pool, two workers — also replays the same number of
   proofs: only the selected cell's, after selection.  The unhittable
   target "u" makes the ladder prove, so there are proofs to count. *)
let prop_portfolio_matches_sequential =
  Helpers.qtest ~count:20 "verify_portfolio == verify (jobs 1/2/4)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let net, t = Helpers.rand_structured seed in
      Net.add_target net "u" (Net.add_and net t (Lit.neg t));
      let brief = Core.Engine.verdict_brief in
      let seq = brief (Core.Engine.verify net ~target:"t") in
      let certified target verify =
        let sunk = ref 0 in
        let v = verify ~proof_sink:(fun _ -> incr sunk) ~target in
        (brief v, !sunk)
      in
      let executors_agree target =
        let in_domain =
          certified target (fun ~proof_sink ~target ->
              Core.Engine.verify ~certify:true ~proof_sink net ~target)
        in
        let one_worker =
          Sched.Pool.with_pool ~jobs:1 (fun pool ->
              certified target (fun ~proof_sink ~target ->
                  Core.Engine.verify_portfolio ~certify:true ~proof_sink ~pool
                    net ~target))
        in
        let two_workers =
          certified target (fun ~proof_sink ~target ->
              Core.Engine.verify_portfolio ~certify:true ~proof_sink ~jobs:2
                net ~target)
        in
        one_worker = in_domain && two_workers = in_domain
      in
      List.for_all
        (fun jobs ->
          String.equal seq
            (brief (Core.Engine.verify_portfolio ~jobs net ~target:"t")))
        [ 1; 2; 4 ]
      && executors_agree "t"
      && executors_agree "u")

let test_portfolio_on_shared_pool () =
  (* a caller-owned pool survives a portfolio run — cancellation must
     leave every worker parked, not dead — and joins cleanly after *)
  let pool = Sched.Pool.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Sched.Pool.shutdown pool)
    (fun () ->
      let net = Net.create () in
      let c = Workload.Gen.counter net ~name:"c" ~bits:2 ~enable:Lit.true_ in
      Net.add_target net "t" c.Workload.Gen.out;
      (* rank 0 concludes immediately, cancelling every other rung *)
      (match Core.Engine.verify_portfolio ~pool ~jobs:2 net ~target:"t" with
      | Core.Engine.Violated { strategy = "bmc-probe"; cex } ->
        Helpers.check_int "hit at 3" 3 cex.Bmc.depth
      | v ->
        Alcotest.fail
          (Format.asprintf "unexpected: %a" Core.Engine.pp_verdict v));
      (* the workers are still alive and draining jobs *)
      let ys = Sched.Pool.map pool (fun x -> x * 2) [ 1; 2; 3 ] in
      Helpers.check_bool "pool usable after portfolio" true
        (ys = [ 2; 4; 6 ]))

let test_cancelled_ranks_record_budget_reason () =
  (* an already-expired budget starves every racing strategy: each one
     must still record its budget_reason attempt — no rung may vanish
     without a trace *)
  let net, _ = Helpers.rand_structured 42 in
  let budget = Obs.Budget.create ~timeout_s:0.0 () in
  ignore (Obs.Budget.expired budget);
  match Core.Engine.verify_portfolio ~budget ~jobs:2 net ~target:"t" with
  | Core.Engine.Inconclusive { attempts } ->
    Helpers.check_int "all seven rungs accounted for" 7 (List.length attempts);
    List.iter
      (fun (a : Core.Engine.attempt) ->
        Helpers.check Alcotest.string "reason" Core.Engine.budget_reason
          a.reason)
      attempts
  | v ->
    Alcotest.fail (Format.asprintf "unexpected: %a" Core.Engine.pp_verdict v)

let counter name = Obs.Stats.counter_value (Obs.Stats.counter name)

(* a cancelled cell records a budget_reason attempt, but its allowance
   did not run out: neither exhaustion counter moves *)
let check_not_exhausted () =
  Helpers.check_int "engine.budget_exhausted" 0
    (counter "engine.budget_exhausted");
  Helpers.check_int "budget.exhausted.engine" 0
    (counter "budget.exhausted.engine")

let test_budget_cancel_token_stops_strategies () =
  (* a pre-tripped cancellation token behaves exactly like an expired
     deadline: inconclusive, every attempt budget-starved *)
  let cancel = Atomic.make true in
  let net, _ = Helpers.rand_structured 7 in
  let budget = Obs.Budget.with_cancel (Obs.Budget.create ()) cancel in
  Obs.Stats.reset ();
  match Core.Engine.verify ~budget net ~target:"t" with
  | Core.Engine.Inconclusive { attempts } ->
    List.iter
      (fun (a : Core.Engine.attempt) ->
        Helpers.check Alcotest.string "reason" Core.Engine.budget_reason
          a.reason)
      attempts;
    check_not_exhausted ()
  | v ->
    Alcotest.fail (Format.asprintf "unexpected: %a" Core.Engine.pp_verdict v)

(* the race grid is backend-major: the whole reference ladder outranks
   every @bdd cell.  So a conclusive reference-only verdict is the
   race's verdict byte for byte, and where the reference ladder stands
   down the race reports exactly those attempts first, the bdd
   fallback's after them (or the fallback's verdict).  "u" is the
   unhittable twin of "t", so both proofs and counterexamples occur;
   the tight ladder (no probe, low cutoff, one induction step) makes
   the reference ladder stand down on some of the "t"s, or conclude
   on a later rung than the probe. *)
let prop_race_is_reference_first =
  Helpers.qtest ~count:15 "race ranks the reference ladder first (jobs 1/2)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let net, t = Helpers.rand_structured seed in
      Net.add_target net "u" (Net.add_and net t (Lit.neg t));
      let tight =
        {
          Core.Engine.default with
          cutoff = 3;
          probe_depth = 0;
          recurrence_limit = 2;
          induction_max_k = 1;
        }
      in
      let is_bdd s = String.ends_with ~suffix:"@bdd" s in
      let agrees (ladder, target, jobs) =
        let with_spec spec = { ladder with Core.Engine.backend = Some spec } in
        let ref_v =
          Core.Engine.verify
            ~config:(with_spec (Backend.Single (Backend.reference ())))
            net ~target
        in
        let race_v =
          Core.Engine.verify_portfolio
            ~config:
              (with_spec
                 (Backend.Race
                    [
                      Backend.reference ();
                      Backend.bdd_oracle ~max_nodes:20_000 ();
                    ]))
            ~jobs net ~target
        in
        match (ref_v, race_v) with
        | (Core.Engine.Proved _ | Violated _), _ ->
          String.equal
            (Core.Engine.verdict_brief ref_v)
            (Core.Engine.verdict_brief race_v)
        | Inconclusive { attempts = ra }, Inconclusive { attempts } ->
          let brief (a : Core.Engine.attempt) = (a.strategy, a.reason) in
          let n = List.length ra in
          let first = List.filteri (fun i _ -> i < n) attempts
          and rest = List.filteri (fun i _ -> i >= n) attempts in
          List.map brief first = List.map brief ra
          && rest <> []
          && List.for_all
               (fun (a : Core.Engine.attempt) -> is_bdd a.strategy)
               rest
        | Inconclusive _, (Proved { strategy; _ } | Violated { strategy; _ })
          ->
          is_bdd strategy
      in
      List.for_all agrees
        (List.concat_map
           (fun ladder ->
             List.concat_map
               (fun target -> [ (ladder, target, 1); (ladder, target, 2) ])
               [ "t"; "u" ])
           [ Core.Engine.default; tight ]))

let test_cancelled_race_is_not_exhaustion () =
  (* the probe refutes rank 0 at once; every other cell of the race is
     cancelled or never started, and neither is budget exhaustion *)
  let net = Net.create () in
  let c = Workload.Gen.counter net ~name:"c" ~bits:2 ~enable:Lit.true_ in
  Net.add_target net "t" c.Workload.Gen.out;
  let config =
    {
      Core.Engine.default with
      backend =
        Some (Backend.Race [ Backend.reference (); Backend.bdd_oracle () ]);
    }
  in
  Obs.Stats.reset ();
  (match Core.Engine.verify_portfolio ~config ~jobs:2 net ~target:"t" with
  | Core.Engine.Violated { strategy = "bmc-probe"; _ } -> ()
  | v ->
    Alcotest.fail (Format.asprintf "unexpected: %a" Core.Engine.pp_verdict v));
  check_not_exhausted ()

let test_proof_sink_gets_winner_only () =
  (* certifying portfolio: the sink replays only the winning
     strategy's proofs, once, after selection *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let p = Workload.Gen.pipeline net ~name:"p" ~stages:4 ~data:a in
  Net.add_target net "t"
    (Net.add_and net p.Workload.Gen.out (Lit.neg p.Workload.Gen.out));
  let proofs = ref 0 in
  let sink _ = incr proofs in
  (match
     Core.Engine.verify_portfolio ~certify:true ~proof_sink:sink ~jobs:2 net
       ~target:"t"
   with
  | Core.Engine.Proved _ -> ()
  | v ->
    Alcotest.fail (Format.asprintf "unexpected: %a" Core.Engine.pp_verdict v));
  (* the sequential ladder sinks exactly one proof for this design
     (see test_certify); the portfolio must replay exactly the same *)
  Helpers.check_int "winner's proof replayed once" 1 !proofs

let suite =
  [
    prop_portfolio_matches_sequential;
    Alcotest.test_case "portfolio on a shared pool" `Quick
      test_portfolio_on_shared_pool;
    Alcotest.test_case "starved ranks record budget_reason" `Quick
      test_cancelled_ranks_record_budget_reason;
    prop_race_is_reference_first;
    Alcotest.test_case "cancelled race cells are not exhaustion" `Quick
      test_cancelled_race_is_not_exhaustion;
    Alcotest.test_case "cancel token stops the ladder" `Quick
      test_budget_cancel_token_stops_strategies;
    Alcotest.test_case "proof sink sees only the winner" `Quick
      test_proof_sink_gets_winner_only;
  ]
