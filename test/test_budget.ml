module Net = Netlist.Net
module Solver = Sat.Solver
module Cnf = Sat.Cnf
module Budget = Obs.Budget

let test_budget_basics () =
  Helpers.check_bool "unlimited never expires" false
    (Budget.expired Budget.unlimited);
  Helpers.check_bool "unlimited is unlimited" true
    (Budget.is_unlimited Budget.unlimited);
  Helpers.check_bool "empty create is unlimited" true
    (Budget.is_unlimited (Budget.create ()));
  let dead = Budget.create ~timeout_s:0.0 () in
  Helpers.check_bool "zero timeout expires at once" true (Budget.expired dead);
  Helpers.check_bool "slice of expired stays expired" true
    (Budget.expired (Budget.slice dead ~ways:4));
  let b = Budget.create ~conflicts:7 ~bdd_nodes:100 () in
  Helpers.check_bool "no deadline never expires" false (Budget.expired b);
  let s = Budget.slice b ~ways:3 in
  Helpers.check_bool "slice carries conflicts" true
    (Budget.conflicts s = Some 7);
  Helpers.check_bool "slice carries bdd nodes" true
    (Budget.bdd_nodes s = Some 100)

(* an unsatisfiable pigeonhole instance: hard enough that one conflict
   cannot possibly finish it *)
let pigeonhole ~holes =
  let pigeons = holes + 1 in
  let var p h = Solver.pos ((p * holes) + h) in
  let in_some_hole =
    List.init pigeons (fun p -> List.init holes (fun h -> var p h))
  in
  let exclusive =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p ->
            List.filter_map
              (fun q ->
                if q > p then
                  Some [ Solver.negate (var p h); Solver.negate (var q h) ]
                else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  { Cnf.num_vars = pigeons * holes; clauses = in_some_hole @ exclusive }

let test_solver_conflict_budget () =
  let s = Solver.create () in
  Cnf.load s (pigeonhole ~holes:5);
  Helpers.check_bool "tiny conflict budget gives up" true
    (Solver.solve ~max_conflicts:1 s = Solver.Unknown);
  (* the same solver still finishes the job once the limit is lifted *)
  Helpers.check_bool "unbudgeted solve still decides" true
    (Solver.solve s = Solver.Unsat)

let test_solver_should_stop () =
  let s = Solver.create () in
  Cnf.load s (pigeonhole ~holes:5);
  Helpers.check_bool "external stop signal gives up" true
    (Solver.solve ~should_stop:(fun () -> true) s = Solver.Unknown)

let random_cnf seed =
  let rng = Workload.Rng.create seed in
  let nv = 1 + Workload.Rng.int rng 10 in
  let nc = 1 + Workload.Rng.int rng 35 in
  let clauses =
    List.init nc (fun _ ->
        let len = 1 + Workload.Rng.int rng 4 in
        List.init len (fun _ ->
            let v = Workload.Rng.int rng nv in
            if Workload.Rng.bool rng then Solver.pos v else Solver.neg_of v))
  in
  { Cnf.num_vars = nv; clauses }

(* the budget soundness property: a budgeted solve may give up, but a
   definite answer it does return is never wrong *)
let prop_budget_never_wrong =
  Helpers.qtest ~count:300 "budgeted solver is never wrong, only unsure"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let cnf = random_cnf seed in
      let s = Solver.create () in
      Cnf.load s cnf;
      match Solver.solve ~max_conflicts:1 s with
      | Solver.Unknown -> true
      | Solver.Sat -> Cnf.eval (Solver.model s) cnf
      | Solver.Unsat -> Cnf.brute_force cnf = None)

let test_bmc_deadline () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r = Net.add_reg net ~init:Net.Init0 "r" in
  Net.set_next net r (Net.add_xor net r a);
  Net.add_target net "t" r;
  let budget = Budget.create ~timeout_s:0.0 () in
  (match Bmc.check ~budget net ~target:"t" ~depth:8 with
  | Bmc.Unknown { after; _ } ->
    Helpers.check_bool "no depth completed" true (after < 0)
  | Bmc.Hit _ | Bmc.No_hit _ -> Alcotest.fail "expired budget must give up");
  match Bmc.prove ~budget net ~target:"t" ~bound:4 with
  | `Unknown -> ()
  | `Proved | `Cex _ -> Alcotest.fail "expired budget must not conclude"

(* the fault-injection scenario: a netlist whose every strategy is
   expensive, under a deadline that has already passed *)
let hard_net () =
  let net = Net.create () in
  let rng = Workload.Rng.create 3 in
  let ins = List.init 4 (fun i -> Net.add_input net (Printf.sprintf "i%d" i)) in
  let f = Workload.Gen.fsm net rng ~name:"f" ~bits:30 ~inputs:ins in
  let c =
    Workload.Gen.counter net ~name:"c" ~bits:10 ~enable:f.Workload.Gen.out
  in
  Net.add_target net "t" c.Workload.Gen.out;
  net

let test_engine_expired_deadline () =
  let net = hard_net () in
  let t0 = Unix.gettimeofday () in
  let budget = Budget.create ~timeout_s:0.0 () in
  match Core.Engine.verify ~budget net ~target:"t" with
  | Core.Engine.Inconclusive { attempts } ->
    let elapsed = Unix.gettimeofday () -. t0 in
    Helpers.check_bool "every strategy was still recorded" true
      (List.length attempts >= 5);
    List.iter
      (fun a ->
        Helpers.check_bool
          (Printf.sprintf "%s stood down on budget" a.Core.Engine.strategy)
          true
          (a.Core.Engine.reason = Core.Engine.budget_reason))
      attempts;
    (* degradation must be graceful: an expired deadline means a
       near-immediate answer, not a full run *)
    Helpers.check_bool "gave up promptly" true (elapsed < 5.0)
  | v ->
    Alcotest.fail
      (Format.asprintf "expired budget must be inconclusive, got %a"
         Core.Engine.pp_verdict v)

let test_engine_conflict_starvation () =
  (* per-call allowances (rather than a deadline) must also degrade to
     Inconclusive, with the SAT-driven strategies blaming the budget *)
  let net = hard_net () in
  let budget = Budget.create ~conflicts:0 ~bdd_nodes:2 () in
  match Core.Engine.verify ~budget net ~target:"t" with
  | Core.Engine.Inconclusive { attempts } ->
    Helpers.check_bool "some strategy blamed the budget" true
      (List.exists
         (fun a -> a.Core.Engine.reason = Core.Engine.budget_reason)
         attempts)
  | v ->
    Alcotest.fail
      (Format.asprintf "starved budget must be inconclusive, got %a"
         Core.Engine.pp_verdict v)

let test_cancellation_token () =
  let cancel = Atomic.make false in
  let b = Budget.with_cancel (Budget.create ()) cancel in
  Helpers.check_bool "cancellable budget is not unlimited" false
    (Budget.is_unlimited b);
  Helpers.check_bool "not expired before the flip" false (Budget.expired b);
  Helpers.check_bool "not cancelled before the flip" false (Budget.cancelled b);
  (* cancellation must surface through should_stop even without a
     deadline — that closure is the solver's only polling point *)
  (match Budget.should_stop b with
  | Some stop ->
    Helpers.check_bool "stop not yet" false (stop ());
    Atomic.set cancel true;
    Helpers.check_bool "stop after flip" true (stop ())
  | None -> Alcotest.fail "cancellable budget must expose should_stop");
  Helpers.check_bool "expired after flip" true (Budget.expired b);
  Helpers.check_bool "cancelled after flip" true (Budget.cancelled b);
  (* slices share the parent's token: cancelling the parent cancels
     every slice already handed out *)
  Atomic.set cancel false;
  let s = Budget.slice b ~ways:4 in
  Helpers.check_bool "slice not cancelled" false (Budget.cancelled s);
  Atomic.set cancel true;
  Helpers.check_bool "slice cancelled with parent" true (Budget.cancelled s)

let test_slice_clamp () =
  (* slicing an expired budget must keep its past deadline rather than
     minting a momentarily-fresh [now +. 0.] one: a degenerate slice
     stays expired, so the engine records the attempt instead of
     silently skipping the strategy *)
  let dead = Budget.create ~timeout_s:0.0 () in
  ignore (Budget.expired dead);
  let s = Budget.slice dead ~ways:7 in
  Helpers.check_bool "degenerate slice is expired at once" true
    (Budget.expired s);
  let s2 = Budget.slice s ~ways:3 in
  Helpers.check_bool "re-slicing stays expired" true (Budget.expired s2)

let test_fileout_warns () =
  Helpers.check_bool "unwritable path returns false" false
    (Obs.Fileout.write_or_warn ~what:"test artifact"
       "/nonexistent-dir/deeper/x.txt" "x");
  let path = Filename.temp_file "diambound_fileout" ".txt" in
  Helpers.check_bool "writable path returns true" true
    (Obs.Fileout.write_or_warn ~what:"test artifact" path "payload");
  let ic = open_in path in
  let got = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Helpers.check_bool "content written" true (got = "payload")

let suite =
  [
    Alcotest.test_case "budget basics" `Quick test_budget_basics;
    Alcotest.test_case "solver conflict budget" `Quick
      test_solver_conflict_budget;
    Alcotest.test_case "solver external stop" `Quick test_solver_should_stop;
    Alcotest.test_case "BMC deadline" `Quick test_bmc_deadline;
    Alcotest.test_case "engine expired deadline" `Quick
      test_engine_expired_deadline;
    Alcotest.test_case "engine conflict starvation" `Quick
      test_engine_conflict_starvation;
    Alcotest.test_case "cancellation token" `Quick test_cancellation_token;
    Alcotest.test_case "slice clamp on expired budgets" `Quick
      test_slice_clamp;
    Alcotest.test_case "fileout warns" `Quick test_fileout_warns;
    prop_budget_never_wrong;
  ]
