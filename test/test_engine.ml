module Net = Netlist.Net
module Lit = Netlist.Lit

let test_probe_finds_shallow_bug () =
  let net = Net.create () in
  let c = Workload.Gen.counter net ~name:"c" ~bits:2 ~enable:Lit.true_ in
  Net.add_target net "t" c.Workload.Gen.out;
  match Core.Engine.verify net ~target:"t" with
  | Core.Engine.Violated { strategy = "bmc-probe"; cex } ->
    Helpers.check_int "hit at 3" 3 cex.Bmc.depth
  | v -> Alcotest.fail (Format.asprintf "unexpected: %a" Core.Engine.pp_verdict v)

let test_structural_proof () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let p = Workload.Gen.pipeline net ~name:"p" ~stages:12 ~data:a in
  (* unreachable: stage output and its negation conjoined *)
  Net.add_target net "t" (Net.add_and net p.Workload.Gen.out (Lit.neg p.Workload.Gen.out));
  match Core.Engine.verify net ~target:"t" with
  | Core.Engine.Proved { strategy; _ } ->
    Helpers.check_bool "cheap strategy used" true
      (String.equal strategy "structural-bound")
  | v -> Alcotest.fail (Format.asprintf "unexpected: %a" Core.Engine.pp_verdict v)

let test_ret_gadget_needs_transformations () =
  let net = Net.create () in
  let x = Net.add_input net "x" in
  let y = Net.add_input net "y" in
  let guard = Workload.Gen.ret_guard net ~name:"g" ~x ~y in
  let c = Workload.Gen.counter net ~name:"c" ~bits:8 ~enable:guard in
  Net.add_target net "t" c.Workload.Gen.out;
  match Core.Engine.verify net ~target:"t" with
  | Core.Engine.Proved { strategy; _ } ->
    Helpers.check_bool "transformation pipeline closed it" true
      (String.equal strategy "com-ret-com+bound")
  | v -> Alcotest.fail (Format.asprintf "unexpected: %a" Core.Engine.pp_verdict v)

let test_latch_design () =
  (* unreachable conjunction in a latchified design: proofs go through
     phase abstraction and Theorem 3 *)
  let base = Net.create () in
  let a = Net.add_input base "a" in
  let p = Workload.Gen.pipeline base ~name:"p" ~stages:3 ~data:a in
  Net.add_target base "t"
    (Net.add_and base p.Workload.Gen.out (Lit.neg p.Workload.Gen.out));
  let net = Workload.Gp.latchify base in
  match Core.Engine.verify net ~target:"t" with
  | Core.Engine.Proved _ -> ()
  | v -> Alcotest.fail (Format.asprintf "unexpected: %a" Core.Engine.pp_verdict v)

let test_inconclusive_records_attempts () =
  (* a large FSM with an unreachable-but-hard target defeats every
     strategy within tiny budgets *)
  let net = Net.create () in
  let rng = Workload.Rng.create 3 in
  let ins = List.init 4 (fun i -> Net.add_input net (Printf.sprintf "i%d" i)) in
  let f = Workload.Gen.fsm net rng ~name:"f" ~bits:30 ~inputs:ins in
  let c = Workload.Gen.counter net ~name:"c" ~bits:10 ~enable:f.Workload.Gen.out in
  Net.add_target net "t" c.Workload.Gen.out;
  let config =
    { Core.Engine.default with
      Core.Engine.probe_depth = 2; recurrence_limit = 3; induction_max_k = 1 }
  in
  match Core.Engine.verify ~config net ~target:"t" with
  | Core.Engine.Inconclusive { attempts } ->
    Helpers.check_bool "several strategies tried" true (List.length attempts >= 5)
  | Core.Engine.Proved _ -> Alcotest.fail "budgets too small to prove"
  | Core.Engine.Violated _ -> Alcotest.fail "needs 2^10 steps to hit"

let test_discharge_depth () =
  (* regression: a bound of 0 used to be discharged by a depth -1 BMC
     run ("complete to depth -1"); it must skip BMC entirely *)
  Helpers.check_bool "huge -> no run" true
    (Core.Engine.discharge_depth Core.Sat_bound.huge = None);
  Helpers.check_bool "0 -> no run" true
    (Core.Engine.discharge_depth (Core.Sat_bound.of_int 0) = None);
  Helpers.check_bool "1 -> depth 0" true
    (Core.Engine.discharge_depth (Core.Sat_bound.of_int 1) = Some 0);
  Helpers.check_bool "5 -> depth 4" true
    (Core.Engine.discharge_depth (Core.Sat_bound.of_int 5) = Some 4)

let test_empty_enlargement_at_k0 () =
  (* regression: with enlargement_k = 0 an empty enlargement used to
     discharge via [Bmc.check ~depth:(k - 1)], i.e. depth -1, and
     report "complete to depth -1" *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r1 = Net.add_reg net ~init:Net.Init0 "r1" in
  let r2 = Net.add_reg net ~init:Net.Init0 "r2" in
  Net.set_next net r1 a;
  Net.set_next net r2 (Lit.neg a);
  (* combinationally false, but hidden from two-level strashing:
     (r1 & r2) & (r1 & ~r2) *)
  let t1 = Net.add_and net r1 r2 in
  let t2 = Net.add_and net r1 (Lit.neg r2) in
  Net.add_target net "t" (Net.add_and net t1 t2);
  (* cutoff 1 makes every bound-based strategy stand down (their
     minimum bound is 1), leaving the BDD path to close the target *)
  let config =
    { Core.Engine.default with Core.Engine.enlargement_k = 0; cutoff = 1 }
  in
  match Core.Engine.verify ~config net ~target:"t" with
  | Core.Engine.Proved { strategy; depth } ->
    Helpers.check_bool "proved by the empty enlargement" true
      (String.equal strategy "enlargement-empty");
    Helpers.check_int "depth clamped to 0, not -1" 0 depth
  | v -> Alcotest.fail (Format.asprintf "unexpected: %a" Core.Engine.pp_verdict v)

let test_unknown_target () =
  let net = Net.create () in
  Alcotest.check_raises "unknown" (Invalid_argument "Engine.verify: unknown target zz")
    (fun () -> ignore (Core.Engine.verify net ~target:"zz"))

let prop_agrees_with_exact =
  Helpers.qtest ~count:25 "engine verdicts agree with explicit search"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_structured seed in
      match Core.Engine.verify net ~target:"t" with
      | Core.Engine.Inconclusive _ -> true
      | Core.Engine.Proved _ -> (
        match Core.Exact.explore net t with
        | None -> true
        | Some e -> e.Core.Exact.earliest_hit = None)
      | Core.Engine.Violated { cex; _ } -> (
        Bmc.replay net t cex
        &&
        match Core.Exact.explore net t with
        | None -> true
        | Some e -> (
          match e.Core.Exact.earliest_hit with
          | Some hit -> hit <= cex.Bmc.depth
          | None -> false)))

(* verify_all: one store for every target, the same verdicts as
   target-by-target verify, at every job count *)
let test_verify_all () =
  let net =
    Textio.Bench_io.parse
      (Textio.Bench_io.to_string (Workload.Gp.by_name "V_CACH"))
  in
  let brief v = Core.Engine.verdict_brief v in
  let each =
    List.map
      (fun (t, _) -> (t, brief (Core.Engine.verify ~certify:true net ~target:t)))
      (Netlist.Net.targets net)
  in
  List.iter
    (fun jobs ->
      let emitted = ref [] in
      let all =
        Core.Engine.verify_all ~certify:true ~jobs
          ~emit:(fun t v -> emitted := (t, brief v) :: !emitted)
          net
      in
      let all = List.map (fun (t, v) -> (t, brief v)) all in
      Helpers.check_bool (Printf.sprintf "jobs %d verdicts" jobs) true (all = each);
      Helpers.check_bool (Printf.sprintf "jobs %d emitted in order" jobs) true
        (List.rev !emitted = each))
    [ 1; 2 ];
  let some = [ "obs3"; "po0" ] in
  Helpers.check_bool "chosen targets" true
    (List.map fst (Core.Engine.verify_all ~targets:some net) = some)

let suite =
  [
    Alcotest.test_case "probe finds shallow bug" `Quick test_probe_finds_shallow_bug;
    Alcotest.test_case "structural proof" `Quick test_structural_proof;
    Alcotest.test_case "RET gadget strategy" `Quick test_ret_gadget_needs_transformations;
    Alcotest.test_case "latch design" `Quick test_latch_design;
    Alcotest.test_case "inconclusive attempts" `Quick test_inconclusive_records_attempts;
    Alcotest.test_case "discharge depth" `Quick test_discharge_depth;
    Alcotest.test_case "empty enlargement at k=0" `Quick
      test_empty_enlargement_at_k0;
    Alcotest.test_case "unknown target" `Quick test_unknown_target;
    prop_agrees_with_exact;
    Alcotest.test_case "verify_all" `Quick test_verify_all;
  ]
