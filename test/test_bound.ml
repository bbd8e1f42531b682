module Net = Netlist.Net
module Lit = Netlist.Lit

let bound net name = (Core.Bound.target_named net name).Core.Bound.bound

let test_combinational_target () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Net.add_input net "b" in
  Net.add_target net "t" (Net.add_and net a b);
  Helpers.check_int "combinational diameter is 1" 1 (bound net "t")

let test_pipeline_closed_form () =
  (* the i-th register of an input-fed pipeline has diameter i + 1
     (the paper's Section 3.2 example) *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let p = Workload.Gen.pipeline net ~name:"p" ~stages:6 ~data:a in
  List.iteri
    (fun i r -> Net.add_target net (Printf.sprintf "t%d" i) r)
    p.Workload.Gen.regs;
  List.iteri
    (fun i _ ->
      Helpers.check_int
        (Printf.sprintf "stage %d bounded at %d" i (i + 2))
        (i + 2)
        (bound net (Printf.sprintf "t%d" i)))
    p.Workload.Gen.regs

let test_counter_exponential () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let c = Workload.Gen.counter net ~name:"c" ~bits:5 ~enable:a in
  Net.add_target net "t" c.Workload.Gen.out;
  Helpers.check_int "2^bits" 32 (bound net "t")

let test_memory_multiplier () =
  let net = Net.create () in
  let a0 = Net.add_input net "a0" in
  let a1 = Net.add_input net "a1" in
  let d = Net.add_input net "d" in
  let w = Net.add_input net "w" in
  let m =
    Workload.Gen.memory net ~name:"m" ~rows:4 ~width:1 ~addr:[ a0; a1 ]
      ~data:[ d ] ~write:w
  in
  Net.add_target net "t" m.Workload.Gen.out;
  Helpers.check_int "rows + 1" 5 (bound net "t")

let test_queue_multiplier () =
  let net = Net.create () in
  let push = Net.add_input net "push" in
  let d = Net.add_input net "d" in
  let q = Workload.Gen.queue net ~name:"q" ~depth:4 ~width:1 ~push ~data:[ d ] in
  Net.add_target net "t" q.Workload.Gen.out;
  Helpers.check_int "depth + 1" 5 (bound net "t")

let test_series_composition () =
  (* pipeline feeding a memory's data: effects compose *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let a0 = Net.add_input net "a0" in
  let w = Net.add_input net "w" in
  let p = Workload.Gen.pipeline net ~name:"p" ~stages:3 ~data:a in
  let m =
    Workload.Gen.memory net ~name:"m" ~rows:2 ~width:1 ~addr:[ a0 ]
      ~data:[ p.Workload.Gen.out ] ~write:w
  in
  Net.add_target net "t" m.Workload.Gen.out;
  (* (1 + 3 stages) * (2 rows + 1) *)
  Helpers.check_int "composed bound" 12 (bound net "t")

let test_parallel_max () =
  (* parallel pipelines contribute their maximum, not their sum *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Net.add_input net "b" in
  let p1 = Workload.Gen.pipeline net ~name:"p1" ~stages:7 ~data:a in
  let p2 = Workload.Gen.pipeline net ~name:"p2" ~stages:2 ~data:b in
  Net.add_target net "t" (Net.add_and net p1.Workload.Gen.out p2.Workload.Gen.out);
  Helpers.check_int "max of branches" 8 (bound net "t")

let test_input_xor_refinement () =
  (* Definition 3's XOR example: an XOR with a fresh input has
     diameter 1 regardless of the sequential side *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let fresh = Net.add_input net "fresh" in
  let c = Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:a in
  let t = Net.add_xor net fresh c.Workload.Gen.out in
  Net.add_target net "t" t;
  Helpers.check_int "input-controlled diameter" 1 (bound net "t");
  Helpers.check_bool "detected as input controlled" true
    (Core.Bound.input_controlled net t)

let test_input_xor_requires_freshness () =
  (* if the "fresh" input also drives the counter enable it is not
     free at the XOR *)
  let net = Net.create () in
  let shared = Net.add_input net "shared" in
  let c = Workload.Gen.counter net ~name:"c" ~bits:4 ~enable:shared in
  let t = Net.add_xor net shared c.Workload.Gen.out in
  Net.add_target net "t" t;
  Helpers.check_bool "shared input not free" false
    (Core.Bound.input_controlled net t)

let test_constant_shielding () =
  (* a stuck register between a big component and the target shields
     the bound *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let c = Workload.Gen.counter net ~name:"c" ~bits:8 ~enable:a in
  let stuck = Net.add_reg net ~init:Net.Init0 "stuck" in
  Net.set_next net stuck (Net.add_and net c.Workload.Gen.out Lit.false_) ;
  Net.add_target net "t" stuck;
  Helpers.check_int "shielded" 1 (bound net "t")

let test_huge_bound_saturates () =
  let net = Net.create () in
  let rng = Workload.Rng.create 1 in
  let ins = List.init 4 (fun i -> Net.add_input net (Printf.sprintf "i%d" i)) in
  let f = Workload.Gen.fsm net rng ~name:"f" ~bits:80 ~inputs:ins in
  Net.add_target net "t" f.Workload.Gen.out;
  Helpers.check_bool "saturated" true (Core.Sat_bound.is_huge (bound net "t"))

let prop_completeness_random =
  (* THE soundness property: a BMC run to depth bound-1 with no hit is
     a proof; cross-check against exact reachability on random
     netlists *)
  Helpers.qtest ~count:80 "bound is a sound completeness threshold (random)"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_net_with_target seed ~inputs:3 ~regs:5 ~gates:12 in
      let b = (Core.Bound.target net t).Core.Bound.bound in
      if Core.Sat_bound.is_huge b then true
      else
        match Core.Exact.explore net t with
        | None -> true
        | Some e -> (
          match e.Core.Exact.earliest_hit with
          | None -> true
          | Some hit -> hit <= b - 1))

let prop_completeness_structured =
  Helpers.qtest ~count:60 "bound is a sound completeness threshold (structured)"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_structured seed in
      let b = (Core.Bound.target net t).Core.Bound.bound in
      if Core.Sat_bound.is_huge b then true
      else
        match Core.Exact.explore net t with
        | None -> true
        | Some e -> (
          match e.Core.Exact.earliest_hit with
          | None -> true
          | Some hit -> hit <= b - 1))

let prop_all_targets_agrees_with_target =
  Helpers.qtest ~count:40 "all_targets matches per-target analysis"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, _ = Helpers.rand_structured seed in
      let _, shared = Core.Bound.all_targets net in
      List.for_all
        (fun (name, b) ->
          let solo = Core.Bound.target_named net name in
          b.Core.Bound.bound = solo.Core.Bound.bound)
        shared)

let suite =
  [
    Alcotest.test_case "combinational" `Quick test_combinational_target;
    Alcotest.test_case "pipeline closed form" `Quick test_pipeline_closed_form;
    Alcotest.test_case "counter exponential" `Quick test_counter_exponential;
    Alcotest.test_case "memory multiplier" `Quick test_memory_multiplier;
    Alcotest.test_case "queue multiplier" `Quick test_queue_multiplier;
    Alcotest.test_case "series composition" `Quick test_series_composition;
    Alcotest.test_case "parallel max" `Quick test_parallel_max;
    Alcotest.test_case "input-XOR refinement" `Quick test_input_xor_refinement;
    Alcotest.test_case "freshness required" `Quick test_input_xor_requires_freshness;
    Alcotest.test_case "constant shielding" `Quick test_constant_shielding;
    Alcotest.test_case "saturation" `Quick test_huge_bound_saturates;
    prop_completeness_random;
    prop_completeness_structured;
    prop_all_targets_agrees_with_target;
  ]

(* appended: Definition 3's second worked example *)
let test_definition3_free_chain () =
  (* i0 -> r1 (init i1) -> r2 (init i2): d(r2) = 1 — the
     nondeterministic initial values model the paper's input-driven
     initialization.  (Observed alone: any extra fanout of the chain
     would correlate it with the rest of the design.) *)
  let chain () =
    let net = Net.create () in
    let i0 = Net.add_input net "i0" in
    let r1 = Net.add_reg net ~init:Net.Init_x "r1" in
    let r2 = Net.add_reg net ~init:Net.Init_x "r2" in
    Net.set_next net r1 i0;
    Net.set_next net r2 r1;
    (net, r1, r2)
  in
  let net, _, r2 = chain () in
  Net.add_target net "r2" r2;
  Helpers.check_int "d(r2) = 1" 1 (bound net "r2");
  Helpers.check_bool "r2 is input-controlled" true
    (Core.Bound.input_controlled net r2);
  (* a joint observation correlates the two registers: the paper's
     d(r1, r2) = 2; our bound must cover it *)
  let net', r1', r2' = chain () in
  Net.add_target net' "joint" (Net.add_and net' r1' r2');
  Helpers.check_bool "joint bound covers d = 2" true (bound net' "joint" >= 2)

let test_free_chain_requires_x_init () =
  (* a constant initial value breaks freeness: the register's value at
     time 0 is forced *)
  let net = Net.create () in
  let i0 = Net.add_input net "i0" in
  let r = Net.add_reg net ~init:Net.Init0 "r" in
  Net.set_next net r i0;
  Net.add_target net "r" r;
  Helpers.check_bool "constant init is not free" false
    (Core.Bound.input_controlled net r);
  Helpers.check_int "falls back to the AC bound" 2 (bound net "r")

let test_free_chain_requires_exclusive_fanout () =
  (* if the chain's source also feeds other logic, values at different
     time steps are correlated with the rest of the design *)
  let net = Net.create () in
  let i0 = Net.add_input net "i0" in
  let r1 = Net.add_reg net ~init:Net.Init_x "r1" in
  let r2 = Net.add_reg net ~init:Net.Init_x "r2" in
  Net.set_next net r1 i0;
  Net.set_next net r2 r1;
  (* r1 also observed directly: its fanout is no longer exclusive *)
  Net.add_target net "both" (Net.add_and net r2 (Lit.neg r1));
  Net.add_target net "r2" r2;
  Helpers.check_bool "shared chain is not free" false
    (Core.Bound.input_controlled net
       (List.assoc "r2" (Net.targets net)))

let test_xor_with_free_register () =
  (* the XOR refinement extends to free registers *)
  let net = Net.create () in
  let i0 = Net.add_input net "i0" in
  let free = Net.add_reg net ~init:Net.Init_x "free" in
  Net.set_next net free i0;
  let c = Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:Lit.true_ in
  Net.add_target net "t" (Net.add_xor net free c.Workload.Gen.out);
  Helpers.check_int "xor with free register" 1 (bound net "t")

let suite =
  suite
  @ [
      Alcotest.test_case "Definition 3 free chain" `Quick
        test_definition3_free_chain;
      Alcotest.test_case "freeness needs X init" `Quick
        test_free_chain_requires_x_init;
      Alcotest.test_case "freeness needs exclusive fanout" `Quick
        test_free_chain_requires_exclusive_fanout;
      Alcotest.test_case "XOR with free register" `Quick
        test_xor_with_free_register;
    ]
