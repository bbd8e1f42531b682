module Net = Netlist.Net
module Lit = Netlist.Lit

let test_constant_folding () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  Helpers.check_bool "x & 0 = 0" true
    (Lit.equal (Net.add_and net a Lit.false_) Lit.false_);
  Helpers.check_bool "x & 1 = x" true (Lit.equal (Net.add_and net a Lit.true_) a);
  Helpers.check_bool "x & x = x" true (Lit.equal (Net.add_and net a a) a);
  Helpers.check_bool "x & ~x = 0" true
    (Lit.equal (Net.add_and net a (Lit.neg a)) Lit.false_);
  Helpers.check_bool "x | 1 = 1" true (Lit.equal (Net.add_or net a Lit.true_) Lit.true_);
  Helpers.check_bool "x | 0 = x" true (Lit.equal (Net.add_or net a Lit.false_) a);
  Helpers.check_bool "x ^ x = 0" true (Lit.equal (Net.add_xor net a a) Lit.false_);
  Helpers.check_bool "x ^ ~x = 1" true
    (Lit.equal (Net.add_xor net a (Lit.neg a)) Lit.true_);
  Helpers.check_bool "x ^ 0 = x" true (Lit.equal (Net.add_xor net a Lit.false_) a);
  (* mux(s, x, x) is semantically x but the AIG strash does not
     simplify across the OR: only sweeping would merge it *)
  Helpers.check_bool "mux(1,x,y) = x" true
    (Lit.equal (Net.add_mux net ~sel:Lit.true_ ~t1:a ~t0:(Net.add_input net "y")) a)

let test_strash () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Net.add_input net "b" in
  let g1 = Net.add_and net a b in
  let g2 = Net.add_and net b a in
  Helpers.check_bool "commutative sharing" true (Lit.equal g1 g2);
  let g3 = Net.add_and net (Lit.neg a) b in
  Helpers.check_bool "distinct signs distinct nodes" false (Lit.equal g1 g3);
  Helpers.check_int "only two AND nodes" 2 (Net.num_ands net)

let test_registers () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r = Net.add_reg net ~init:Net.Init1 "r" in
  Net.set_next net r a;
  Helpers.check_int "one reg" 1 (Net.num_regs net);
  Helpers.check_bool "is_reg" true (Net.is_reg net (Lit.var r));
  Helpers.check_bool "not latch" false (Net.is_latch net (Lit.var r));
  let reg = Net.reg_of net (Lit.var r) in
  Helpers.check_bool "next stored" true (Lit.equal reg.Net.next a);
  Helpers.check_bool "init stored" true (reg.Net.r_init = Net.Init1);
  (match Net.node net (Lit.var r) with
  | Net.Reg _ -> ()
  | Net.Const | Net.Input _ | Net.And _ | Net.Latch _ ->
    Alcotest.fail "expected Reg node");
  Net.check net

let test_latches () =
  let net = Net.create ~phases:2 () in
  let a = Net.add_input net "a" in
  let l = Net.add_latch net ~phase:1 "l" in
  Net.set_latch_data net l a;
  Helpers.check_int "one latch" 1 (Net.num_latches net);
  Helpers.check_int "phases" 2 (Net.phases net);
  Helpers.check_bool "latch phase" true ((Net.latch_of net (Lit.var l)).Net.l_phase = 1);
  Alcotest.check_raises "bad phase rejected" (Invalid_argument "Net.add_latch: phase")
    (fun () -> ignore (Net.add_latch net ~phase:2 "bad"))

let test_fanout () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Net.add_input net "b" in
  let g = Net.add_and net a b in
  let r = Net.add_reg net "r" in
  Net.set_next net r g;
  let fo = Net.fanouts net in
  Helpers.check_int "a feeds the AND" 1 (Array.length fo.(Lit.var a));
  Helpers.check_int "g feeds the reg" 1 (Array.length fo.(Lit.var g));
  Helpers.check_int "r feeds nothing" 0 (Array.length fo.(Lit.var r))

let test_outputs_targets () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  Net.add_output net "o" a;
  Net.add_target net "t" (Lit.neg a);
  Helpers.check_int "outputs" 1 (List.length (Net.outputs net));
  Helpers.check_int "targets" 1 (List.length (Net.targets net));
  Helpers.check_bool "target literal" true
    (Lit.equal (List.assoc "t" (Net.targets net)) (Lit.neg a))

let test_check_rejects_misuse () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  Alcotest.check_raises "set_next on input"
    (Invalid_argument "Net.set_next: not a register") (fun () ->
      Net.set_next net a a);
  Alcotest.check_raises "set_next on negated literal"
    (Invalid_argument "Net.set_next: negated register literal") (fun () ->
      let r = Net.add_reg net "r" in
      Net.set_next net (Lit.neg r) a)

let test_iteration_order () =
  (* identifier order is a topological order of the combinational
     logic: AND fanins always precede the gate *)
  let net, _ =
    Helpers.netlist (fun net ->
        let a = Net.add_input net "a" in
        let b = Net.add_input net "b" in
        let g = Net.add_and net a b in
        Net.add_and net g (Lit.neg a))
  in
  Net.iter_nodes net (fun v node ->
      match node with
      | Net.And (x, y) ->
        Helpers.check_bool "fanin precedes gate" true
          (Lit.var x < v && Lit.var y < v)
      | Net.Const | Net.Input _ | Net.Reg _ | Net.Latch _ -> ())

let prop_strash_no_duplicates =
  Helpers.qtest "no duplicate AND nodes" QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Workload.Rng.create seed in
      let net, _ = Helpers.rand_net rng ~inputs:4 ~regs:3 ~gates:20 in
      (* every (a, b) fanin pair occurs at most once *)
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      Net.iter_nodes net (fun _ node ->
          match node with
          | Net.And (a, b) ->
            let key = (Lit.to_int a, Lit.to_int b) in
            if Hashtbl.mem seen key then ok := false
            else Hashtbl.add seen key ();
          | Net.Const | Net.Input _ | Net.Reg _ | Net.Latch _ -> ());
      !ok)

(* ---- canonical fingerprints (the serve verdict-cache key) ---- *)

let test_fingerprint_build_order () =
  (* the same structure built in two different vertex orders (inputs
     and independent gates swapped) must fingerprint identically:
     vertices are referenced by structural hash, never by id *)
  let build swapped =
    let net = Net.create () in
    let a, b =
      if swapped then
        let b = Net.add_input net "b" in
        let a = Net.add_input net "a" in
        (a, b)
      else
        let a = Net.add_input net "a" in
        let b = Net.add_input net "b" in
        (a, b)
    in
    let g1, g2 =
      if swapped then
        let y = Net.add_or net a b in
        let x = Net.add_and net a b in
        (x, y)
      else
        let x = Net.add_and net a b in
        let y = Net.add_or net a b in
        (x, y)
    in
    let r = Net.add_reg net ~init:Net.Init0 "r" in
    Net.set_next net r (Net.add_xor net g1 g2);
    Net.add_target net "t" r;
    Net.add_output net "t" r;
    net
  in
  Helpers.check Alcotest.string "whole-net fingerprint"
    (Net.fingerprint (build false))
    (Net.fingerprint (build true));
  let t net = List.assoc "t" (Net.targets net) in
  let n0 = build false and n1 = build true in
  Helpers.check Alcotest.string "cone fingerprint"
    (Net.cone_fingerprint n0 (t n0))
    (Net.cone_fingerprint n1 (t n1))

let prop_cone_fingerprint_restrict_invariant =
  (* cone-of-influence restriction rebuilds the cone's vertices with
     fresh ids in a different order; the cone fingerprint must not
     notice *)
  Helpers.qtest "cone fingerprint survives restriction"
    QCheck.(int_bound 10000)
    (fun seed ->
      let net, t = Helpers.rand_net_with_target seed ~inputs:4 ~regs:3 ~gates:12 in
      let cone = Workload.Shrink.restrict net ~target:"t" in
      let t' = List.assoc "t" (Net.targets cone) in
      String.equal (Net.cone_fingerprint net t) (Net.cone_fingerprint cone t'))

let prop_cone_fingerprint_mutation_changes_key =
  (* any accepted Shrink mutation is a structural change to the cone,
     so a cached result keyed by the old fingerprint can never be
     served for the mutated design *)
  Helpers.qtest "shrink mutations change the fingerprint"
    QCheck.(int_bound 10000)
    (fun seed ->
      let net, t = Helpers.rand_net_with_target seed ~inputs:4 ~regs:3 ~gates:12 in
      let r = Workload.Shrink.run ~keep:(fun _ -> true) net ~target:"t" in
      r.Workload.Shrink.shrunk_size >= r.Workload.Shrink.original_size
      ||
      let t' = List.assoc "t" (Net.targets r.Workload.Shrink.net) in
      not
        (String.equal (Net.cone_fingerprint net t)
           (Net.cone_fingerprint r.Workload.Shrink.net t')))

let suite =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "structural hashing" `Quick test_strash;
    Alcotest.test_case "registers" `Quick test_registers;
    Alcotest.test_case "latches" `Quick test_latches;
    Alcotest.test_case "fanout computation" `Quick test_fanout;
    Alcotest.test_case "outputs and targets" `Quick test_outputs_targets;
    Alcotest.test_case "misuse rejected" `Quick test_check_rejects_misuse;
    Alcotest.test_case "topological id order" `Quick test_iteration_order;
    prop_strash_no_duplicates;
    Alcotest.test_case "fingerprint ignores build order" `Quick
      test_fingerprint_build_order;
    prop_cone_fingerprint_restrict_invariant;
    prop_cone_fingerprint_mutation_changes_key;
  ]
