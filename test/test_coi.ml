module Net = Netlist.Net
module Lit = Netlist.Lit
module Coi = Netlist.Coi

let fixture () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Net.add_input net "b" in
  let r1 = Net.add_reg net "r1" in
  let r2 = Net.add_reg net "r2" in
  let g = Net.add_and net r1 b in
  Net.set_next net r1 a;
  Net.set_next net r2 g;
  (net, a, b, r1, r2, g)

let test_sequential_cone () =
  let net, a, b, r1, r2, g = fixture () in
  let cone = Coi.of_lits net [ r2 ] in
  Helpers.check_bool "follows next edges" true cone.(Lit.var r1);
  Helpers.check_bool "reaches inputs" true (cone.(Lit.var a) && cone.(Lit.var b));
  Helpers.check_bool "gate included" true cone.(Lit.var g);
  Helpers.check_int "two registers in cone" 2
    (List.length (Coi.regs_in net cone))

let test_combinational_stops_at_state () =
  let net, a, b, r1, r2, g = fixture () in
  ignore r2;
  let cone = Coi.combinational net [ g ] in
  Helpers.check_bool "marks the register" true cone.(Lit.var r1);
  Helpers.check_bool "does not enter its next cone" false cone.(Lit.var a);
  Helpers.check_bool "reads the input" true cone.(Lit.var b)

let test_disjoint_roots () =
  let net, a, b, r1, r2, g = fixture () in
  ignore (b, r2, g);
  let cone = Coi.of_lits net [ r1 ] in
  Helpers.check_bool "r1 cone excludes g" false cone.(Lit.var g);
  Helpers.check_bool "r1 cone has a" true cone.(Lit.var a);
  Helpers.check_int "size counts marks" (Coi.size cone)
    (Array.fold_left (fun n x -> if x then n + 1 else n) 0 cone)

let prop_cone_closed =
  Helpers.qtest ~count:60 "sequential cones are fanin-closed"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_net_with_target seed ~inputs:3 ~regs:4 ~gates:12 in
      let cone = Coi.of_lits net [ t ] in
      let ok = ref true in
      Net.iter_nodes net (fun v _ ->
          if cone.(v) then
            List.iter
              (fun l -> if not cone.(Lit.var l) then ok := false)
              (Net.fanins net v));
      !ok)

(* An independent reference for the walker: the plain recursive
   fanin closure, entering a state element's data edge only when
   [through_state]. *)
let reference ~through_state net roots =
  let seen = Array.make (Net.num_vars net) false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      match Net.node net v with
      | Net.Const | Net.Input _ -> ()
      | Net.And (a, b) ->
        visit (Lit.var a);
        visit (Lit.var b)
      | Net.Reg r -> if through_state then visit (Lit.var r.Net.next)
      | Net.Latch l -> if through_state then visit (Lit.var l.Net.l_data)
    end
  in
  List.iter (fun l -> visit (Lit.var l)) roots;
  seen

(* The stamped walker and the bool-array walks built on it against
   the reference: on random nets, several walks in a row on one walker
   mark exactly the reference cones, as do [of_lits] /
   [combinational], [leaves] lists the inputs and state elements of
   the combinational cone, and [state_elems] the state elements of the
   walked cone. *)
let prop_walker_matches =
  Helpers.qtest ~count:60 "stamped walks match the bool-array walks"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_net_with_target seed ~inputs:3 ~regs:4 ~gates:12 in
      let n = Net.num_vars net in
      let w = Coi.walker net in
      let sorted l = List.sort compare l in
      let marked cone p = List.filter (fun v -> cone.(v) && p v) (List.init n Fun.id) in
      let leaf v =
        match Net.node net v with
        | Net.Input _ | Net.Reg _ | Net.Latch _ -> true
        | Net.Const | Net.And _ -> false
      in
      let agree roots =
        let seq = reference ~through_state:true net roots
        and comb = reference ~through_state:false net roots in
        let c = Coi.walk w ~through_state:true roots in
        let seq_ok =
          Coi.of_lits net roots = seq
          && Coi.combinational net roots = comb
          && List.for_all (fun v -> Coi.mem c v = seq.(v)) (List.init n Fun.id)
          && sorted (Coi.leaves c) = marked comb leaf
          && sorted (Coi.state_elems c) = marked seq (Net.is_state net)
        in
        let c = Coi.walk w ~through_state:false roots in
        seq_ok
        && List.for_all (fun v -> Coi.mem c v = comb.(v)) (List.init n Fun.id)
        && sorted (Coi.leaves c) = marked comb leaf
        && sorted (Coi.state_elems c) = marked comb (Net.is_state net)
      in
      agree [ t ]
      && List.for_all (fun v -> agree [ Lit.make v ]) (Net.regs net)
      && agree (List.map (fun v -> Lit.make_neg v) (Net.inputs net))
      && agree [])

let test_stale_cone () =
  let net, _, _, r1, r2, _ = fixture () in
  let w = Coi.walker net in
  let c = Coi.walk w ~through_state:true [ r2 ] in
  Helpers.check_bool "fresh cone readable" true (Coi.mem c (Lit.var r1));
  ignore (Coi.walk w ~through_state:false [ r1 ]);
  Alcotest.check_raises "stale cone"
    (Invalid_argument "Coi.mem: the walker has walked since") (fun () ->
      ignore (Coi.mem c (Lit.var r1)))

let suite =
  [
    Alcotest.test_case "sequential cone" `Quick test_sequential_cone;
    Alcotest.test_case "combinational stops at state" `Quick
      test_combinational_stops_at_state;
    Alcotest.test_case "disjoint roots" `Quick test_disjoint_roots;
    prop_cone_closed;
    prop_walker_matches;
    Alcotest.test_case "stale cone" `Quick test_stale_cone;
  ]
