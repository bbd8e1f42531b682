module Net = Netlist.Net
module Lit = Netlist.Lit

module Bsim = Netlist.Bsim
module Rebuild = Transform.Rebuild

let run net = fst (Transform.Com.run net)

(* An independent reference for the sweep: the one it replaced, which
   sends every candidate to the SAT solver, class by class in hash
   table order, over a frame without merges.  Everything else (the
   structural redirects, the rounds, the rebuilds) is as in [Com], so
   the two must agree on every merge, and the reduced netlists and
   vertex maps must be identical. *)
module Ref = struct
  let compose_maps first (second : Rebuild.result) =
    Array.map
      (fun slot ->
        match slot with
        | None -> None
        | Some l -> (
          match second.Rebuild.map.(Lit.var l) with
          | None -> None
          | Some nl -> Some (Lit.xor_sign nl (Lit.is_neg l))))
      first

  let structural_redirects net =
    let redirects = Hashtbl.create 16 in
    let by_shape = Hashtbl.create 64 in
    List.iter
      (fun v ->
        let r = Net.reg_of net v in
        let next = r.Net.next in
        let stuck =
          match r.Net.r_init with
          | Net.Init0 when Lit.equal next Lit.false_ || Lit.equal next (Lit.make v)
            ->
            Some Lit.false_
          | Net.Init1 when Lit.equal next Lit.true_ || Lit.equal next (Lit.make v)
            ->
            Some Lit.true_
          | Net.Init0 | Net.Init1 | Net.Init_x -> None
        in
        match (stuck, r.Net.r_init) with
        | Some c, _ -> Hashtbl.replace redirects v c
        | None, Net.Init_x -> ()
        | None, (Net.Init0 | Net.Init1) -> (
          let key = (Lit.to_int next, r.Net.r_init) in
          match Hashtbl.find_opt by_shape key with
          | None -> Hashtbl.add by_shape key v
          | Some rep -> Hashtbl.replace redirects v (Lit.make rep)))
      (Net.regs net);
    redirects

  let sweep ~seed net checks =
    let sigs = Bsim.signatures ~seed ~steps:31 net in
    let classes = Hashtbl.create 256 in
    Net.iter_nodes net (fun v node ->
        match node with
        | Net.And _ | Net.Const ->
          let key, flipped = Bsim.canonical_signature sigs.(v) in
          let lit = Lit.of_var v ~sign:flipped in
          Hashtbl.replace classes key
            (lit :: Option.value (Hashtbl.find_opt classes key) ~default:[])
        | Net.Input _ | Net.Reg _ | Net.Latch _ -> ());
    let solver = Backend.create () in
    let frame = Encode.Frame.create solver net in
    let redirects = Hashtbl.create 16 in
    let unsat assumptions = Backend.solve ~assumptions solver = Backend.Unsat in
    let equivalent a b =
      incr checks;
      let sa = Encode.Frame.lit frame a in
      let sb = Encode.Frame.lit frame b in
      unsat [ sa; Backend.negate sb ] && unsat [ Backend.negate sa; sb ]
    in
    Hashtbl.iter
      (fun _key members ->
        match List.sort Lit.compare members with
        | [] | [ _ ] -> ()
        | rep :: rest ->
          List.iter
            (fun l ->
              if equivalent rep l then
                Hashtbl.replace redirects (Lit.var l)
                  (Lit.xor_sign rep (Lit.is_neg l)))
            rest)
      classes;
    redirects

  (* the reduced netlist and the number of equivalence checks *)
  let run ?(seed = 0x5eed) ?(max_rounds = 8) net =
    let checks = ref 0 in
    let rec go round map current =
      if round >= max_rounds then { Rebuild.net = current; map }
      else begin
        let structural = structural_redirects current in
        let swept =
          if Hashtbl.length structural = 0 then
            sweep ~seed:(seed + round) current checks
          else Hashtbl.create 0
        in
        let redirect v =
          match Hashtbl.find_opt structural v with
          | Some l -> Some l
          | None -> Hashtbl.find_opt swept v
        in
        if Hashtbl.length structural = 0 && Hashtbl.length swept = 0 then
          { Rebuild.net = current; map }
        else
          let step = Rebuild.copy ~redirect current in
          go (round + 1) (compose_maps map step) step.Rebuild.net
      end
    in
    let identity = Array.init (Net.num_vars net) (fun v -> Some (Lit.make v)) in
    let first = Rebuild.copy net in
    let r = go 0 (compose_maps identity first) first.Rebuild.net in
    (r, !checks)
end

let test_merges_associations () =
  (* (a & b) & c vs a & (b & c): only SAT sweeping sees through *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Net.add_input net "b" in
  let c = Net.add_input net "c" in
  let left = Net.add_and net (Net.add_and net a b) c in
  let right = Net.add_and net a (Net.add_and net b c) in
  Net.add_target net "t" (Net.add_xor net left right);
  let reduced, stats = Transform.Com.run net in
  Helpers.check_bool "some merges happened" true (stats.Transform.Com.merged_ands > 0);
  let t' = List.assoc "t" (Net.targets reduced.Transform.Rebuild.net) in
  Helpers.check_bool "xor of equal cones folds to false" true
    (Lit.equal t' Lit.false_)

let test_constant_register_removed () =
  let net = Net.create () in
  let r = Net.add_reg net ~init:Net.Init0 "r" in
  Net.set_next net r Lit.false_;
  let a = Net.add_input net "a" in
  Net.add_target net "t" (Net.add_or net r a);
  let reduced = run net in
  Helpers.check_int "stuck register removed" 0
    (Net.num_regs reduced.Transform.Rebuild.net);
  let t' = List.assoc "t" (Net.targets reduced.Transform.Rebuild.net) in
  Helpers.check_bool "target now the input alone" true
    (Lit.equal t' (Transform.Rebuild.map_lit reduced a))

let test_self_loop_register_removed () =
  let net = Net.create () in
  let r = Net.add_reg net ~init:Net.Init1 "r" in
  Net.set_next net r r;
  Net.add_target net "t" r;
  let reduced = run net in
  Helpers.check_int "self-loop register removed" 0
    (Net.num_regs reduced.Transform.Rebuild.net);
  let t' = List.assoc "t" (Net.targets reduced.Transform.Rebuild.net) in
  Helpers.check_bool "stuck at one" true (Lit.equal t' Lit.true_)

let test_duplicate_registers_merged () =
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r1 = Net.add_reg net "r1" in
  let r2 = Net.add_reg net "r2" in
  Net.set_next net r1 a;
  Net.set_next net r2 a;
  Net.add_target net "t" (Net.add_xor net r1 r2);
  let reduced = run net in
  Helpers.check_bool "duplicates collapse the xor" true
    (Lit.equal (List.assoc "t" (Net.targets reduced.Transform.Rebuild.net)) Lit.false_)

let test_x_init_registers_not_merged () =
  (* two X-initialized registers with the same next function disagree
     at time 0 in some trace: merging would be unsound *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r1 = Net.add_reg net ~init:Net.Init_x "r1" in
  let r2 = Net.add_reg net ~init:Net.Init_x "r2" in
  Net.set_next net r1 a;
  Net.set_next net r2 a;
  Net.add_target net "t" (Net.add_xor net r1 r2);
  let reduced = run net in
  Helpers.check_int "both X registers kept" 2
    (Net.num_regs reduced.Transform.Rebuild.net)

let test_guard_counter_freezes () =
  (* the workload's COM gadget: a counter enabled by a semantically
     false guard must disappear entirely *)
  let net = Net.create () in
  let rng = Workload.Rng.create 5 in
  let inputs = List.init 4 (fun i -> Net.add_input net (Printf.sprintf "i%d" i)) in
  let guard = Workload.Gen.com_guard net rng ~inputs in
  let block = Workload.Gen.counter net ~name:"c" ~bits:4 ~enable:guard in
  Net.add_target net "t" block.Workload.Gen.out;
  let reduced = run net in
  Helpers.check_int "counter frozen and removed" 0
    (Net.num_regs reduced.Transform.Rebuild.net);
  Helpers.check_bool "target constant false" true
    (Lit.equal (List.assoc "t" (Net.targets reduced.Transform.Rebuild.net)) Lit.false_)

let test_free_state_refutes () =
  (* r2 is ~r1 in every reachable state, so g1 and g2 share a
     signature; with the registers as free cut points they differ, and
     the free-state word drops the pair before any SAT check *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Net.add_input net "b" in
  let r1 = Net.add_reg net ~init:Net.Init0 "r1" in
  let r2 = Net.add_reg net ~init:Net.Init1 "r2" in
  Net.set_next net r1 a;
  Net.set_next net r2 (Lit.neg a);
  Net.add_target net "g1" (Net.add_and net r1 b);
  Net.add_target net "g2" (Net.add_and net (Lit.neg r2) b);
  let refuted = Obs.Stats.counter "com.sim_refuted" in
  let before = Obs.Stats.counter_value refuted in
  let reduced, stats = Transform.Com.run net in
  Helpers.check_int "both ANDs kept" 2 (Net.num_ands reduced.Rebuild.net);
  Helpers.check_int "no SAT check" 0 stats.Transform.Com.sat_checks;
  Helpers.check_bool "refuted by the free-state word" true
    (Obs.Stats.counter_value refuted > before);
  let _, ref_checks = Ref.run net in
  Helpers.check_bool "the reference sweep checks the pair" true (ref_checks > 0)

(* a random register netlist (Init_x registers included) with every
   gate and register an output, so most of it survives the COI cut *)
let rand_outputs seed =
  let rng = Workload.Rng.create seed in
  let net, pool = Helpers.rand_net rng ~inputs:3 ~regs:4 ~gates:30 in
  List.iteri (fun i l -> Net.add_output net (Printf.sprintf "o%d" i) l) pool;
  net

let same_as_ref net =
  let got = run net in
  let want, _ = Ref.run net in
  String.equal
    (Textio.Bench_io.to_string got.Rebuild.net)
    (Textio.Bench_io.to_string want.Rebuild.net)
  && got.Rebuild.map = want.Rebuild.map

let prop_matches_ref =
  Helpers.qtest ~count:100 "COM matches the reference sweep (registers)"
    QCheck.(int_bound 1000000)
    (fun seed -> same_as_ref (rand_outputs seed))

let prop_matches_ref_latches =
  Helpers.qtest ~count:60 "COM matches the reference sweep (latches)"
    QCheck.(int_bound 1000000)
    (fun seed -> same_as_ref (Workload.Gp.latchify (rand_outputs seed)))

let prop_preserves_semantics_sim =
  Helpers.qtest ~count:60 "COM preserves target traces (simulation)"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, t = Helpers.rand_net_with_target seed ~inputs:3 ~regs:4 ~gates:14 in
      let reduced = run net in
      let t' = List.assoc "t" (Net.targets reduced.Transform.Rebuild.net) in
      Transform.Equiv.sim_equivalent ~steps:20 net t
        reduced.Transform.Rebuild.net t')

let prop_preserves_semantics_sat =
  Helpers.qtest ~count:30 "COM preserves target traces (SAT, bounded)"
    QCheck.(int_bound 1000000)
    (fun seed ->
      (* restrict to binary-initialized netlists: free X on the two
         sides would be independent *)
      let rng = Workload.Rng.create seed in
      let net = Net.create () in
      let ins = List.init 3 (fun i -> Net.add_input net (Printf.sprintf "i%d" i)) in
      let rs =
        List.init 4 (fun i ->
            Net.add_reg net
              ~init:(if Workload.Rng.bool rng then Net.Init0 else Net.Init1)
              (Printf.sprintf "r%d" i))
      in
      let pool = ref (ins @ rs) in
      let pick () =
        let l = Workload.Rng.pick rng !pool in
        if Workload.Rng.bool rng then Lit.neg l else l
      in
      for _ = 1 to 12 do
        let g = Net.add_and net (pick ()) (pick ()) in
        if not (Lit.is_const g) then pool := g :: !pool
      done;
      List.iter (fun r -> Net.set_next net r (pick ())) rs;
      let t = pick () in
      Net.add_target net "t" t;
      let reduced = run net in
      let t' = List.assoc "t" (Net.targets reduced.Transform.Rebuild.net) in
      Transform.Equiv.sat_equivalent ~depth:6 net t
        reduced.Transform.Rebuild.net t')

let prop_idempotent =
  Helpers.qtest ~count:30 "COM is idempotent on its own output"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, _ = Helpers.rand_net_with_target seed ~inputs:3 ~regs:3 ~gates:10 in
      let once = run net in
      let twice, stats = Transform.Com.run once.Transform.Rebuild.net in
      ignore twice;
      stats.Transform.Com.rounds = 0)

let prop_never_grows =
  Helpers.qtest ~count:50 "COM never adds vertices"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, _ = Helpers.rand_net_with_target seed ~inputs:3 ~regs:4 ~gates:14 in
      let reduced = run net in
      Net.num_vars reduced.Transform.Rebuild.net <= Net.num_vars net)

let suite =
  [
    Alcotest.test_case "association merge" `Quick test_merges_associations;
    Alcotest.test_case "constant register removed" `Quick test_constant_register_removed;
    Alcotest.test_case "self-loop register removed" `Quick test_self_loop_register_removed;
    Alcotest.test_case "duplicate registers merged" `Quick test_duplicate_registers_merged;
    Alcotest.test_case "X-init registers kept apart" `Quick test_x_init_registers_not_merged;
    Alcotest.test_case "guarded counter freezes" `Quick test_guard_counter_freezes;
    Alcotest.test_case "free state refutes a reachable-state candidate" `Quick
      test_free_state_refutes;
    prop_matches_ref;
    prop_matches_ref_latches;
    prop_preserves_semantics_sim;
    prop_preserves_semantics_sat;
    prop_idempotent;
    prop_never_grows;
  ]
