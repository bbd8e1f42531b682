(* Inprocessing: the Simplify pass itself, its integration with the
   solver (elimination, reintroduction, model reconstruction, clause
   tiers), proof soundness of simplified runs, and fault injection
   under inprocessing. *)

module Solver = Sat.Solver
module Simplify = Sat.Simplify
module Cnf = Sat.Cnf
module Proof = Sat.Proof
module Drup = Sat.Drup
module Chaos = Sat.Chaos

let no_log _ = ()

let ok_or_fail what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let run_simplify ?config ~nvars clauses =
  Simplify.run ?config ~nvars
    ~frozen:(fun _ -> false)
    ~value:(fun _ -> -1)
    ~log_add:no_log ~log_delete:no_log clauses

(* ----- the pass in isolation ----- *)

let test_subsumption () =
  (* {a,b} subsumes {a,b,c}; no variable elimination so the subsumed
     clause is really gone, not resolved away *)
  let cfg = { Simplify.default with Simplify.var_elim = false } in
  let r =
    run_simplify ~config:cfg ~nvars:3
      [
        [| Solver.pos 0; Solver.pos 1 |];
        [| Solver.pos 0; Solver.pos 1; Solver.pos 2 |];
      ]
  in
  Helpers.check_int "one clause subsumed" 1 r.Simplify.n_subsumed;
  Helpers.check_int "one clause left" 1 (List.length r.Simplify.clauses);
  match r.Simplify.clauses with
  | [ Simplify.Kept 0 ] -> ()
  | _ -> Alcotest.fail "survivor should be the untouched input clause 0"

let test_self_subsumption () =
  (* {a,b} strengthens {~a,b,c} to {b,c} by self-subsuming resolution *)
  let cfg = { Simplify.default with Simplify.var_elim = false } in
  let r =
    run_simplify ~config:cfg ~nvars:3
      [
        [| Solver.pos 0; Solver.pos 1 |];
        [| Solver.neg_of 0; Solver.pos 1; Solver.pos 2 |];
      ]
  in
  Helpers.check_bool "strengthened" true (r.Simplify.n_strengthened >= 1);
  let fresh =
    List.filter_map
      (function Simplify.Fresh l -> Some (Array.to_list l) | Simplify.Kept _ -> None)
      r.Simplify.clauses
  in
  Helpers.check_bool "strengthened clause is {b,c}" true
    (List.mem [ Solver.pos 1; Solver.pos 2 ] fresh)

let test_probing () =
  (* l implies x and y, but x implies ~y: probing must fail l and
     derive the unit ~l from the binary implication graph alone *)
  let cfg =
    { Simplify.default with Simplify.var_elim = false; subsumption = false }
  in
  let r =
    run_simplify ~config:cfg ~nvars:3
      [
        [| Solver.neg_of 0; Solver.pos 1 |];
        [| Solver.neg_of 0; Solver.pos 2 |];
        [| Solver.neg_of 1; Solver.neg_of 2 |];
      ]
  in
  Helpers.check_bool "one failed literal" true (r.Simplify.n_probed >= 1);
  Helpers.check_bool "unit ~l derived" true
    (List.mem (Solver.neg_of 0) r.Simplify.units)

let test_bve_records_elimination () =
  (* Tseitin v = a & b: v is the cheapest variable; elimination must
     store its clauses for reconstruction and produce no contradiction *)
  let r =
    run_simplify ~nvars:3
      [
        [| Solver.neg_of 2; Solver.pos 0 |];
        [| Solver.neg_of 2; Solver.pos 1 |];
        [| Solver.pos 2; Solver.neg_of 0; Solver.neg_of 1 |];
      ]
  in
  Helpers.check_bool "no contradiction" false r.Simplify.contradiction;
  Helpers.check_bool "something eliminated" true (r.Simplify.eliminated <> []);
  let v, stored = List.hd r.Simplify.eliminated in
  Helpers.check_bool "stored clauses mention the variable" true
    (Array.for_all
       (fun lits -> Array.exists (fun l -> l lsr 1 = v) lits)
       stored)

(* ----- solver integration ----- *)

let tseitin_and s =
  (* v = a & b on fresh variables; returns (a, b, v) *)
  let a = Solver.new_var s and b = Solver.new_var s and v = Solver.new_var s in
  Solver.add_clause s [ Solver.neg_of v; Solver.pos a ];
  Solver.add_clause s [ Solver.neg_of v; Solver.pos b ];
  Solver.add_clause s [ Solver.pos v; Solver.neg_of a; Solver.neg_of b ];
  (a, b, v)

let test_model_reconstruction () =
  (* eliminate the Tseitin variable, then demand a full model: the
     eliminated variable's value must be reconstructed consistently *)
  let s = Solver.create () in
  let a, b, v = tseitin_and s in
  Solver.add_clause s [ Solver.pos a ];
  Solver.simplify_now s;
  Helpers.check_bool "sat" true (Solver.solve s = Solver.Sat);
  Helpers.check_bool "v = a & b holds in the model" true
    (Solver.value s (Solver.pos v)
    = (Solver.value s (Solver.pos a) && Solver.value s (Solver.pos b)))

let test_reintroduction_via_add_clause () =
  (* after v is eliminated, a new clause naming v must bring its
     defining clauses back: v & ~a is unsat only through them *)
  let s = Solver.create () in
  let p = Proof.create () in
  Solver.set_proof s p;
  let a, _, v = tseitin_and s in
  Solver.simplify_now s;
  Helpers.check_bool "v eliminated" true (Solver.num_eliminated s >= 1);
  Solver.add_clause s [ Solver.pos v ];
  Solver.add_clause s [ Solver.neg_of a ];
  Helpers.check_bool "unsat through restored clauses" true
    (Solver.solve s = Solver.Unsat);
  ok_or_fail "drup after reintroduction" (Drup.check (Proof.events p))

let test_reintroduction_via_assumptions () =
  let s = Solver.create () in
  let a, b, v = tseitin_and s in
  Solver.simplify_now s;
  Helpers.check_bool "sat under v" true
    (Solver.solve ~assumptions:[ Solver.pos v ] s = Solver.Sat);
  Helpers.check_bool "a and b forced by v" true
    (Solver.value s (Solver.pos a) && Solver.value s (Solver.pos b));
  Helpers.check_bool "unsat under v & ~a" true
    (Solver.solve ~assumptions:[ Solver.pos v; Solver.neg_of a ] s
    = Solver.Unsat)

let php s pigeons holes =
  let var =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s))
  in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Solver.pos var.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s
          [ Solver.neg_of var.(p1).(h); Solver.neg_of var.(p2).(h) ]
      done
    done
  done

let test_drup_from_simplified_run () =
  (* a full unsat run with inprocessing on: every simplification step
     (subsumption deletes, BVE resolvents, probe units) must leave the
     proof checkable *)
  let s = Solver.create () in
  let p = Proof.create () in
  Solver.set_proof s p;
  Solver.set_inprocess s true;
  php s 6 5;
  Helpers.check_bool "php(6,5) unsat" true (Solver.solve s = Solver.Unsat);
  Helpers.check_bool "inprocessing ran" true (Solver.num_simplifies s >= 1);
  Helpers.check_bool "variables eliminated" true (Solver.num_eliminated s >= 1);
  ok_or_fail "drup of simplified run" (Drup.check (Proof.events p))

let test_tiers_never_drop_core () =
  (* LBD tiers under heavy reduce_db pressure: core learnts and locked
     clauses survive by construction, and the watch lists stay clean *)
  let s = Solver.create () in
  php s 7 6;
  Solver.set_max_learnts s 5;
  Helpers.check_bool "php(7,6) unsat" true (Solver.solve s = Solver.Unsat);
  Helpers.check_bool "reduce_db ran" true (Solver.num_reduce_dbs s > 0);
  Helpers.check_int "no core learnt ever deleted" 0
    (Solver.num_core_deleted s);
  Helpers.check_int "no dead watch entries" 0 (Solver.num_dead_watches s);
  Helpers.check_int "watch entries = 2 * live clauses"
    (2 * (Solver.num_clauses s + Solver.num_learnts s))
    (Solver.num_watch_entries s)

(* ----- fault injection still caught under inprocessing ----- *)

let test_chaos_flip_to_unsat_caught () =
  Chaos.with_fault ~seed:1234 Chaos.Flip_to_unsat (fun () ->
      let s = Solver.create () in
      let p = Proof.create () in
      Solver.set_proof s p;
      Solver.set_inprocess s true;
      let a, _, v = tseitin_and s in
      Solver.add_clause s [ Solver.pos a ];
      Solver.simplify_now s;
      (match Solver.solve ~assumptions:[ Solver.pos v ] s with
      | Solver.Unsat -> ()
      | _ -> Alcotest.fail "fault should have reported Unsat");
      Helpers.check_bool "fault fired" true (Chaos.injections () > 0);
      (* the lie has no refutation, simplified clause set or not *)
      Helpers.check_bool "drup rejects flipped unsat" true
        (Result.is_error
           (Drup.check ~goals:[ [ Solver.pos v ] ] (Proof.events p))))

let test_chaos_flip_to_sat_caught () =
  Chaos.with_fault ~seed:1234 Chaos.Flip_to_sat (fun () ->
      let s = Solver.create () in
      Solver.set_inprocess s true;
      php s 4 3;
      (match Solver.solve s with
      | Solver.Sat -> ()
      | _ -> Alcotest.fail "fault should have reported Sat");
      Helpers.check_bool "fault fired" true (Chaos.injections () > 0);
      Helpers.check_bool "check_model rejects garbage model" true
        (Result.is_error (Solver.check_model s)))

(* ----- verdict equivalence, inprocessing on vs off ----- *)

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

let prop_verdict_equivalence =
  Helpers.qtest ~count:300 "inprocessed solver agrees with exhaustive search"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let cnf = random_cnf seed in
      let s = Solver.create () in
      Solver.set_inprocess s true;
      Cnf.load s cnf;
      (* force a pass even when the conflict schedule would skip it *)
      Solver.simplify_now s;
      match (Solver.solve s, Cnf.brute_force cnf) with
      | Solver.Sat, Some _ -> Cnf.eval (Solver.model s) cnf
      | Solver.Unsat, None -> true
      | Solver.Sat, None | Solver.Unsat, Some _ -> false
      | Solver.Unknown, _ -> false)

let prop_assumptions_hit_eliminated =
  Helpers.qtest ~count:200
    "assumptions naming eliminated variables stay correct"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let rng = Workload.Rng.create (seed + 23) in
      let cnf = random_cnf seed in
      let s = Solver.create () in
      Solver.set_inprocess s true;
      Cnf.load s cnf;
      Solver.simplify_now s;
      (* unfrozen assumptions: some will name just-eliminated vars *)
      let assumptions =
        List.init
          (1 + Workload.Rng.int rng 3)
          (fun _ ->
            let v = Workload.Rng.int rng cnf.Cnf.num_vars in
            if Workload.Rng.bool rng then Solver.pos v else Solver.neg_of v)
      in
      let strengthened =
        {
          cnf with
          Cnf.clauses = List.map (fun a -> [ a ]) assumptions @ cnf.Cnf.clauses;
        }
      in
      match (Solver.solve ~assumptions s, Cnf.brute_force strengthened) with
      | Solver.Sat, Some _ -> Cnf.eval (Solver.model s) strengthened
      | Solver.Unsat, None -> true
      | Solver.Sat, None | Solver.Unsat, Some _ -> false
      | Solver.Unknown, _ -> false)

(* BMC over structured random designs: the end-to-end answer must not
   depend on inprocessing.  The default is process-global, so save and
   restore it around each arm. *)
let bmc_with inprocess net depth =
  let saved = Solver.inprocess_default () in
  Solver.set_inprocess_default inprocess;
  Fun.protect ~finally:(fun () -> Solver.set_inprocess_default saved)
  @@ fun () -> Bmc.check net ~target:"t" ~depth

let prop_bmc_corpus_equivalence =
  Helpers.qtest ~count:25 "BMC verdicts agree with inprocessing on and off"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let net, _ = Helpers.rand_structured seed in
      match (bmc_with true net 8, bmc_with false net 8) with
      | Bmc.Hit a, Bmc.Hit b -> a.Bmc.depth = b.Bmc.depth
      | Bmc.No_hit a, Bmc.No_hit b -> a = b
      | _ -> false)

(* ----- the inprocessing schedule ----- *)

let test_no_pass_before_search () =
  (* a balanced AND tree over 64 inputs: assuming every input true
     decides the whole problem by propagation, with no decision and no
     conflict, so the solver has done no search to pay for a pass *)
  let s = Solver.create ~inprocess:true () in
  let inputs = List.init 64 (fun _ -> Solver.new_var s) in
  let rec tree = function
    | [ v ] -> v
    | vs ->
      let rec pair = function
        | a :: b :: rest ->
          let v = Solver.new_var s in
          Solver.add_clause s [ Solver.neg_of v; Solver.pos a ];
          Solver.add_clause s [ Solver.neg_of v; Solver.pos b ];
          Solver.add_clause s
            [ Solver.pos v; Solver.neg_of a; Solver.neg_of b ];
          v :: pair rest
        | rest -> rest
      in
      tree (pair vs)
  in
  let root = tree inputs in
  Helpers.check_bool "sat" true
    (Solver.solve ~assumptions:(List.map Solver.pos inputs) s = Solver.Sat);
  Helpers.check_bool "root forced" true (Solver.value s (Solver.pos root));
  Helpers.check_int "no decision" 0 (Solver.num_decisions s);
  Helpers.check_int "no conflict" 0 (Solver.num_conflicts s);
  Helpers.check_int "no pass" 0 (Solver.num_simplifies s)

let test_short_incremental_solves_pay_no_pass () =
  (* a shallow BMC unrolling: 16 pairs of registers latch the same free
     inputs, and the target asks every pair to disagree.  Assuming it
     refutes each depth with one conflict and a few propagations, while
     each frame adds ~90 clauses.  Over the 41 incremental solves at
     most one pass may run. *)
  let module Net = Netlist.Net in
  let net = Net.create () in
  let disagree =
    List.init 16 (fun i ->
        let x = Net.add_input net (Printf.sprintf "x%d" i) in
        let a = Net.add_reg net (Printf.sprintf "a%d" i)
        and b = Net.add_reg net (Printf.sprintf "b%d" i) in
        Net.set_next net a x;
        Net.set_next net b x;
        Net.add_and net a (Netlist.Lit.neg b))
  in
  Net.add_target net "t" (Net.add_and_list net disagree);
  Obs.Stats.reset ();
  let outcome = bmc_with true net 40 in
  let counter name = Obs.Stats.counter_value (Obs.Stats.counter name) in
  Helpers.check_bool "no hit through depth 40" true (outcome = Bmc.No_hit 40);
  Helpers.check_int "41 solves" 41 (counter "sat.solves");
  Helpers.check_bool "search ran" true (counter "sat.conflicts" > 0);
  Helpers.check_bool "at most one pass" true (counter "sat.simplify.runs" <= 1)

let suite =
  [
    Alcotest.test_case "subsumption" `Quick test_subsumption;
    Alcotest.test_case "self-subsuming resolution" `Quick test_self_subsumption;
    Alcotest.test_case "failed-literal probing" `Quick test_probing;
    Alcotest.test_case "bve records elimination" `Quick
      test_bve_records_elimination;
    Alcotest.test_case "model reconstruction" `Quick test_model_reconstruction;
    Alcotest.test_case "reintroduction via add_clause" `Quick
      test_reintroduction_via_add_clause;
    Alcotest.test_case "reintroduction via assumptions" `Quick
      test_reintroduction_via_assumptions;
    Alcotest.test_case "drup from simplified run" `Quick
      test_drup_from_simplified_run;
    Alcotest.test_case "tiers never drop core" `Quick
      test_tiers_never_drop_core;
    Alcotest.test_case "no pass before search" `Quick
      test_no_pass_before_search;
    Alcotest.test_case "short incremental solves pay no pass" `Quick
      test_short_incremental_solves_pay_no_pass;
    Alcotest.test_case "chaos flip-to-unsat caught" `Quick
      test_chaos_flip_to_unsat_caught;
    Alcotest.test_case "chaos flip-to-sat caught" `Quick
      test_chaos_flip_to_sat_caught;
    prop_verdict_equivalence;
    prop_assumptions_hit_eliminated;
    prop_bmc_corpus_equivalence;
  ]
