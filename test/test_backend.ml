(* Differential tests for the pluggable solver backends: every
   backend is a sound decision procedure over the same clause set, so
   conclusive answers must agree — with each other and with
   exhaustive search — on random CNF and on the BMC corpus.  Unknowns
   are allowed but must carry the right structured reason: the BDD
   oracle only ever stands down on its node limit, the external
   backend only ever degrades to backend-unavailable (never an
   exception), and chaos faults injected at the backend seam must
   surface as detectable lies, not silent corruption.

   The external-backend round-trip tests drive the in-tree [diam sat]
   subcommand as the external solver (it speaks the SAT-competition
   protocol the backend expects); they skip gracefully when the
   binary has not been built. *)

module Net = Netlist.Net
module Lit = Netlist.Lit
module Cnf = Sat.Cnf
module Chaos = Sat.Chaos

let random_cnf seed =
  let rng = Workload.Rng.create seed in
  let nv = 1 + Workload.Rng.int rng 10 in
  let nc = 1 + Workload.Rng.int rng 35 in
  let clauses =
    List.init nc (fun _ ->
        let len = 1 + Workload.Rng.int rng 4 in
        List.init len (fun _ ->
            let v = Workload.Rng.int rng nv in
            if Workload.Rng.bool rng then Backend.pos v else Backend.neg_of v))
  in
  { Cnf.num_vars = nv; clauses }

(* load a CNF into a backend instance (Cnf.load is pinned to the raw
   CDCL solver type) *)
let load s cnf =
  for _ = 1 to cnf.Cnf.num_vars do
    ignore (Backend.new_var s)
  done;
  List.iter (Backend.add_clause s) cnf.Cnf.clauses

let model_of s cnf =
  Array.init cnf.Cnf.num_vars (fun v -> Backend.value s (Backend.pos v))

(* the diam binary, for external-backend round trips; the test stanza
   declares the dependency, but stay graceful if it is absent *)
let diam_exe =
  let p =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/diam_tool.exe"
  in
  if Sys.file_exists p then Some p else None

let ext_cmd () =
  Option.map (fun p -> Filename.quote p ^ " sat") diam_exe

(* a backend's answer on [cnf] checked against exhaustive search;
   [unknown_ok] validates the stand-down reason *)
let agrees ?(unknown_ok = fun _ -> false) backend cnf =
  let s = Backend.instantiate backend in
  load s cnf;
  match (Backend.solve s, Cnf.brute_force cnf) with
  | Backend.Sat, Some _ -> Cnf.eval (model_of s cnf) cnf
  | Backend.Unsat, None -> true
  | Backend.Sat, None | Backend.Unsat, Some _ -> false
  | Backend.Unknown why, _ -> unknown_ok why

let prop_reference_and_bdd_agree =
  Helpers.qtest ~count:200 "reference and bdd agree with exhaustive search"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let cnf = random_cnf seed in
      (* no budget, default node allowance: Unknown is never acceptable
         on a 10-variable instance *)
      agrees (Backend.reference ()) cnf && agrees (Backend.bdd_oracle ()) cnf)

let prop_ext_agrees =
  Helpers.qtest ~count:30 "external solver round-trip agrees"
    QCheck.(int_bound 1000000)
    (fun seed ->
      match ext_cmd () with
      | None -> true (* diam not built; the stanza dep makes this rare *)
      | Some cmd ->
        agrees (Backend.external_solver ~cmd ()) (random_cnf seed))

let prop_bdd_unknowns_are_node_limit =
  Helpers.qtest ~count:100 "starved bdd oracle stands down on node limit only"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let cnf = random_cnf seed in
      (* a 2-node manager blows up on anything non-trivial; whatever
         still concludes must be correct, and every Unknown must be a
         node-limit stand-down — never budget noise, never a lie *)
      agrees
        ~unknown_ok:Backend.is_node_limit
        (Backend.bdd_oracle ~max_nodes:2 ())
        cnf)

(* ----- BMC corpus: the same outcomes through every backend ----- *)

let bmc_corpus () =
  let mk name depth build =
    let net = Net.create () in
    let lit = build net in
    Net.add_target net "t" lit;
    (name, net, depth)
  in
  [
    (* conclusive hit at depth 15 *)
    mk "counter4" 20 (fun net ->
        (Workload.Gen.counter net ~name:"c" ~bits:4 ~enable:Lit.true_)
          .Workload.Gen.out);
    (* input-gated: hit still at 15, but every depth is a real solve *)
    mk "gated4" 20 (fun net ->
        let en = Net.add_input net "en" in
        (Workload.Gen.counter net ~name:"c" ~bits:4 ~enable:en)
          .Workload.Gen.out);
    (* no hit inside the horizon *)
    mk "counter6" 10 (fun net ->
        (Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:Lit.true_)
          .Workload.Gen.out);
  ]

let outcome_eq a b =
  match (a, b) with
  | Bmc.Hit x, Bmc.Hit y -> x.Bmc.depth = y.Bmc.depth
  | Bmc.No_hit x, Bmc.No_hit y -> x = y
  | _ -> false

let test_bmc_corpus_agreement () =
  let backends =
    [ ("reference", Backend.reference ()); ("bdd", Backend.bdd_oracle ()) ]
    @
    match ext_cmd () with
    | Some cmd -> [ ("ext", Backend.external_solver ~cmd ()) ]
    | None -> []
  in
  List.iter
    (fun (name, net, depth) ->
      let reference =
        Bmc.check ~backend:(Backend.reference ()) net ~target:"t" ~depth
      in
      List.iter
        (fun (bname, b) ->
          match Bmc.check ~backend:b net ~target:"t" ~depth with
          | Bmc.Unknown { why; _ } ->
            (* only the bdd oracle may stand down here, and only on
               its node limit *)
            Helpers.check_bool
              (Printf.sprintf "%s/%s unknown is node-limit" name bname)
              true
              (String.equal bname "bdd" && Backend.is_node_limit why)
          | outcome ->
            Helpers.check_bool
              (Printf.sprintf "%s/%s agrees with reference" name bname)
              true
              (outcome_eq reference outcome))
        backends)
    (bmc_corpus ())

(* ----- external backend: degradation, never a crash ----- *)

let test_ext_missing_binary () =
  let s =
    Backend.instantiate
      (Backend.external_solver ~cmd:"/nonexistent/diambound-ext-solver" ())
  in
  let v = Backend.new_var s in
  Backend.add_clause s [ Backend.pos v ];
  match Backend.solve s with
  | Backend.Unknown why ->
    Helpers.check_bool "structured backend-unavailable reason" true
      (Backend.is_unavailable why)
  | Backend.Sat | Backend.Unsat ->
    Alcotest.fail "missing binary must not produce a verdict"

let test_ext_garbage_command () =
  (* a command that runs but speaks no SAT-competition protocol *)
  let s =
    Backend.instantiate (Backend.external_solver ~cmd:"echo not-a-solver" ())
  in
  let v = Backend.new_var s in
  Backend.add_clause s [ Backend.pos v ];
  match Backend.solve s with
  | Backend.Unknown why ->
    Helpers.check_bool "unparseable output is unavailable" true
      (Backend.is_unavailable why)
  | Backend.Sat | Backend.Unsat ->
    Alcotest.fail "protocol-less output must not produce a verdict"

let test_ext_unsat_proof_roundtrip () =
  match ext_cmd () with
  | None -> () (* diam not built *)
  | Some cmd ->
    let s = Backend.instantiate (Backend.external_solver ~cmd ()) in
    let proof = Sat.Proof.create () in
    Backend.set_proof s proof;
    let a = Backend.pos (Backend.new_var s) in
    let b = Backend.pos (Backend.new_var s) in
    Backend.add_clause s [ a; b ];
    Backend.add_clause s [ Backend.negate a ];
    Backend.add_clause s [ Backend.negate b ];
    (match Backend.solve s with
    | Backend.Unsat -> ()
    | Backend.Sat -> Alcotest.fail "contradiction must be unsat"
    | Backend.Unknown why -> Alcotest.fail ("ext stood down: " ^ why));
    (* the DRUP derivation came back across the process boundary *)
    Helpers.check_bool "proof events recorded" true
      (Sat.Proof.events proof <> [])

(* ----- chaos faults cross the backend seam and are detectable ----- *)

let chaos_seed = 1234

let test_chaos_flip_detected_through_seam () =
  Chaos.with_fault ~seed:chaos_seed Chaos.Flip_to_unsat (fun () ->
      let cnf = { Cnf.num_vars = 1; clauses = [ [ Backend.pos 0 ] ] } in
      let lied = not (agrees (Backend.bdd_oracle ()) cnf) in
      Helpers.check_bool "fault fired at the backend seam" true
        (Chaos.injections () > 0);
      (* the differential oracle sees the flip: a satisfiable instance
         reported Unsat disagrees with exhaustive search *)
      Helpers.check_bool "flip is detectable by the oracle" true lied)

let test_chaos_corrupt_model_detected () =
  Chaos.with_fault ~seed:chaos_seed Chaos.Corrupt_model (fun () ->
      let cnf =
        { Cnf.num_vars = 2; clauses = [ [ Backend.pos 0 ]; [ Backend.pos 1 ] ] }
      in
      let lied = not (agrees (Backend.bdd_oracle ()) cnf) in
      Helpers.check_bool "fault fired at the backend seam" true
        (Chaos.injections () > 0);
      Helpers.check_bool "corrupt model fails evaluation" true lied)

(* ----- selection: names, specs, and the (strategy x backend) race ----- *)

let test_spec_parsing () =
  (match Backend.spec_of_string "bdd" with
  | Ok (Backend.Single b) -> Helpers.check Alcotest.string "bdd name" "bdd" b.Backend.b_name
  | _ -> Alcotest.fail "bdd must parse as a single backend");
  (match Backend.spec_of_string "race" with
  | Ok (Backend.Race bs) ->
    Helpers.check_bool "race enlists at least reference+bdd" true
      (List.length bs >= 2)
  | _ -> Alcotest.fail "race must parse as a race");
  (match Backend.spec_of_string "no-such-backend" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown names must be rejected");
  (* per-instance configuration shows up in the digest identity *)
  Helpers.check_bool "inprocess choice is part of the identity" true
    (not
       (String.equal
          (Backend.reference ()).Backend.b_id
          (Backend.reference ~inprocess:false ()).Backend.b_id))

let test_race_verdict_matches_reference () =
  let net = Net.create () in
  let c = Workload.Gen.counter net ~name:"c" ~bits:4 ~enable:Lit.true_ in
  Net.add_target net "t" c.Workload.Gen.out;
  let verify spec =
    Core.Engine.verify
      ~config:{ Core.Engine.default with Core.Engine.backend = Some spec }
      net ~target:"t"
  in
  let single = verify (Backend.Single (Backend.reference ())) in
  let race =
    verify (Backend.Race [ Backend.reference (); Backend.bdd_oracle () ])
  in
  match (single, race) with
  | Core.Engine.Violated p, Core.Engine.Violated q ->
    (* rank selection: the race grid is backend-major, so every
       reference cell outranks every bdd cell and the reference
       ladder's winner is the race's, verdict text unchanged *)
    Helpers.check Alcotest.string "same winning cell" p.strategy q.strategy;
    Helpers.check_int "same counterexample depth" p.cex.Bmc.depth
      q.cex.Bmc.depth
  | _ -> Alcotest.fail "counter must be Violated under both specs"

let suite =
  [
    prop_reference_and_bdd_agree;
    prop_ext_agrees;
    prop_bdd_unknowns_are_node_limit;
    Alcotest.test_case "bmc corpus agreement" `Quick test_bmc_corpus_agreement;
    Alcotest.test_case "ext missing binary degrades" `Quick
      test_ext_missing_binary;
    Alcotest.test_case "ext garbage output degrades" `Quick
      test_ext_garbage_command;
    Alcotest.test_case "ext unsat proof round-trip" `Quick
      test_ext_unsat_proof_roundtrip;
    Alcotest.test_case "chaos flip detected through seam" `Quick
      test_chaos_flip_detected_through_seam;
    Alcotest.test_case "chaos corrupt model detected" `Quick
      test_chaos_corrupt_model_detected;
    Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "race verdict matches reference" `Quick
      test_race_verdict_matches_reference;
  ]
