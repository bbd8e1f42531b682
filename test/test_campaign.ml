(* Campaign layer: corpus walk/tallies/exit codes, the differential
   oracle matrix, the structural shrinker, fuzz determinism, and the
   end-to-end chaos drill (every Sat.Chaos fault class must be found
   by the campaign and shrunk to a small repro). *)

module Net = Netlist.Net
module Corpus = Campaign.Corpus
module Oracle = Campaign.Oracle
module Hunt = Campaign.Hunt
module Fuzz = Workload.Fuzz
module Shrink = Workload.Shrink

let tmp_counter = ref 0

let fresh_dir prefix =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "diambound_%s_%d_%d" prefix (Unix.getpid ()) !tmp_counter)
  in
  Sys.mkdir dir 0o755;
  dir

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* A corpus with every outcome class: proved, violated, malformed,
   an .aag problem, a nested subdirectory, and a non-problem file
   that the walk must skip. *)
let make_corpus () =
  let dir = fresh_dir "corpus" in
  write_file
    (Filename.concat dir "a_proved.bench")
    "INPUT(x)\nnx = NOT(x)\nt = AND(x, nx)\nOUTPUT(t)\n";
  write_file (Filename.concat dir "b_violated.bench") "INPUT(x)\nOUTPUT(x)\n";
  write_file (Filename.concat dir "c_bad.bench") "this is not a netlist\n";
  write_file (Filename.concat dir "d.aag") "aag 1 1 0 1 0\n2\n2\n";
  write_file (Filename.concat dir "notes.txt") "not a problem\n";
  Sys.mkdir (Filename.concat dir "sub") 0o755;
  write_file
    (Filename.concat dir "sub/e_proved.bench")
    "INPUT(y)\nny = NOT(y)\nt = AND(y, ny)\nOUTPUT(t)\n";
  dir

let test_walk () =
  let dir = make_corpus () in
  let paths = Corpus.walk dir in
  Helpers.check_int "walk finds the problems (not notes.txt)" 5
    (List.length paths);
  Helpers.check_bool "walk is sorted" true
    (paths = List.sort String.compare paths);
  let names = List.map Filename.basename paths in
  Helpers.check_bool "nested problems included" true
    (List.mem "e_proved.bench" names)

let test_corpus_tallies_and_exit () =
  let dir = make_corpus () in
  let s = Corpus.run (Corpus.walk dir) in
  Helpers.check_int "proved" 2 s.Corpus.proved;
  Helpers.check_int "violated" 2 s.Corpus.violated;
  Helpers.check_int "malformed" 1 s.Corpus.malformed;
  Helpers.check_int "crashed" 0 s.Corpus.crashed;
  Helpers.check_int "a finding exits 1" 1 (Corpus.exit_code s);
  (* the malformed outcome carries the parse position *)
  let bad =
    List.find
      (fun i -> Filename.basename i.Corpus.path = "c_bad.bench")
      s.Corpus.items
  in
  (match bad.Corpus.outcome with
  | Corpus.Malformed { line = Some 1; msg } ->
    Helpers.check_bool "malformed message non-empty" true (msg <> "")
  | o ->
    Alcotest.failf "expected Malformed line 1, got %s" (Corpus.outcome_name o))

let test_corpus_exit_codes () =
  (* all-proved corpus exits 0 *)
  let dir = fresh_dir "ok" in
  write_file
    (Filename.concat dir "p.bench")
    "INPUT(x)\nnx = NOT(x)\nt = AND(x, nx)\nOUTPUT(t)\n";
  let s = Corpus.run (Corpus.walk dir) in
  Helpers.check_int "all-ok exits 0" 0 (Corpus.exit_code s);
  (* under an already-expired budget every problem is a timeout: the
     walk must degrade to exit 3, never conclude or abort *)
  let mk_budget () = Obs.Budget.create ~timeout_s:0. () in
  let s = Corpus.run ~mk_budget (Corpus.walk dir) in
  Helpers.check_int "timeout tally" 1 s.Corpus.timeout;
  Helpers.check_int "inconclusive-only exits 3" 3 (Corpus.exit_code s)

let strip_elapsed (i : Corpus.item) = (i.Corpus.path, i.Corpus.targets, i.Corpus.outcome)

let test_corpus_jobs_deterministic () =
  let dir = make_corpus () in
  let paths = Corpus.walk dir in
  let s1 = Corpus.run ~jobs:1 paths in
  let s2 = Corpus.run ~jobs:2 paths in
  Helpers.check_bool "items identical across --jobs" true
    (List.map strip_elapsed s1.Corpus.items
    = List.map strip_elapsed s2.Corpus.items)

let test_oracle_clean () =
  (* a healthy build reports zero findings across species, and the
     expired-budget cell stays inconclusive *)
  List.iter
    (fun i ->
      let case = Fuzz.case ~seed:3 i in
      List.iter
        (fun (t, _) ->
          let findings, cells = Oracle.run case.Fuzz.net ~target:t in
          (match findings with
          | [] -> ()
          | f :: _ ->
            Alcotest.failf "case %s %s: unexpected %s" case.Fuzz.label t
              (Format.asprintf "%a" Oracle.pp_finding f));
          let expired =
            List.find (fun c -> c.Oracle.cell = "expired-budget") cells
          in
          match expired.Oracle.outcome with
          | Ok (Core.Engine.Inconclusive _) -> ()
          | Ok v ->
            Alcotest.failf "expired budget concluded %s"
              (Core.Engine.verdict_brief v)
          | Error e -> Alcotest.failf "expired budget crashed %s" e)
        (Net.targets case.Fuzz.net))
    [ 0; 1; 2; 3; 4; 5 ]

let test_fuzz_deterministic () =
  (* the same (seed, i) always breeds a byte-identical design *)
  List.iter
    (fun i ->
      let a = Fuzz.case ~seed:9 i in
      let b = Fuzz.case ~seed:9 i in
      Helpers.check_bool
        (Printf.sprintf "case %d reproducible" i)
        true
        (String.equal
           (Textio.Netfmt.to_string a.Fuzz.net)
           (Textio.Netfmt.to_string b.Fuzz.net)))
    [ 0; 3; 11 ];
  let different =
    Textio.Netfmt.to_string (Fuzz.case ~seed:9 0).Fuzz.net
    <> Textio.Netfmt.to_string (Fuzz.case ~seed:10 0).Fuzz.net
  in
  Helpers.check_bool "seeds differ" true different

let test_hunt_jobs_deterministic () =
  let strip (c : Hunt.case_report) =
    (c.Hunt.label, c.Hunt.species, c.Hunt.size, c.Hunt.verdicts)
  in
  let r1 = Hunt.run ~jobs:1 ~seed:5 ~count:6 () in
  let r2 = Hunt.run ~jobs:2 ~seed:5 ~count:6 () in
  Helpers.check_int "zero findings" 0 r1.Hunt.findings;
  Helpers.check_bool "reports identical across --jobs" true
    (List.map strip r1.Hunt.cases = List.map strip r2.Hunt.cases)

(* ----- shrinker ----- *)

(* a violated counter target surrounded by junk the shrinker must
   discard: an unrelated memory block and a dead pipeline *)
let shrink_fixture () =
  let net = Net.create () in
  let ins = List.init 6 (fun i -> Net.add_input net (Printf.sprintf "i%d" i)) in
  let c = Workload.Gen.counter net ~name:"c" ~bits:3 ~enable:Netlist.Lit.true_ in
  let addr, data, write =
    match ins with
    | a0 :: a1 :: d0 :: d1 :: w :: _ -> ([ a0; a1 ], [ d0; d1 ], w)
    | _ -> assert false
  in
  let m = Workload.Gen.memory net ~name:"m" ~rows:4 ~width:2 ~addr ~data ~write in
  let joined = Net.add_or net c.Workload.Gen.out m.Workload.Gen.out in
  Net.add_target net "t" joined;
  Net.add_output net "t" joined;
  Net.check net;
  net

let violated net =
  match
    Core.Engine.verify ~config:Oracle.config net ~target:"t"
  with
  | Core.Engine.Violated _ -> true
  | _ -> false

let test_shrink_removes_junk () =
  let net = shrink_fixture () in
  Helpers.check_bool "fixture violated" true (violated net);
  let r = Shrink.run ~keep:violated net ~target:"t" in
  Helpers.check_bool
    (Printf.sprintf "shrunk %d -> %d" r.Shrink.original_size r.Shrink.shrunk_size)
    true
    (2 * r.Shrink.shrunk_size <= r.Shrink.original_size);
  Helpers.check_bool "finding survives shrinking" true (violated r.Shrink.net);
  Net.check r.Shrink.net;
  (* deterministic: a second run reproduces the same minimal repro *)
  let r2 = Shrink.run ~keep:violated (shrink_fixture ()) ~target:"t" in
  Helpers.check_bool "shrink deterministic" true
    (String.equal
       (Textio.Bench_io.to_string r.Shrink.net)
       (Textio.Bench_io.to_string r2.Shrink.net))

let test_shrink_never_grows () =
  let net = shrink_fixture () in
  (* a keep that rejects everything: the result is the COI restriction
     at worst, never larger than the original *)
  let r = Shrink.run ~keep:(fun _ -> false) net ~target:"t" in
  Helpers.check_bool "no growth" true
    (r.Shrink.shrunk_size <= r.Shrink.original_size);
  Helpers.check_int "nothing accepted" 0 r.Shrink.accepted

let test_restrict_drops_other_cones () =
  let net = Net.create () in
  let x = Net.add_input net "x" in
  let c = Workload.Gen.counter net ~name:"c" ~bits:2 ~enable:x in
  let q =
    Workload.Gen.queue net ~name:"q" ~depth:4 ~width:1 ~push:x ~data:[ x ]
  in
  Net.add_target net "t_c" c.Workload.Gen.out;
  Net.add_output net "t_c" c.Workload.Gen.out;
  Net.add_target net "t_q" q.Workload.Gen.out;
  Net.add_output net "t_q" q.Workload.Gen.out;
  let r = Shrink.restrict net ~target:"t_c" in
  Helpers.check_int "counter regs survive" 2 (Net.num_regs r);
  Helpers.check_int "one target left" 1 (List.length (Net.targets r));
  Net.check r

(* ----- the chaos drill ----- *)

let chaos_seed =
  match Sys.getenv_opt "DIAMBOUND_CHAOS_SEED" with
  | Some s -> int_of_string s
  | None -> 1234

(* Injected solver faults must surface as campaign findings, and each
   finding must shrink to a repro no larger than half its breeding
   design; the written repros must replay through the corpus runner
   (parse + run without crashing). *)
let drill fault () =
  let repro_dir = fresh_dir "repros" in
  let report =
    (* conflicts-only budget: deterministic, and keeps the drill fast
       even though the fault defeats every strategy (full ladder per
       cell otherwise) *)
    let mk_budget () = Obs.Budget.create ~conflicts:4_000 () in
    Sat.Chaos.with_fault ~seed:chaos_seed fault (fun () ->
        let r = Hunt.run ~mk_budget ~repro_dir ~seed:chaos_seed ~count:3 () in
        Helpers.check_bool "fault actually fired" true (Sat.Chaos.injections () > 0);
        r)
  in
  Helpers.check_bool
    (Printf.sprintf "%s detected (%d findings)" (Sat.Chaos.fault_name fault)
       report.Hunt.findings)
    true (report.Hunt.findings > 0);
  List.iter
    (fun (c : Hunt.case_report) ->
      List.iter
        (fun ((_ : Oracle.finding), (s : Hunt.shrink_info)) ->
          Helpers.check_bool
            (Printf.sprintf "%s: shrunk %d -> %d (half of breeding design)"
               c.Hunt.label s.Hunt.original_size s.Hunt.shrunk_size)
            true
            (2 * s.Hunt.shrunk_size <= s.Hunt.original_size);
          match s.Hunt.repro with
          | None -> Alcotest.fail "repro not written"
          | Some path ->
            Helpers.check_bool "repro on disk" true (Sys.file_exists path))
        c.Hunt.findings)
    report.Hunt.cases;
  (* repros replay cleanly once the fault is gone: each parses and
     verifies (conclusively or not) without crashing or tallying
     malformed *)
  let s = Corpus.run (Corpus.walk repro_dir) in
  Helpers.check_int "repros parse (no malformed)" 0 s.Corpus.malformed;
  Helpers.check_int "repros run (no crash)" 0 s.Corpus.crashed

let suite =
  [
    Alcotest.test_case "corpus walk" `Quick test_walk;
    Alcotest.test_case "corpus tallies and exit" `Quick
      test_corpus_tallies_and_exit;
    Alcotest.test_case "corpus exit codes" `Quick test_corpus_exit_codes;
    Alcotest.test_case "corpus jobs-deterministic" `Quick
      test_corpus_jobs_deterministic;
    Alcotest.test_case "oracle clean on healthy build" `Quick test_oracle_clean;
    Alcotest.test_case "fuzz deterministic" `Quick test_fuzz_deterministic;
    Alcotest.test_case "hunt jobs-deterministic" `Quick
      test_hunt_jobs_deterministic;
    Alcotest.test_case "shrink removes junk" `Quick test_shrink_removes_junk;
    Alcotest.test_case "shrink never grows" `Quick test_shrink_never_grows;
    Alcotest.test_case "restrict drops other cones" `Quick
      test_restrict_drops_other_cones;
    Alcotest.test_case "chaos drill: flip-to-unsat" `Slow
      (drill Sat.Chaos.Flip_to_unsat);
    Alcotest.test_case "chaos drill: flip-to-sat" `Slow
      (drill Sat.Chaos.Flip_to_sat);
    Alcotest.test_case "chaos drill: corrupt-model" `Slow
      (drill Sat.Chaos.Corrupt_model);
    Alcotest.test_case "chaos drill: drop-proof" `Slow
      (drill Sat.Chaos.Drop_proof);
  ]
