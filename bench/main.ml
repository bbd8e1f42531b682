(* Benchmark harness: regenerates every table of the paper's
   evaluation section (Tables 1 and 2), the recurrence-diameter
   baseline comparison the paper motivates, engine verdicts over the
   baseline designs, the retiming/obscuring ablations, and Bechamel
   timing benches (one per table).

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table1  -- a single experiment
     (table1 | table2 | baseline | verify | ablation | bechamel)

   --certify makes the "verify" experiment certify every verdict
   (counterexample replay + DRUP re-check), so the certification
   overhead shows up in the --stats certify.* spans next to the
   solver time it is checking.  --backend NAME sets the process
   default solver backend, same spelling as the tools' --backend;
   --no-inprocess turns SAT inprocessing off.

   Pass --stats-json FILE to also dump the Obs.Stats snapshot (solver
   counters, per-experiment spans) as JSON; --stats prints the
   human-readable table.  --timeout S / --conflicts N / --bdd-nodes N
   put each budgeted computation under a resource budget (see
   Obs.Budget): exhausted work degrades to partial results instead of
   running away.

   Timings here are single-run and ungated.  The deterministic work of
   the solver, BMC and engine is gated exactly by the test/counts
   snapshot; wall clock, over repeated runs, by perfbench/.           *)

module Net = Netlist.Net
module Lit = Netlist.Lit

let cutoff = 50

(* resource-budget flags; a fresh budget (fresh deadline) is minted at
   the start of each budgeted computation *)
let budget_spec :
    (float option * int option * int option) ref (* timeout, confl, nodes *)
    =
  ref (None, None, None)

let fresh_budget () =
  let timeout_s, conflicts, bdd_nodes = !budget_spec in
  Obs.Budget.create ?timeout_s ?conflicts ?bdd_nodes ()

(* ----- shared row machinery ----- *)

type row = {
  design : string;
  reports : Core.Pipeline.report list; (* Original / COM / COM,RET,COM *)
}

(* one store per design: COM,RET,COM retimes the COM netlist rather
   than running COM again *)
let run_pipelines net =
  let budget = fresh_budget () in
  let store = Core.Pipeline.Store.create net in
  let original = Core.Pipeline.Store.original store in
  let com = Core.Pipeline.Store.com ~budget store in
  [ original; com; Core.Pipeline.Store.com_ret_com ~budget store ]

let pp_cell ppf (report : Core.Pipeline.report) =
  let s = Core.Pipeline.summarize ~cutoff report in
  let c = report.Core.Pipeline.reg_counts in
  Format.fprintf ppf "%4d;%5d;%5d;%5d | %3d/%3d %6.1f" c.Core.Classify.cc
    c.Core.Classify.ac c.Core.Classify.table c.Core.Classify.gc
    s.Core.Pipeline.proved_small s.Core.Pipeline.total s.Core.Pipeline.average

let pp_row ppf row =
  Format.fprintf ppf "%-10s" row.design;
  List.iter (fun r -> Format.fprintf ppf " | %a" pp_cell r) row.reports;
  Format.fprintf ppf "@."

let header ppf () =
  Format.fprintf ppf "%-10s | %-31s | %-31s | %-31s@." "Design"
    "Original  CC;AC;MC+QC;GC T'/T avg" "COM" "COM,RET,COM";
  Format.fprintf ppf "%s@." (String.make 112 '-')

type totals = {
  mutable cc : int;
  mutable ac : int;
  mutable table : int;
  mutable gc : int;
  mutable small : int;
  mutable total : int;
}

let sum_rows rows index =
  let t = { cc = 0; ac = 0; table = 0; gc = 0; small = 0; total = 0 } in
  List.iter
    (fun row ->
      let r = List.nth row.reports index in
      let c = r.Core.Pipeline.reg_counts in
      let s = Core.Pipeline.summarize ~cutoff r in
      t.cc <- t.cc + c.Core.Classify.cc;
      t.ac <- t.ac + c.Core.Classify.ac;
      t.table <- t.table + c.Core.Classify.table;
      t.gc <- t.gc + c.Core.Classify.gc;
      t.small <- t.small + s.Core.Pipeline.proved_small;
      t.total <- t.total + s.Core.Pipeline.total)
    rows;
  t

let pp_totals name rows =
  Format.printf "%-10s" name;
  List.iteri
    (fun i _ ->
      let t = sum_rows rows i in
      Format.printf " | %4d;%5d;%5d;%5d | %3d/%3d %5.0f%%" t.cc t.ac t.table
        t.gc t.small t.total
        (100. *. float_of_int t.small /. float_of_int (max t.total 1)))
    (List.hd rows).reports;
  Format.printf "@."

(* ----- Table 1: ISCAS89-like designs ----- *)

let table1_rows () =
  List.map
    (fun p ->
      let net = Workload.Iscas.build p in
      { design = p.Workload.Iscas.name; reports = run_pipelines net })
    Workload.Iscas.profiles

let table1 () =
  Format.printf
    "@.== Table 1: diameter bounding, ISCAS89-like designs (cutoff %d) ==@."
    cutoff;
  header Format.std_formatter ();
  let rows = table1_rows () in
  List.iter (pp_row Format.std_formatter) rows;
  Format.printf "%s@." (String.make 112 '-');
  pp_totals "SUM" rows;
  Format.printf
    "paper     |                  477/1615   30%%                   556/1615 \
     34%%                    639/1615   40%%@.";
  rows

(* ----- Table 2: phase-abstracted GP-like designs ----- *)

let table2_rows () =
  List.map
    (fun p ->
      let latched = Workload.Gp.build p in
      let abstracted, _translator = Core.Pipeline.phase_front latched in
      { design = p.Workload.Recipe.name; reports = run_pipelines abstracted })
    Workload.Gp.profiles

let table2 () =
  Format.printf
    "@.== Table 2: diameter bounding, phase-abstracted GP-like designs \
     (cutoff %d) ==@."
    cutoff;
  header Format.std_formatter ();
  let rows = table2_rows () in
  List.iter (pp_row Format.std_formatter) rows;
  Format.printf "%s@." (String.make 112 '-');
  pp_totals "SUM" rows;
  Format.printf
    "paper     |                   95/284    33%%                   111/284  \
     39%%                    126/284   44%%@.";
  rows

(* ----- B1: structural bound vs recurrence diameter vs exact ----- *)

let baseline_designs () =
  let mk name build =
    let net = Net.create () in
    let lit = build net in
    Net.add_target net "t" lit;
    (name, net)
  in
  [
    mk "counter4" (fun net ->
        (Workload.Gen.counter net ~name:"c" ~bits:4 ~enable:Lit.true_).Workload.Gen.out);
    mk "counter6" (fun net ->
        (Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:Lit.true_).Workload.Gen.out);
    mk "pipeline10" (fun net ->
        let a = Net.add_input net "a" in
        (Workload.Gen.pipeline net ~name:"p" ~stages:10 ~data:a).Workload.Gen.out);
    mk "queue4" (fun net ->
        let push = Net.add_input net "push" in
        let d = Net.add_input net "d" in
        (* deeper queues make the final recurrence refutation
           pigeonhole-hard — precisely the cost the paper criticizes *)
        (Workload.Gen.queue net ~name:"q" ~depth:4 ~width:1 ~push ~data:[ d ])
          .Workload.Gen.out);
    mk "ring5" (fun net ->
        (Workload.Gen.ring net ~name:"r" ~length:5).Workload.Gen.out);
    mk "lfsr4" (fun net ->
        (Workload.Gen.lfsr net ~name:"l" ~bits:4).Workload.Gen.out);
  ]

let baseline () =
  Format.printf
    "@.== Baseline: structural bound [7] vs recurrence diameter [2,6] vs \
     exact ==@.";
  Format.printf "%-10s %12s %22s %20s %12s@." "design" "structural"
    "recurrence (SAT calls)" "bounded-COI [6]" "exact depth+1";
  List.iter
    (fun (name, net) ->
      let t = List.assoc "t" (Net.targets net) in
      let t0 = Unix.gettimeofday () in
      let s = Core.Bound.target net t in
      let t1 = Unix.gettimeofday () in
      (* the limit embodies the paper's point: the series of SAT
         problems grows quadratically and the final refutation is
         pigeonhole-hard, so deep recurrence searches are abandoned *)
      let r = Core.Recurrence.compute ~limit:80 ~budget:(fresh_budget ()) net t in
      let t2 = Unix.gettimeofday () in
      let b =
        Core.Recurrence.compute ~limit:80 ~bounded_coi:true
          ~budget:(fresh_budget ()) net t
      in
      let exact =
        match Core.Symbolic.explore net t with
        | Some e -> string_of_int (e.Core.Symbolic.sequential_depth + 1)
        | None -> "-"
      in
      Format.printf "%-10s %8s (%4.0fus) %8s (%3d, %6.0fus) %16s (%3d) %10s@."
        name
        (Core.Sat_bound.to_string s.Core.Bound.bound)
        (1e6 *. (t1 -. t0))
        (Core.Sat_bound.to_string r.Core.Recurrence.bound)
        r.Core.Recurrence.sat_calls
        (1e6 *. (t2 -. t1))
        (Core.Sat_bound.to_string b.Core.Recurrence.bound)
        b.Core.Recurrence.sat_calls exact)
    (baseline_designs ())

(* ----- Engine verdicts, optionally self-certified ----- *)

let certify_flag = ref false

let verify_experiment () =
  let certify = !certify_flag in
  Format.printf "@.== Engine verdicts over the baseline designs%s ==@."
    (if certify then " (certified)" else "");
  List.iter
    (fun (name, net) ->
      let t0 = Unix.gettimeofday () in
      let v =
        Core.Engine.verify ~budget:(fresh_budget ()) ~certify net ~target:"t"
      in
      let dt = Unix.gettimeofday () -. t0 in
      Format.printf "%-10s %8.1fms  %a@." name (1e3 *. dt)
        Core.Engine.pp_verdict v)
    (baseline_designs ());
  if certify then begin
    (* certification cost itself lands in the certify.* spans of
       --stats; the counters summarize the outcome *)
    let snap = Obs.Stats.snapshot () in
    let c name =
      match List.assoc_opt name snap.Obs.Stats.counters with
      | Some n -> n
      | None -> 0
    in
    Format.printf "certification: %d ok, %d failed@." (c "engine.cert_ok")
      (c "engine.cert_fail")
  end

(* ----- Ablations ----- *)

let ablation () =
  Format.printf "@.== Ablation A1: per-target retiming skew accounting ==@.";
  (* a target whose cone cannot be peeled still pays no penalty; a
     reconvergent target pays only the shorter branch *)
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let b = Net.add_input net "b" in
  let p1 = Workload.Gen.pipeline net ~name:"p1" ~stages:6 ~data:a in
  let p2 = Workload.Gen.pipeline net ~name:"p2" ~stages:2 ~data:b in
  Net.add_target net "deep" p1.Workload.Gen.out;
  Net.add_target net "join"
    (Net.add_and net p1.Workload.Gen.out p2.Workload.Gen.out);
  let r = Transform.Retime.run net in
  List.iter
    (fun (t, skew) ->
      let b = Core.Bound.target_named r.Transform.Retime.rebuilt.Transform.Rebuild.net t in
      Format.printf
        "  target %-5s skew %d  raw %-4s  translated %s (original bound %s)@." t
        skew
        (Core.Sat_bound.to_string b.Core.Bound.bound)
        (Core.Sat_bound.to_string
           ((Core.Translate.retiming ~skew).Core.Translate.apply b.Core.Bound.bound))
        (Core.Sat_bound.to_string (Core.Bound.target_named net t).Core.Bound.bound))
    r.Transform.Retime.target_skews;
  Format.printf
    "@.== Ablation A2: table identification across representations ==@.";
  let net = Net.create () in
  let ins = List.init 4 (fun i -> Net.add_input net (Printf.sprintf "i%d" i)) in
  let sel =
    match ins with a :: b :: c :: _ -> (a, b, c) | _ -> assert false
  in
  let chain =
    Workload.Gen.obscured_chain net ~name:"o" ~sel ~data:(List.nth ins 3) ~len:6
  in
  Net.add_target net "t" chain.Workload.Gen.out;
  let before = Core.Classify.netlist_counts net in
  let b_before = Core.Bound.target_named net "t" in
  let reduced, _ = Transform.Com.run ~budget:(fresh_budget ()) net in
  let after = Core.Classify.netlist_counts reduced.Transform.Rebuild.net in
  let b_after = Core.Bound.target_named reduced.Transform.Rebuild.net "t" in
  Format.printf
    "  before COM: %a  bound %s@.  after COM:  %a  bound %s@."
    Core.Classify.pp_counts before
    (Core.Sat_bound.to_string b_before.Core.Bound.bound)
    Core.Classify.pp_counts after
    (Core.Sat_bound.to_string b_after.Core.Bound.bound);
  Format.printf
    "@.== Ablation A4: sequential sweeping (van Eijk) vs COM,RET,COM ==@.";
  (* the RET-gadget is also resolvable by induction-based merging — a
     different point in the Section 3.1 design space (any
     trace-equivalence-preserving reduction transfers bounds) *)
  let net = Net.create () in
  let x = Net.add_input net "x" in
  let y = Net.add_input net "y" in
  let guard = Workload.Gen.ret_guard net ~name:"g" ~x ~y in
  let cnt = Workload.Gen.counter net ~name:"cnt" ~bits:8 ~enable:guard in
  Net.add_target net "t" cnt.Workload.Gen.out;
  let b0 = Core.Bound.target_named net "t" in
  let com, _ = Transform.Com.run ~budget:(fresh_budget ()) net in
  let b_com = Core.Bound.target_named com.Transform.Rebuild.net "t" in
  let ve, ve_stats = Transform.Van_eijk.run net in
  let b_ve = Core.Bound.target_named ve.Transform.Rebuild.net "t" in
  let crc = Core.Pipeline.com_ret_com net in
  let b_crc =
    (List.find (fun t -> String.equal t.Core.Pipeline.target "t")
       crc.Core.Pipeline.targets)
      .Core.Pipeline.bound
  in
  Format.printf
    "  original %s | COM %s | van Eijk %s (%d merges, %d SAT) | COM,RET,COM \
     %s@."
    (Core.Sat_bound.to_string b0.Core.Bound.bound)
    (Core.Sat_bound.to_string b_com.Core.Bound.bound)
    (Core.Sat_bound.to_string b_ve.Core.Bound.bound)
    ve_stats.Transform.Van_eijk.merged ve_stats.Transform.Van_eijk.sat_checks
    (Core.Sat_bound.to_string b_crc);
  Format.printf
    "@.== Ablation A3: completeness in action (bound-driven BMC proof) ==@.";
  let net = Net.create () in
  let a = Net.add_input net "a" in
  let r0 = Net.add_reg net ~init:Net.Init0 "r0" in
  let r1 = Net.add_reg net ~init:Net.Init1 "r1" in
  Net.set_next net r0 a;
  Net.set_next net r1 (Lit.neg a);
  Net.add_target net "t" (Net.add_and net r0 r1);
  let b = (Core.Bound.target_named net "t").Core.Bound.bound in
  (match Bmc.prove ~budget:(fresh_budget ()) net ~target:"t" ~bound:b with
  | `Proved ->
    Format.printf "  bound %d; BMC to depth %d found no hit: PROVED@." b (b - 1)
  | `Cex cex -> Format.printf "  counterexample at depth %d@." cex.Bmc.depth
  | `Unknown -> Format.printf "  budget exhausted before the proof closed@.")

(* ----- Bechamel timing benches (one Test.make per table) ----- *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let prolog = Workload.Iscas.by_name "PROLOG" in
  let s5378 = Workload.Iscas.by_name "S5378" in
  let dasa = Workload.Gp.by_name "D_DASA" in
  let counter6 =
    let net = Net.create () in
    let b = Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:Lit.true_ in
    Net.add_target net "t" b.Workload.Gen.out;
    net
  in
  let tests =
    Test.make_grouped ~name:"diambound"
      [
        Test.make ~name:"table1_prolog_pipelines"
          (Staged.stage (fun () -> ignore (Core.Pipeline.com_ret_com prolog)));
        Test.make ~name:"table1_s5378_pipelines"
          (Staged.stage (fun () -> ignore (Core.Pipeline.com_ret_com s5378)));
        Test.make ~name:"table2_dasa_phase_pipelines"
          (Staged.stage (fun () ->
               let abs, _ = Core.Pipeline.phase_front dasa in
               ignore (Core.Pipeline.com_ret_com abs)));
        Test.make ~name:"baseline_recurrence_counter6"
          (Staged.stage (fun () ->
               ignore
                 (Core.Recurrence.compute ~limit:80 counter6
                    (List.assoc "t" (Net.targets counter6)))));
        Test.make ~name:"structural_bound_prolog"
          (Staged.stage (fun () -> ignore (Core.Bound.all_targets prolog)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "@.== Bechamel timings (monotonic clock per run) ==@.";
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] -> Format.printf "  %-40s %12.0f ns/run@." name ns
      | Some _ | None -> Format.printf "  %-40s (no estimate)@." name)
    results

(* split "--stats" / "--stats-json FILE" / trace, log and budget flags
   out of the experiment list *)
let split_args args =
  let missing flag =
    Format.eprintf "%s needs an argument@." flag;
    exit 2
  in
  let num conv flag v =
    match conv v with
    | Some n -> n
    | None ->
      Format.eprintf "%s: bad argument %S@." flag v;
      exit 2
  in
  let set f = budget_spec := f !budget_spec in
  let rec go stats json exps = function
    | [] -> (stats, json, List.rev exps)
    | "--stats" :: rest -> go true json exps rest
    | "--stats-json" :: file :: rest -> go stats (Some file) exps rest
    | "--stats-json" :: [] -> missing "--stats-json"
    | "--trace" :: file :: rest ->
      Obs.Trace.start file;
      go stats json exps rest
    | "--trace" :: [] -> missing "--trace"
    | "--log-level" :: v :: rest ->
      (match Obs.Log.level_of_string v with
      | Some l -> Obs.Log.set_level l
      | None ->
        Format.eprintf "--log-level: bad argument %S@." v;
        exit 2);
      go stats json exps rest
    | "--log-level" :: [] -> missing "--log-level"
    | "--log" :: file :: rest ->
      Obs.Log.set_file file;
      go stats json exps rest
    | "--log" :: [] -> missing "--log"
    | "--timeout" :: v :: rest ->
      set (fun (_, c, n) -> (Some (num float_of_string_opt "--timeout" v), c, n));
      go stats json exps rest
    | "--timeout" :: [] -> missing "--timeout"
    | "--conflicts" :: v :: rest ->
      set (fun (t, _, n) -> (t, Some (num int_of_string_opt "--conflicts" v), n));
      go stats json exps rest
    | "--conflicts" :: [] -> missing "--conflicts"
    | "--bdd-nodes" :: v :: rest ->
      set (fun (t, c, _) -> (t, c, Some (num int_of_string_opt "--bdd-nodes" v)));
      go stats json exps rest
    | "--bdd-nodes" :: [] -> missing "--bdd-nodes"
    | "--certify" :: rest ->
      certify_flag := true;
      go stats json exps rest
    | "--backend" :: v :: rest ->
      (match Backend.spec_of_string v with
      | Ok spec -> Backend.set_default spec
      | Error msg ->
        Format.eprintf "--backend: %s@." msg;
        exit 2);
      go stats json exps rest
    | "--backend" :: [] -> missing "--backend"
    | "--no-inprocess" :: rest ->
      (* same escape hatch as the tools *)
      Sat.Solver.set_inprocess_default false;
      go stats json exps rest
    | exp :: rest -> go stats json (exp :: exps) rest
  in
  go false None [] args

let () =
  (* DIAMBOUND_LOG before the flags, so an explicit --log-level wins *)
  Obs.Log.setup ();
  let stats, stats_json, want =
    split_args (List.tl (Array.to_list Sys.argv))
  in
  if not (Obs.Trace.active ()) then Obs.Trace.setup ();
  let want =
    if want <> [] then want
    else [ "table1"; "table2"; "baseline"; "verify"; "ablation"; "bechamel" ]
  in
  List.iter
    (fun arg ->
      let run f = Obs.span ("bench." ^ arg) f in
      match arg with
      | "table1" -> run (fun () -> ignore (table1 ()))
      | "table2" -> run (fun () -> ignore (table2 ()))
      | "baseline" -> run baseline
      | "verify" -> run verify_experiment
      | "ablation" -> run ablation
      | "bechamel" -> run bechamel
      | other -> Format.eprintf "unknown experiment %s@." other)
    want;
  Obs.Report.emit ~human:stats ?json_file:stats_json ()
