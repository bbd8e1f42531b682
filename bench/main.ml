(* Benchmark harness: regenerates every table of the paper's
   evaluation section (Tables 1 and 2), the recurrence-diameter
   baseline comparison the paper motivates, the retiming/obscuring
   ablations, and Bechamel timing benches (one per table).

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table1  -- a single experiment
     (table1 | table2 | baseline | verify | portfolio | bmc | backend |
      ablation | bechamel)

   "bmc" (opt-in) unrolls a BMC workload twice — SAT inprocessing on
   vs off — and records per-design conflict counts and
   bmc_bench.<design>.on/off spans plus an aggregate
   bmc_bench.conflict_reduction_pct gauge; scripts/ci.sh gates the
   "on" arm against a committed BENCH_*.json snapshot.

   "backend" (opt-in) runs the engine over the same workloads under
   each solver backend — the reference CDCL solver, the exact BDD
   oracle, and the full (strategy x backend) race — and records
   per-arm backend_bench.<design>.<arm> spans; conclusive verdicts
   must agree across arms (every backend is a sound decision
   procedure).  --backend NAME sets the process default backend for
   every other experiment, same spelling as the tools' --backend.

   "portfolio" (opt-in, not part of the default sweep) times the
   sequential strategy ladder against Engine.verify_portfolio on
   multi-strategy workloads and records per-design speedup gauges
   (portfolio.<design>.speedup_x100) in the stats snapshot; --jobs N
   picks the domain count (default 4).

   --certify makes the "verify" experiment certify every verdict
   (counterexample replay + DRUP re-check), so the certification
   overhead shows up in the --stats certify.* spans next to the
   solver time it is checking.

   Pass --stats-json FILE to also dump the Obs.Stats snapshot (solver
   counters, per-experiment spans) as JSON — BENCH_*.json entries come
   from this layer.  --stats prints the human-readable table.
   --timeout S / --conflicts N / --bdd-nodes N put each budgeted
   computation under a resource budget (see Obs.Budget): exhausted
   work degrades to partial results instead of running away.         *)

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

let run_pipelines net =
  let budget = fresh_budget () in
  [
    Core.Pipeline.original net;
    Core.Pipeline.com ~budget net;
    Core.Pipeline.com_ret_com ~budget net;
  ]

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

(* ----- Baseline (B1): structural vs recurrence vs exact ----- *)

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

(* ----- Portfolio: sequential ladder vs domain-parallel ladder ----- *)

let portfolio_jobs = ref 4 (* --jobs N *)

(* Multi-strategy workloads, each probing a different portfolio
   property.  "rank0-cex" concludes at the first rung, so the gap
   between its two runs is pure scheduler overhead.  "full-ladder"
   stands every rung down under an unlimited budget, so both runs do
   identical solver work and the gap is the cost (or, with more than
   one core, the win) of running it across domains.  "deep-cex" is the
   budget-hedging workload: its only counterexample sits at depth 255
   behind a wide frame, so finding it needs far more than a 1/7th
   slice of the default 4s deadline — the sequential ladder's
   equal-slice policy starves the probe and burns the whole budget
   inconclusively, while the portfolio's whole-budget-per-strategy
   policy lets the probe conclude and cancel the other six rungs.
   That hedging speedup is a property of the budget semantics, not of
   the host's core count, so it reproduces on a single-core machine. *)
type portfolio_workload = {
  pname : string;
  pnet : Net.t;
  pconfig : Core.Engine.config;
  (* timeout applied when the user gave no --timeout; None = run the
     workload under the user's (possibly unlimited) budget *)
  default_timeout_s : float option;
}

let ladder_config =
  {
    Core.Engine.default with
    Core.Engine.probe_depth = 32;
    recurrence_limit = 40;
    induction_max_k = 24;
  }

(* deep-cex must probe past depth 255 to reach its counterexample *)
let deep_cex_config = { ladder_config with Core.Engine.probe_depth = 260 }

let portfolio_designs () =
  let mk ?timeout ?(config = ladder_config) pname build =
    let pnet = Net.create () in
    let lit = build pnet in
    Net.add_target pnet "t" lit;
    { pname; pnet; pconfig = config; default_timeout_s = timeout }
  in
  [
    mk "rank0-cex" (fun net ->
        (Workload.Gen.lfsr net ~name:"l" ~bits:12).Workload.Gen.out);
    mk "full-ladder" (fun net ->
        let l = Workload.Gen.lfsr net ~name:"l" ~bits:10 in
        let c = Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:Lit.true_ in
        Net.add_and net l.Workload.Gen.out c.Workload.Gen.out);
    mk "deep-cex" ~timeout:4.0 ~config:deep_cex_config (fun net ->
        (* 40 parallel queues AND an 8-bit counter: the all-ones hit
           at depth 255 takes ~1.3s of BMC, well past the ~0.57s
           equal-slice share but well inside the whole deadline *)
        let c = Workload.Gen.counter net ~name:"c" ~bits:8 ~enable:Lit.true_ in
        let acc = ref c.Workload.Gen.out in
        for i = 1 to 40 do
          let push = Net.add_input net (Printf.sprintf "push%d" i) in
          let d = Net.add_input net (Printf.sprintf "d%d" i) in
          let q =
            Workload.Gen.queue net
              ~name:(Printf.sprintf "q%d" i)
              ~depth:8 ~width:1 ~push ~data:[ d ]
          in
          acc := Net.add_and net !acc q.Workload.Gen.out
        done;
        !acc);
  ]

(* The contract from Engine.verify_portfolio's docs: either the exact
   sequential verdict, or a conclusive answer where the sliced
   sequential ladder ran out of budget — never a different conclusive
   answer, and never less conclusive. *)
let consistent seq par =
  let conclusive = function
    | Core.Engine.Proved _ | Core.Engine.Violated _ -> true
    | Core.Engine.Inconclusive _ -> false
  in
  match (seq, par) with
  | Core.Engine.Proved p, Core.Engine.Proved q ->
    String.equal p.strategy q.strategy && p.depth = q.depth
  | Core.Engine.Violated p, Core.Engine.Violated q ->
    String.equal p.strategy q.strategy && p.cex.Bmc.depth = q.cex.Bmc.depth
  | Core.Engine.Inconclusive p, Core.Engine.Inconclusive q ->
    (* identical ladders, ignoring wall-clock noise in elapsed_s *)
    List.equal
      (fun (x : Core.Engine.attempt) (y : Core.Engine.attempt) ->
        String.equal x.strategy y.strategy && String.equal x.reason y.reason)
      p.attempts q.attempts
  | Core.Engine.Inconclusive _, v -> conclusive v
  | _ -> false

let brief_verdict = function
  | Core.Engine.Inconclusive { attempts } ->
    Printf.sprintf "INCONCLUSIVE (%d strategies stood down)"
      (List.length attempts)
  | v -> Format.asprintf "%a" Core.Engine.pp_verdict v

let portfolio () =
  let jobs = !portfolio_jobs in
  (* Pool.create clamps to the host's core count; report what actually
     runs so a single-core box doesn't claim a 4-domain race *)
  let effective = max 1 (min jobs (Domain.recommended_domain_count ())) in
  Format.printf
    "@.== Portfolio: sequential ladder vs portfolio (--jobs %d, %d worker \
     domain%s) ==@."
    jobs effective
    (if effective = 1 then "" else "s");
  let best = ref 0. in
  List.iter
    (fun w ->
      let budget () =
        let timeout_s, conflicts, bdd_nodes = !budget_spec in
        let timeout_s =
          match timeout_s with Some _ -> timeout_s | None -> w.default_timeout_s
        in
        Obs.Budget.create ?timeout_s ?conflicts ?bdd_nodes ()
      in
      let t0 = Obs.Stats.now () in
      let seq =
        Core.Engine.verify ~config:w.pconfig ~budget:(budget ()) w.pnet
          ~target:"t"
      in
      let t1 = Obs.Stats.now () in
      let par =
        Core.Engine.verify_portfolio ~config:w.pconfig ~budget:(budget ())
          ~jobs w.pnet ~target:"t"
      in
      let t2 = Obs.Stats.now () in
      let seq_ms = 1e3 *. (t1 -. t0) in
      let par_ms = 1e3 *. (t2 -. t1) in
      let speedup = seq_ms /. Float.max par_ms 1e-3 in
      if speedup > !best then best := speedup;
      let gauge suffix v =
        Obs.Stats.set_gauge
          (Printf.sprintf "portfolio.%s.%s" w.pname suffix)
          (int_of_float v)
      in
      gauge "seq_ms" seq_ms;
      gauge "par_ms" par_ms;
      gauge "speedup_x100" (100. *. speedup);
      Format.printf
        "%-12s seq %8.1fms  %s@.%-12s par %8.1fms  %s@.%-12s speedup %.2fx  \
         consistent=%b@."
        w.pname seq_ms (brief_verdict seq) "" par_ms (brief_verdict par) ""
        speedup (consistent seq par))
    (portfolio_designs ());
  (* the acceptance gate: on at least one multi-strategy workload the
     portfolio must conclude ahead of the sliced sequential ladder *)
  Obs.Stats.max_gauge "portfolio.best_speedup_x100"
    (int_of_float (100. *. !best));
  Format.printf "best speedup: %.2fx@." !best

(* ----- BMC workload: SAT inprocessing on vs off ----- *)

(* Opt-in experiment (like "portfolio"): unrolls each design twice —
   once with Sat.Simplify inprocessing enabled, once with
   --no-inprocess semantics — and reports the conflict and wall-clock
   reduction.  The two arms must agree on the verdict (inprocessing is
   an equisatisfiable transformation); "consistent" prints the check.
   Spans bmc_bench.<design>.on/off land in the stats snapshot, so a
   committed BENCH_*.json plus --baseline --fail-on-regress turns the
   "on" arm into a regression gate for the simplifier itself. *)

let bmc_designs () =
  let mk name depth build =
    let net = Net.create () in
    let lit = build net in
    Net.add_target net "t" lit;
    (name, net, depth)
  in
  [
    (* free enable: every unsat depth is a counting refutation ("the
       counter cannot reach all-ones in d < 63 steps"), not BCP *)
    mk "gated63" 63 (fun net ->
        let en = Net.add_input net "en" in
        (Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:en).Workload.Gen.out);
    (* all-unsat variant: no hit exists to depth 80, so the whole run
       is refutation work — the conflict-heavy arm of the workload *)
    mk "gated8" 80 (fun net ->
        let en = Net.add_input net "en" in
        (Workload.Gen.counter net ~name:"c" ~bits:8 ~enable:en).Workload.Gen.out);
    (* duplicated-function guard (the COM workload shape): variable
       elimination resolves the two copies against each other, so the
       per-frame guard refutations collapse to propagation *)
    mk "comguard" 40 (fun net ->
        let rng = Workload.Rng.create 7 in
        let inputs =
          List.init 8 (fun i -> Net.add_input net (Printf.sprintf "i%d" i))
        in
        let g = Workload.Gen.com_guard net rng ~inputs in
        (Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:g).Workload.Gen.out);
  ]

let same_outcome a b =
  match (a, b) with
  | Bmc.Hit x, Bmc.Hit y -> x.Bmc.depth = y.Bmc.depth
  | Bmc.No_hit x, Bmc.No_hit y -> x = y
  | Bmc.Unknown _, Bmc.Unknown _ -> true
  | _ -> false

let brief_outcome = function
  | Bmc.Hit cex -> Printf.sprintf "HIT@%d" cex.Bmc.depth
  | Bmc.No_hit d -> Printf.sprintf "no-hit..%d" d
  | Bmc.Unknown { after; _ } -> Printf.sprintf "unknown@%d" after

let bmc_bench () =
  Format.printf "@.== BMC workload: SAT inprocessing on vs off ==@.";
  Format.printf "%-10s %10s %13s %14s %9s %9s@." "design" "verdict"
    "conflicts(on)" "conflicts(off)" "ms(on)" "ms(off)";
  let counter name =
    match List.assoc_opt name (Obs.Stats.snapshot ()).Obs.Stats.counters with
    | Some n -> n
    | None -> 0
  in
  let saved = Sat.Solver.inprocess_default () in
  let on_conflicts = ref 0 and off_conflicts = ref 0 in
  let on_ms = ref 0. and off_ms = ref 0. in
  Fun.protect ~finally:(fun () -> Sat.Solver.set_inprocess_default saved)
  @@ fun () ->
  List.iter
    (fun (name, net, depth) ->
      let run tag enabled =
        Sat.Solver.set_inprocess_default enabled;
        let c0 = counter "sat.conflicts" in
        let t0 = Obs.Stats.now () in
        let outcome =
          Obs.span
            (Printf.sprintf "bmc_bench.%s.%s" name tag)
            (fun () -> Bmc.check ~budget:(fresh_budget ()) net ~target:"t" ~depth)
        in
        let ms = 1e3 *. (Obs.Stats.now () -. t0) in
        (outcome, counter "sat.conflicts" - c0, ms)
      in
      let on, c_on, t_on = run "on" true in
      let off, c_off, t_off = run "off" false in
      on_conflicts := !on_conflicts + c_on;
      off_conflicts := !off_conflicts + c_off;
      on_ms := !on_ms +. t_on;
      off_ms := !off_ms +. t_off;
      let gauge suffix v =
        Obs.Stats.set_gauge (Printf.sprintf "bmc_bench.%s.%s" name suffix) v
      in
      gauge "conflicts_on" c_on;
      gauge "conflicts_off" c_off;
      Format.printf "%-10s %10s %13d %14d %9.1f %9.1f  consistent=%b@." name
        (brief_outcome on) c_on c_off t_on t_off (same_outcome on off))
    (bmc_designs ());
  let reduction_pct total_on total_off =
    100. *. (total_off -. total_on) /. Float.max total_off 1.
  in
  let c_red =
    reduction_pct (float_of_int !on_conflicts) (float_of_int !off_conflicts)
  in
  let t_red = reduction_pct !on_ms !off_ms in
  Obs.Stats.set_gauge "bmc_bench.conflict_reduction_pct" (int_of_float c_red);
  Obs.Stats.set_gauge "bmc_bench.time_reduction_pct" (int_of_float t_red);
  Format.printf
    "total: conflicts %d -> %d (%.1f%% fewer), time %.1fms -> %.1fms (%.1f%% \
     less)@."
    !off_conflicts !on_conflicts c_red !off_ms !on_ms t_red

(* ----- Backend matrix: one engine run per solver backend ----- *)

(* Opt-in experiment ("backend"): verifies a small-cone workload (BDD
   oracle territory) and a refutation-heavy workload (CDCL territory)
   under each backend spec and records per-arm wall clock as
   backend_bench.<design>.<arm> spans plus <arm>_ms gauges.  The race
   arm exercises the full (strategy x backend) grid, so a committed
   BENCH_*.json plus --baseline --fail-on-regress turns this into a
   regression gate for the racing overhead itself.  Conclusive
   verdicts must never disagree across arms — each backend is a sound
   decision procedure — and "consistent" prints that check against
   the reference arm. *)

let backend_designs () =
  let mk name build =
    let net = Net.create () in
    let lit = build net in
    Net.add_target net "t" lit;
    (name, net)
  in
  [
    (* free-running 4-bit counter: a cone small enough that the BDD
       oracle concludes exactly, far below its node allowance *)
    mk "small-cone" (fun net ->
        (Workload.Gen.counter net ~name:"c" ~bits:4 ~enable:Lit.true_)
          .Workload.Gen.out);
    (* gated 6-bit counter: per-depth refutations where the CDCL
       solver shines; big enough that the BDD arm leans on its
       node-limited stand-down rather than exact answers *)
    mk "gated-deep" (fun net ->
        let en = Net.add_input net "en" in
        (Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:en)
          .Workload.Gen.out);
  ]

let backend_arms () =
  [
    ("reference", Backend.Single (Backend.reference ()));
    ("bdd", Backend.Single (Backend.bdd_oracle ()));
    ("race", Backend.Race (Backend.race_pool ()));
  ]

(* conclusive answers must agree across backends; an arm standing
   down where the reference concluded is fine (the BDD oracle on a
   big cone), a conflicting conclusive answer never is *)
let backend_consistent ref_v v =
  match (ref_v, v) with
  | Core.Engine.Proved _, Core.Engine.Violated _
  | Core.Engine.Violated _, Core.Engine.Proved _ -> false
  | _ -> true

let backend_bench () =
  Format.printf "@.== Backend matrix: engine verdicts per solver backend ==@.";
  List.iter
    (fun (name, net) ->
      let run (arm, spec) =
        let config =
          { ladder_config with Core.Engine.backend = Some spec }
        in
        let t0 = Obs.Stats.now () in
        let v =
          Obs.span
            (Printf.sprintf "backend_bench.%s.%s" name arm)
            (fun () ->
              Core.Engine.verify ~config ~budget:(fresh_budget ()) net
                ~target:"t")
        in
        let ms = 1e3 *. (Obs.Stats.now () -. t0) in
        Obs.Stats.set_gauge
          (Printf.sprintf "backend_bench.%s.%s_ms" name arm)
          (int_of_float ms);
        (arm, v, ms)
      in
      let results = List.map run (backend_arms ()) in
      let ref_v =
        match results with (_, v, _) :: _ -> v | [] -> assert false
      in
      List.iter
        (fun (arm, v, ms) ->
          Format.printf "%-12s %-10s %8.1fms  %s  consistent=%b@." name arm
            ms (brief_verdict v)
            (backend_consistent ref_v v))
        results)
    (backend_designs ())

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

(* ----- baseline mode: diff the run against a stored snapshot ----- *)

let baseline_file = ref None (* --baseline FILE *)
let against_file = ref None (* --against FILE: pure differ, no run *)
let fail_on_regress = ref None (* --fail-on-regress PCT *)
let regress_floor = ref None (* --regress-floor MS: noise floor for the gate *)

let stats_schema_version = 2

let bench_meta experiments =
  Obs.Report.
    [
      ("schema", Int stats_schema_version);
      ("tool", String "bench");
      ("experiments", List (List.map (fun e -> String e) experiments));
      ("budget", String (Format.asprintf "%a" Obs.Budget.pp (fresh_budget ())));
      ("certify", Bool !certify_flag);
    ]

let load_entry path =
  match Obs.Baseline.load path with
  | entry -> entry
  | exception Failure msg ->
    Format.eprintf "baseline: %s: %s@." path msg;
    exit 2
  | exception Sys_error msg ->
    Format.eprintf "baseline: %s@." msg;
    exit 2

(* Diff [cur] (this run's snapshot, or --against FILE) against
   --baseline FILE: print the per-counter/per-span delta table and,
   under --fail-on-regress, exit non-zero when any span total grew
   past the threshold — the enforcement teeth behind BENCH_*.json. *)
let run_baseline ~base_path ~cur =
  let base = load_entry base_path in
  (match Obs.Baseline.compat ~base ~cur with
  | Ok () -> ()
  | Error msg ->
    Format.eprintf "baseline: refusing to compare: %s@." msg;
    exit 2);
  let d = Obs.Baseline.diff ~base ~cur in
  Format.printf "@.== Baseline diff vs %s ==@.%a" base_path Obs.Baseline.pp d;
  match !fail_on_regress with
  | None -> ()
  | Some threshold_pct -> (
    let min_total_s = Option.map (fun ms -> ms /. 1e3) !regress_floor in
    match Obs.Baseline.regressions ?min_total_s ~threshold_pct d with
    | [] ->
      Format.printf "no span regressed more than %.1f%%@." threshold_pct
    | regs ->
      List.iter
        (fun (name, growth) ->
          Format.eprintf "REGRESSION %-32s +%.1f%% (threshold %.1f%%)@." name
            growth threshold_pct)
        regs;
      exit 1)

(* split "--stats" / "--stats-json FILE" / trace, baseline and budget
   flags out of the experiment list *)
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
    | "--baseline" :: file :: rest ->
      baseline_file := Some file;
      go stats json exps rest
    | "--baseline" :: [] -> missing "--baseline"
    | "--against" :: file :: rest ->
      against_file := Some file;
      go stats json exps rest
    | "--against" :: [] -> missing "--against"
    | "--fail-on-regress" :: v :: rest ->
      fail_on_regress :=
        Some (num float_of_string_opt "--fail-on-regress" v);
      go stats json exps rest
    | "--fail-on-regress" :: [] -> missing "--fail-on-regress"
    | "--regress-floor" :: v :: rest ->
      (* spans whose current total is below this are too small to
         gate — relative growth on a few milliseconds is pure noise *)
      regress_floor := Some (num float_of_string_opt "--regress-floor" v);
      go stats json exps rest
    | "--regress-floor" :: [] -> missing "--regress-floor"
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
    | "--jobs" :: v :: rest ->
      portfolio_jobs := max 1 (num int_of_string_opt "--jobs" v);
      go stats json exps rest
    | "--jobs" :: [] -> missing "--jobs"
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
      (* same escape hatch as the tools; the "bmc" experiment still
         forces its own on/off arms, restoring this default after *)
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
  match (!against_file, !baseline_file) with
  | Some _, None ->
    Format.eprintf "--against only makes sense with --baseline@.";
    exit 2
  | Some cur_path, Some base_path ->
    (* pure differ mode: no experiments run, both sides from disk —
       deterministic, so CI can self-compare a fresh snapshot *)
    run_baseline ~base_path ~cur:(load_entry cur_path)
  | None, _ ->
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
        | "portfolio" -> run portfolio
        | "bmc" -> run bmc_bench
        | "backend" -> run backend_bench
        | "ablation" -> run ablation
        | "bechamel" -> run bechamel
        | other -> Format.eprintf "unknown experiment %s@." other)
      want;
    let meta = bench_meta want in
    Obs.Report.emit ~human:stats ?json_file:stats_json ~meta ();
    match !baseline_file with
    | None -> ()
    | Some base_path ->
      run_baseline ~base_path
        ~cur:{ Obs.Baseline.meta; snap = Obs.Stats.snapshot () }
