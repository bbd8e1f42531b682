(* Work-count snapshot: every arm below runs a fixed design under a
   fixed configuration and prints its verdict and the Obs.Stats
   counters it moved (SAT solves, conflicts, propagations and
   decisions, encoded clauses and variables, BMC depths, engine
   tallies, and the Table 1/2 bounding pass: targets below the cutoff,
   register classes, reductions).  The work is deterministic, so
   [dune runtest] diffs this output against the committed
   counts.expected and any change to the solver's, the BMC loop's,
   the engine's or the bounding pass's work fails that test.
   After an intended change, [dune promote] updates the snapshot and
   the change says why in CHANGES.md.

     dune exec test/counts/counts.exe -- examples

   No timings and no scheduler counts are printed, and the backend,
   inprocessing and BDD node allowance are set here rather than read
   from DIAMBOUND_* variables, so nothing but the code moves the
   output.  The exit code is 1 when inprocessing changes a BMC outcome
   or two backends conclude differently on one design — every arm is
   a sound decision procedure. *)

module Net = Netlist.Net
module Lit = Netlist.Lit
module Engine = Core.Engine

let bdd_nodes = 200_000
let inconsistent = ref false

let fail fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "counts: %s@." msg;
      inconsistent := true)
    fmt

(* Zero the registry, run [f], print [label] with the verdict text [f]
   returns, then every non-zero counter that [keep] selects — by
   default all but the scheduler's (its dispatch counts follow the
   machine, not the work). *)
let arm ?(keep = fun name -> not (String.starts_with ~prefix:"sched." name))
    label f =
  Obs.Stats.reset ();
  let r, verdict = f () in
  Format.printf "%s: %s@." label verdict;
  List.iter
    (fun (name, n) -> if n <> 0 && keep name then Format.printf "  %s %d@." name n)
    (Obs.Stats.snapshot ()).Obs.Stats.counters;
  r

let design build =
  let net = Net.create () in
  Net.add_target net "t" (build net);
  net

(* ----- BMC with SAT inprocessing on and off ----- *)

let bmc_designs =
  [
    (* free enable: every unsat depth is a counting refutation ("the
       counter cannot reach all-ones in d < 63 steps"), not BCP *)
    ( "gated63",
      63,
      fun net ->
        let en = Net.add_input net "en" in
        (Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:en).Workload.Gen.out );
    (* all-unsat variant: no hit exists to depth 80, so the whole run
       is refutation work *)
    ( "gated8",
      80,
      fun net ->
        let en = Net.add_input net "en" in
        (Workload.Gen.counter net ~name:"c" ~bits:8 ~enable:en).Workload.Gen.out );
    (* duplicated-function guard (the COM workload shape): variable
       elimination resolves the two copies against each other, so the
       per-frame guard refutations collapse to propagation *)
    ( "comguard",
      40,
      fun net ->
        let rng = Workload.Rng.create 7 in
        let inputs =
          List.init 8 (fun i -> Net.add_input net (Printf.sprintf "i%d" i))
        in
        let g = Workload.Gen.com_guard net rng ~inputs in
        (Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:g).Workload.Gen.out );
  ]

let brief_outcome = function
  | Bmc.Hit cex -> Printf.sprintf "HIT@%d" cex.Bmc.depth
  | Bmc.No_hit d -> Printf.sprintf "no-hit..%d" d
  | Bmc.Unknown { after; _ } -> Printf.sprintf "unknown@%d" after

let same_outcome a b =
  match (a, b) with
  | Bmc.Hit x, Bmc.Hit y -> x.Bmc.depth = y.Bmc.depth
  | Bmc.No_hit x, Bmc.No_hit y -> x = y
  | Bmc.Unknown _, Bmc.Unknown _ -> true
  | _ -> false

let bmc_arms () =
  List.iter
    (fun (name, depth, build) ->
      let net = design build in
      let run tag inprocess =
        Sat.Solver.set_inprocess_default inprocess;
        arm
          (Printf.sprintf "bmc %s inprocess=%s" name tag)
          (fun () ->
            let o =
              Bmc.check ~budget:(Obs.Budget.create ()) net ~target:"t" ~depth
            in
            (o, brief_outcome o))
      in
      let on = run "on" true in
      let off = run "off" false in
      Sat.Solver.set_inprocess_default true;
      if not (same_outcome on off) then
        fail "%s: inprocessing changed the outcome (%s on, %s off)" name
          (brief_outcome on) (brief_outcome off))
    bmc_designs

(* ----- the strategy ladder per solver backend ----- *)

let ladder_config =
  {
    Engine.default with
    Engine.probe_depth = 32;
    recurrence_limit = 40;
    induction_max_k = 24;
  }

(* a stood-down ladder prints every attempt's reason, never its time *)
let verdict_text = function
  | Engine.Inconclusive { attempts } ->
    String.concat ""
      ("INCONCLUSIVE"
      :: List.map
           (fun (a : Engine.attempt) ->
             Printf.sprintf "\n    %s: %s%s" a.Engine.strategy a.Engine.reason
               (match a.Engine.bound with
               | Some b -> " [bound " ^ Core.Sat_bound.to_string b ^ "]"
               | None -> ""))
           attempts)
  | v -> Format.asprintf "%a" Engine.pp_verdict v

let conflicting a b =
  match (a, b) with
  | Engine.Proved _, Engine.Violated _ | Engine.Violated _, Engine.Proved _ ->
    true
  | _ -> false

(* A cone small enough that the BDD oracle concludes exactly, under
   every backend; and a gated counter whose per-depth refutations are
   CDCL territory, under the reference backend only (its BDD and race
   arms run for seconds and are covered by test_backend and the
   benchmark's race workload). *)
let ladder_arms () =
  let reference = Backend.reference () in
  let bdd = Backend.bdd_oracle ~max_nodes:bdd_nodes () in
  let arms =
    [
      ( "small-cone",
        (fun net ->
          (Workload.Gen.counter net ~name:"c" ~bits:4 ~enable:Lit.true_)
            .Workload.Gen.out),
        [
          ("reference", Backend.Single reference);
          ("bdd", Backend.Single bdd);
          ("race", Backend.Race [ reference; bdd ]);
        ] );
      ( "gated-deep",
        (fun net ->
          let en = Net.add_input net "en" in
          (Workload.Gen.counter net ~name:"c" ~bits:6 ~enable:en).Workload.Gen.out),
        [ ("reference", Backend.Single reference) ] );
    ]
  in
  List.iter
    (fun (name, build, specs) ->
      let net = design build in
      let verdicts =
        List.map
          (fun (backend, spec) ->
            let config = { ladder_config with Engine.backend = Some spec } in
            ( backend,
              arm
                (Printf.sprintf "verify %s backend=%s" name backend)
                (fun () ->
                  let v =
                    Engine.verify ~config ~budget:(Obs.Budget.create ()) net
                      ~target:"t"
                  in
                  (v, verdict_text v)) ))
          specs
      in
      List.iter
        (fun (b, v) ->
          List.iter
            (fun (b', v') ->
              if b < b' && conflicting v v' then
                fail "%s: backends %s and %s conclude differently" name b b')
            verdicts)
        verdicts)
    arms

(* ----- every target of one multi-target design ----- *)

(* the latch-based v_cach as diam-gen writes it: 37 targets of one
   netlist, so the work the targets share (the phase front, COM,
   COM,RET,COM) shows in the pipeline.* counts; the per-target bound
   gauges are left out *)
let verify_all_arm () =
  let net =
    Textio.Bench_io.parse
      (Textio.Bench_io.to_string (Workload.Gp.by_name "V_CACH"))
  in
  let per_target name =
    match String.split_on_char '.' name with
    | [ "bound"; _; _; _ ] -> false
    | _ -> not (String.starts_with ~prefix:"sched." name)
  in
  arm ~keep:per_target "verify-all v_cach certified" (fun () ->
      let verdicts =
        Engine.verify_all ~budget:(Obs.Budget.create ()) ~certify:true net
      in
      ( (),
        String.concat ""
          (Printf.sprintf "%d targets" (List.length verdicts)
          :: List.map
               (fun (t, v) ->
                 Printf.sprintf "\n    %s %s" t (Engine.verdict_brief v))
               verdicts) ))

(* ----- the committed example corpus ----- *)

let corpus_arm dir =
  let paths = Campaign.Corpus.walk dir in
  arm ("corpus " ^ dir) (fun () ->
      let summary =
        Campaign.Corpus.run ~jobs:1 ~mk_budget:(fun () -> Obs.Budget.create ())
          paths
      in
      ( (),
        String.concat ""
          (Printf.sprintf "%d problems" (List.length paths)
          :: List.map
               (fun (i : Campaign.Corpus.item) ->
                 Format.asprintf "\n    %s targets=%d %a" i.Campaign.Corpus.path
                   i.Campaign.Corpus.targets Campaign.Corpus.pp_outcome
                   i.Campaign.Corpus.outcome)
               summary.Campaign.Corpus.items) ))

(* ----- the bounding pass of Tables 1 and 2 ----- *)

let cutoff = 50

(* bounding and reduction counters, and COM's SAT checks and
   simulation refutations, only; the per-target bound gauges
   ("bound.<pipeline>.<target>.raw") keep just the last design's value
   of each name, and the sums printed with the verdict cover the bounds
   of every design *)
let table_counter name =
  match String.split_on_char '.' name with
  | [ "bound"; _ ] | [ "com"; _ ] | "pipeline" :: _ -> true
  | _ -> false

(* Each pipeline of the paper's table over a whole design family under
   a fresh 2000-conflict allowance per run: the verdict is the number
   of targets bounded below [cutoff] and the register-class sums
   (CC;AC;MC+QC;GC), and the counters are the bounding and reduction
   work. *)
let table_arms family nets =
  List.iter
    (fun (name, run) ->
      arm ~keep:table_counter
        (Printf.sprintf "%s %s" family name)
        (fun () ->
          let small = ref 0 and total = ref 0 in
          let sum = ref { Core.Classify.cc = 0; ac = 0; table = 0; gc = 0 } in
          List.iter
            (fun net ->
              let r = run (Obs.Budget.create ~conflicts:2000 ()) net in
              let s = Core.Pipeline.summarize ~cutoff r in
              let c = r.Core.Pipeline.reg_counts and t = !sum in
              small := !small + s.Core.Pipeline.proved_small;
              total := !total + s.Core.Pipeline.total;
              sum :=
                {
                  cc = t.cc + c.cc;
                  ac = t.ac + c.ac;
                  table = t.table + c.table;
                  gc = t.gc + c.gc;
                })
            nets;
          ( (),
            Format.asprintf "|T'| %d/%d R %a" !small !total
              Core.Classify.pp_counts !sum )))
    [
      ("Original", fun _ net -> Core.Pipeline.original net);
      ("COM", fun budget net -> Core.Pipeline.com ~budget net);
      ("COM,RET,COM", fun budget net -> Core.Pipeline.com_ret_com ~budget net);
    ]

let tables_arms () =
  table_arms "table1" (List.map Workload.Iscas.build Workload.Iscas.profiles);
  let gp =
    arm ~keep:table_counter "table2 phase" (fun () ->
        let nets =
          List.map
            (fun p -> fst (Core.Pipeline.phase_front (Workload.Gp.build p)))
            Workload.Gp.profiles
        in
        (nets, Printf.sprintf "%d designs" (List.length nets)))
  in
  table_arms "table2" gp

let () =
  let dir =
    match Sys.argv with
    | [| _; dir |] -> dir
    | _ ->
      Format.eprintf "usage: counts EXAMPLES-DIR@.";
      exit 2
  in
  Sat.Solver.set_inprocess_default true;
  Backend.set_default (Backend.Single (Backend.reference ()));
  bmc_arms ();
  ladder_arms ();
  verify_all_arm ();
  corpus_arm dir;
  tables_arms ();
  if !inconsistent then exit 1
