(* diam: per-target structural diameter bounds for a .bench netlist,
   through a chosen transformation pipeline.

     diam circuit.bench
     diam --design S5378 --pipeline com-ret-com
     diam circuit.bench --recurrence --cutoff 30
     diam circuit.bench --pipeline com --timeout 30                    *)

module Net = Netlist.Net

let load file design =
  match (file, design) with
  | Some path, None -> Cli.load_bench path
  | None, Some name -> (
    match Workload.Iscas.by_name name with
    | net -> net
    | exception Not_found -> (
      match Workload.Gp.by_name name with
      | latched -> fst (Core.Pipeline.phase_front latched)
      | exception Not_found ->
        Cli.die Cli.usage_error "unknown built-in design %s" name))
  | Some _, Some _ ->
    Cli.die Cli.usage_error "give either a file or --design, not both"
  | None, None ->
    Cli.die Cli.usage_error "no input: give a .bench file or --design NAME"

let run file design pipeline cutoff recurrence budget jobs stats () =
  let net = load file design in
  Format.printf "netlist: %a@." Net.pp_stats net;
  let report =
    match pipeline with
    | "original" -> Core.Pipeline.original net
    | "com" -> Core.Pipeline.com ~budget net
    | "com-ret-com" -> Core.Pipeline.com_ret_com ~budget net
    | other -> Cli.die Cli.usage_error "unknown pipeline %s" other
  in
  Format.printf "pipeline %s: register classes (CC;AC;MC+QC;GC) %a@."
    report.Core.Pipeline.pipeline Core.Classify.pp_counts
    report.Core.Pipeline.reg_counts;
  (* the per-target recurrence baselines are independent SAT problems:
     with --jobs they compute across worker domains, then print in
     target order so the output never depends on completion order *)
  let recurrences =
    if not recurrence then List.map (fun _ -> None) report.Core.Pipeline.targets
    else begin
      let compute t =
        match List.assoc_opt t.Core.Pipeline.target (Net.targets net) with
        | Some lit -> Some (Core.Recurrence.compute ~limit:64 ~budget net lit)
        | None -> None
      in
      Sched.Pool.map_jobs ~jobs compute report.Core.Pipeline.targets
    end
  in
  List.iter2
    (fun t rec_result ->
      Format.printf "  %-24s bound %-8s (raw %s via %a)" t.Core.Pipeline.target
        (Core.Sat_bound.to_string t.Core.Pipeline.bound)
        (Core.Sat_bound.to_string t.Core.Pipeline.raw_bound)
        Core.Translate.pp t.Core.Pipeline.translator;
      (match rec_result with
      | Some r ->
        Format.printf "  recurrence %s (%d SAT calls%s)"
          (Core.Sat_bound.to_string r.Core.Recurrence.bound)
          r.Core.Recurrence.sat_calls
          (if r.Core.Recurrence.exhausted then ", budget exhausted" else "")
      | None -> ());
      Format.printf "@.")
    report.Core.Pipeline.targets recurrences;
  let s = Core.Pipeline.summarize ~cutoff report in
  Format.printf "targets below cutoff %d: %d/%d (avg %.1f)@." cutoff
    s.Core.Pipeline.proved_small s.Core.Pipeline.total s.Core.Pipeline.average;
  Cli.emit_stats stats;
  Cli.ok

open Cmdliner

let file =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:".bench netlist")

let design =
  Arg.(
    value
    & opt (some string) None
    & info [ "design" ] ~docv:"NAME"
        ~doc:"Built-in benchmark design (Table 1/2 name, e.g. S5378 or L_LRU)")

let pipeline =
  Arg.(
    value & opt string "original"
    & info [ "pipeline" ] ~docv:"P"
        ~doc:"Transformation pipeline: original, com, or com-ret-com")

let cutoff =
  Arg.(
    value & opt int 50
    & info [ "cutoff" ] ~docv:"N" ~doc:"BMC-dischargeable bound cutoff")

let recurrence =
  Arg.(
    value & flag
    & info [ "recurrence" ]
        ~doc:"Also compute the recurrence-diameter baseline per target")

(* ----- shared serve/batch terms ----- *)

let queue_limit =
  let env =
    Cmdliner.Cmd.Env.info "DIAMBOUND_QUEUE_LIMIT"
      ~doc:"Default admission queue bound when $(b,--queue-limit) is absent"
  in
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "queue-limit" ] ~env ~docv:"N"
        ~doc:"Bound the scheduler's admission queue at $(docv) waiting \
              jobs.  $(b,diam serve) then sheds load (overloaded \
              responses) instead of blocking its intake; $(b,diam batch) \
              bounds its job backlog, blocking submission until workers \
              catch up")

let cache_mb =
  let env =
    Cmdliner.Cmd.Env.info "DIAMBOUND_CACHE_MB"
      ~doc:"Default verdict-cache budget when $(b,--cache-mb) is absent"
  in
  Cmdliner.Arg.(
    value & opt int 64
    & info [ "cache-mb" ] ~docv:"MB" ~env
        ~doc:"Verdict cache budget in megabytes: certified conclusive \
              verdicts keyed by canonical cone fingerprint and \
              configuration, LRU-evicted beyond the budget")

(* ----- batch: multi-problem server mode ----- *)

(* Every (netlist, target) pair across the given files becomes one
   Serve.Exec request — the SAME request path diam serve's workers
   run, so batch inherits the per-request exception barrier, budget
   slicing and verdict cache, and the two front-ends cannot drift.
   Verdict lines print in input order; each problem gets a fresh
   budget sliced from the --timeout/--conflicts/--bdd-nodes spec. *)
let run_batch files cutoff certify budget_spec jobs queue_limit cache_mb stats
    () =
  let problems =
    List.concat_map
      (fun file ->
        let net = Cli.load_bench file in
        List.map (fun (t, _) -> (file, t)) (Net.targets net))
      files
  in
  if problems = [] then Cli.die Cli.usage_error "no targets in any input";
  let cache =
    Core.Bcache.create ~prefix:"serve.cache"
      ~max_bytes:(max 1 cache_mb * 1024 * 1024)
      ()
  in
  let solve (file, t) =
    let r =
      {
        Serve.Request.id = None;
        op = Serve.Request.Verify;
        source = Some (Serve.Request.File file);
        target = Some t;
        timeout_ms = None;
        certify;
        cutoff = Some cutoff;
        chaos = None;
      }
    in
    Serve.Exec.run ~cache ~chaos_seed:None
      ~budget:(Cli.budget_of_spec budget_spec) r
  in
  let outcomes =
    Sched.Pool.map_jobs ?capacity:queue_limit ~jobs solve problems
  in
  let violated = ref 0 in
  let inconclusive = ref 0 in
  let errors = ref 0 in
  List.iter2
    (fun (file, t) outcome ->
      match outcome with
      | Serve.Exec.Verdict { verdict = v; _ } -> (
        Format.printf "%s:%-24s %a@." file t Core.Engine.pp_verdict v;
        match v with
        | Core.Engine.Violated _ -> incr violated
        | Core.Engine.Inconclusive _ -> incr inconclusive
        | Core.Engine.Proved _ -> ())
      | Serve.Exec.Failed { code; detail } ->
        Format.printf "%s:%-24s error %s: %s@." file t code detail;
        incr errors)
    problems outcomes;
  Cli.emit_stats stats;
  if !violated > 0 then Cli.violated
  else if !errors > 0 then Cli.internal_error
  else if !inconclusive > 0 then Cli.inconclusive
  else Cli.ok

let batch_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE" ~doc:".bench netlists (every target of each)")
  in
  let cutoff =
    Arg.(
      value & opt int 50
      & info [ "cutoff" ] ~docv:"N"
          ~doc:"Largest diameter bound considered BMC-dischargeable")
  in
  let doc =
    "verify many (netlist, target) problems across a shared worker pool, \
     through the same per-request barrier, budget slicing and verdict cache \
     as diam serve; verdict lines are in input order and identical to a \
     sequential run"
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run_batch $ files $ cutoff $ Cli.certify $ Cli.budget_spec
      $ Cli.jobs $ queue_limit $ cache_mb $ Cli.stats $ Cli.setup)

(* ----- serve: the long-lived JSONL verification service ----- *)

let run_serve socket jobs queue_limit cache_mb chaos_seed stall_window
    flight_recorder metrics_interval stats () =
  (* arming the watchdog without naming a sink still records flights *)
  let flight_path =
    match (flight_recorder, stall_window) with
    | (Some _ as p), _ -> p
    | None, Some _ -> Some "flight-recorder.jsonl"
    | None, None -> None
  in
  let cfg =
    {
      Serve.Server.jobs;
      queue_limit;
      cache_mb;
      chaos_seed;
      stall_window_s = stall_window;
      flight_path;
      metrics_interval_s = metrics_interval;
    }
  in
  let code =
    match socket with
    | None -> Serve.Server.run_stdio cfg
    | Some path -> Serve.Server.run_socket cfg ~path
  in
  (* stats go to stderr: serve's stdout is the JSONL response stream
     and must stay byte-identical to the protocol (CI diffs it) *)
  Cli.emit_stats ~ppf:Format.err_formatter stats;
  code

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Serve connections on a Unix-domain socket at $(docv) (one \
                JSONL session per connection, verdict cache shared across \
                them) instead of a single stdin/stdout session.  A stale \
                socket at $(docv) is replaced; any other file there is \
                left alone and the server exits 2")
  in
  let chaos_seed =
    let env =
      Cmdliner.Cmd.Env.info "DIAMBOUND_CHAOS_SEED"
        ~doc:"Default chaos arming when $(b,--chaos-seed) is absent"
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~env ~docv:"SEED"
          ~doc:"Arm the chaos drill: honor requests' \"chaos\" fault field \
                and the \"poison\" op, and differentially replay every \
                cache hit, purging entries that disagree with a fresh \
                derivation.  Never set in production")
  in
  let stall_window =
    let env =
      Cmdliner.Cmd.Env.info "DIAMBOUND_STALL_WINDOW"
        ~doc:"Default watchdog stall window when $(b,--stall-window) is absent"
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "stall-window" ] ~env ~docv:"SECONDS"
          ~doc:"Arm the stuck-request watchdog: a monitor flags any \
                in-flight request whose solver heartbeat has not advanced \
                for $(docv) seconds — a warn log line with its correlation \
                id, plus a flight-recorder dump.  Purely observational: \
                verdicts and the response stream are untouched")
  in
  let flight_recorder =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-recorder" ] ~docv:"FILE"
          ~doc:"Where watchdog dumps go (default flight-recorder.jsonl): \
                appended batches of in-flight request spans, heartbeat \
                history and queue/pool state in the trace JSONL schema, \
                readable by $(b,diam trace-report)")
  in
  let metrics_interval =
    let env =
      Cmdliner.Cmd.Env.info "DIAMBOUND_METRICS_INTERVAL"
        ~doc:"Default periodic metrics interval when \
              $(b,--metrics-interval) is absent"
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "metrics-interval" ] ~env ~docv:"SECONDS"
          ~doc:"Emit a JSONL metrics line (non-zero counters plus the \
                in-flight heartbeat table) through the log sink every \
                $(docv) seconds — for socket-mode services whose operator \
                tails the log.  Never written to stdout")
  in
  let doc =
    "long-lived verification service: one JSON request per input line, one \
     JSON response per request in request order (byte-identical for every \
     --jobs value); parse errors, solver crashes and injected faults \
     become structured error responses behind a per-request barrier; \
     poisoned workers are respawned; --queue-limit switches admission \
     from blocking to load-shedding; certified verdicts are served from \
     an LRU cone-fingerprint cache; the metrics op, \
     --stall-window watchdog and --metrics-interval stream expose live \
     telemetry without touching the response bytes"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ socket $ Cli.jobs $ queue_limit $ cache_mb
      $ chaos_seed $ stall_window $ flight_recorder $ metrics_interval
      $ Cli.stats $ Cli.setup)

(* ----- corpus: walk a problem tree under a per-problem barrier ----- *)

(* Output discipline: stdout carries no timings, so the report is
   byte-identical across --jobs values (CI diffs jobs 1 vs 2); timing
   lives in --stats/--stats-json. *)
let run_corpus dir cutoff certify budget_spec jobs stats () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Cli.die Cli.usage_error "%s: not a directory" dir;
  let paths = Campaign.Corpus.walk dir in
  if paths = [] then
    Cli.die Cli.usage_error "no .bench/.aag problems under %s" dir;
  let config = { Core.Engine.default with Core.Engine.cutoff } in
  let mk_budget () = Cli.budget_of_spec budget_spec in
  let summary =
    Campaign.Corpus.run ~jobs ~config ~mk_budget ~certify paths
  in
  List.iter
    (fun (i : Campaign.Corpus.item) ->
      Format.printf "%-40s targets=%d %a@." i.Campaign.Corpus.path
        i.Campaign.Corpus.targets Campaign.Corpus.pp_outcome
        i.Campaign.Corpus.outcome)
    summary.Campaign.Corpus.items;
  Format.printf
    "corpus: %d problems: %d proved, %d violated, %d timeout, %d \
     inconclusive, %d malformed, %d crashed@."
    (List.length summary.Campaign.Corpus.items)
    summary.Campaign.Corpus.proved summary.Campaign.Corpus.violated
    summary.Campaign.Corpus.timeout summary.Campaign.Corpus.inconclusive
    summary.Campaign.Corpus.malformed summary.Campaign.Corpus.crashed;
  Cli.emit_stats stats;
  Campaign.Corpus.exit_code summary

let corpus_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"Directory tree of .bench/.aag problems")
  in
  let cutoff =
    Arg.(
      value & opt int 50
      & info [ "cutoff" ] ~docv:"N"
          ~doc:"Largest diameter bound considered BMC-dischargeable")
  in
  let doc =
    "walk a directory tree of .bench/.aag problems, verifying every one \
     under a fresh per-problem budget and a per-problem exception barrier: \
     malformed files, crashes, timeouts and inconclusive results are \
     tallied outcomes (exit 0 all-ok / 1 any violated-or-finding / 3 \
     inconclusive-only), never an aborted walk"
  in
  Cmd.v (Cmd.info "corpus" ~doc)
    Term.(
      const run_corpus $ dir $ cutoff $ Cli.certify $ Cli.budget_spec
      $ Cli.jobs $ Cli.stats $ Cli.setup)

(* ----- fuzz: the adversarial differential campaign ----- *)

let run_fuzz count seed jobs repro_dir stats () =
  if count <= 0 then Cli.die Cli.usage_error "--count must be positive";
  let report = Campaign.Hunt.run ~jobs ?repro_dir ~seed ~count () in
  List.iter
    (fun (c : Campaign.Hunt.case_report) ->
      (* one line per target (reference ladder cell); the other cells
         only surface when they disagree, as findings *)
      let ladder_verdicts =
        List.filter
          (fun (key, _) ->
            match String.rindex_opt key '/' with
            | Some i ->
              String.equal
                (String.sub key (i + 1) (String.length key - i - 1))
                "ladder"
            | None -> false)
          c.Campaign.Hunt.verdicts
      in
      Format.printf "case %-24s size=%-4d %s@." c.Campaign.Hunt.label
        c.Campaign.Hunt.size
        (String.concat " "
           (List.map (fun (k, v) -> k ^ "=" ^ v) ladder_verdicts));
      List.iter
        (fun ((f : Campaign.Oracle.finding), (s : Campaign.Hunt.shrink_info))
           ->
          Format.printf "FINDING %s %a shrunk %d -> %d%s@."
            c.Campaign.Hunt.label Campaign.Oracle.pp_finding f
            s.Campaign.Hunt.original_size s.Campaign.Hunt.shrunk_size
            (match s.Campaign.Hunt.repro with
            | Some p -> " repro " ^ p
            | None -> ""))
        c.Campaign.Hunt.findings)
    report.Campaign.Hunt.cases;
  Format.printf "fuzz: %d cases, %d findings (seed %d)@."
    report.Campaign.Hunt.count report.Campaign.Hunt.findings
    report.Campaign.Hunt.seed;
  Cli.emit_stats stats;
  if report.Campaign.Hunt.findings > 0 then Cli.violated else Cli.ok

let fuzz_cmd =
  let count =
    Arg.(
      value & opt int 20
      & info [ "count" ] ~docv:"N" ~doc:"How many designs to breed")
  in
  let seed =
    let env =
      Cmd.Env.info "DIAMBOUND_FUZZ_SEED"
        ~doc:"Default campaign seed when $(b,--seed) is not given"
    in
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~env ~docv:"SEED"
          ~doc:"Campaign seed; case $(i,i) is a pure function of (seed, \
                $(i,i)), so a seeded campaign is byte-reproducible at any \
                $(b,--jobs)")
  in
  let repro_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:"Write each finding's shrunk minimal repro netlist here (as \
                .bench), for $(b,diam corpus) to replay")
  in
  let doc =
    "breed adversarial designs (deep counterexamples, wide memories, \
     retiming-hostile gadgets, near-miss redundancies, pathological \
     reconvergence) and run every target through a differential oracle \
     matrix — sequential ladder, inprocessing off, parallel portfolio, \
     expired budget, certification everywhere; any disagreement, \
     certification failure, budget violation or crash is a finding, \
     greedily shrunk to a minimal repro (exit 1 on findings)"
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run_fuzz $ count $ seed $ Cli.jobs $ repro_dir $ Cli.stats
      $ Cli.setup)

(* ----- sat: a SAT-competition front door to the reference solver -----

   Speaks exactly the protocol the external (ext) backend expects of
   DIAMBOUND_EXT_SOLVER: [diam sat CNF [PROOF]] prints an
   "s SATISFIABLE" / "s UNSATISFIABLE" status line (exit 10/20) with
   "v " model lines on satisfiable instances, and writes DRUP text to
   PROOF on unsatisfiable ones.  Pointing DIAMBOUND_EXT_SOLVER at a
   script that execs this subcommand closes the round-trip loop, which
   is how the differential suite and CI exercise the ext backend
   without any third-party solver installed. *)

let run_sat cnf_file proof_out no_inprocess =
  Cli.apply_inprocess no_inprocess;
  let cnf =
    try Sat.Dimacs.parse_file cnf_file
    with Failure msg -> Cli.die Cli.usage_error "%s: %s" cnf_file msg
  in
  let solver = Sat.Solver.create () in
  let proof = Sat.Proof.create () in
  Sat.Solver.set_proof solver proof;
  for _ = 1 to cnf.Sat.Cnf.num_vars do
    ignore (Sat.Solver.new_var solver)
  done;
  List.iter (Sat.Solver.add_clause solver) cnf.Sat.Cnf.clauses;
  match Sat.Solver.solve solver with
  | Sat.Solver.Sat ->
    Format.printf "s SATISFIABLE@.";
    let lits =
      List.init cnf.Sat.Cnf.num_vars (fun v ->
          let b = Sat.Solver.value solver (Sat.Solver.pos v) in
          string_of_int (if b then v + 1 else -(v + 1)))
    in
    Format.printf "v %s 0@." (String.concat " " lits);
    10
  | Sat.Solver.Unsat ->
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (Sat.Proof.to_string proof)))
      proof_out;
    Format.printf "s UNSATISFIABLE@.";
    20
  | Sat.Solver.Unknown ->
    (* unreachable without allowances; keep the protocol total *)
    Format.printf "s UNKNOWN@.";
    Cli.inconclusive

let sat_cmd =
  let cnf_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"CNF" ~doc:"DIMACS CNF input")
  in
  let proof_out =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"PROOF"
          ~doc:"Where to write the DRUP proof of an unsatisfiable answer")
  in
  let doc =
    "decide a DIMACS CNF with the reference solver, speaking the \
     SAT-competition output protocol (s/v lines, exit 10/20) and writing \
     a DRUP proof on unsat — the counterpart of the ext backend's \
     round-trip, usable as its DIAMBOUND_EXT_SOLVER"
  in
  Cmd.v (Cmd.info "sat" ~doc ~exits:[])
    Term.(const run_sat $ cnf_file $ proof_out $ Cli.no_inprocess)

(* ----- trace-report: offline analysis of a --trace capture ----- *)

let run_trace_report file top =
  match Obs.Trace.read_file file with
  | events ->
    Format.printf "%a" (Obs.Trace_report.pp ~top) events;
    Cli.ok
  | exception Failure msg -> Cli.die Cli.usage_error "%s: %s" file msg
  | exception Sys_error msg -> Cli.die Cli.usage_error "%s" msg

let trace_report_cmd =
  let trace_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"Trace produced by --trace (Chrome trace-event JSON or JSONL)")
  in
  let top =
    Arg.(
      value & opt int 12
      & info [ "top" ] ~docv:"K"
          ~doc:"How many names to show in the self-time table")
  in
  let doc =
    "summarize a captured trace: top spans by self time, the critical \
     path, and the per-depth BMC cost table"
  in
  Cmd.v (Cmd.info "trace-report" ~doc) Term.(const run_trace_report $ trace_file $ top)

let doc =
  "structural diameter bounds via transformation pipelines (also: diam \
   serve, diam batch FILES.., diam corpus DIR, diam fuzz, diam sat CNF, \
   diam trace-report TRACE)"

let main_cmd =
  Cmd.v (Cmd.info "diam" ~doc)
    Term.(
      const run $ file $ design $ pipeline $ cutoff $ recurrence $ Cli.budget
      $ Cli.jobs $ Cli.stats $ Cli.setup)

(* a subcommand can't coexist with a default term taking positional
   args in one cmdliner group (FILE would parse as a command name), so
   dispatch on the first token ourselves *)
let cmd =
  if
    Array.length Sys.argv > 1
    && List.mem Sys.argv.(1)
         [ "trace-report"; "batch"; "corpus"; "fuzz"; "serve"; "sat" ]
  then
    Cmd.group (Cmd.info "diam" ~doc)
      [ trace_report_cmd; batch_cmd; corpus_cmd; fuzz_cmd; serve_cmd; sat_cmd ]
  else main_cmd

let () = exit (Cli.main cmd)
