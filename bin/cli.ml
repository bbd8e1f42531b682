(* Shared plumbing for the four command-line tools: the exit-code
   contract, the top-level exception barrier, the parse-error
   renderer, the resource-budget flags, and the setup and stats
   terms.

   Exit-code contract (all tools):

     0    proved / no counterexample / informational run completed
     1    property violated (a counterexample was found)
     2    usage or input error: bad flags, unreadable file, or a
          malformed netlist (rendered as "file:line: message")
     3    inconclusive: the budget ran out, or no practically useful
          bound exists, before any definite answer
     125  internal error — a bug in the tool, not in the input

   Multi-problem runs (diam corpus, diam fuzz) extend the same codes
   over a whole walk or campaign: 0 every problem ok, 1 any violated
   problem or any finding — a malformed file inside the corpus, a
   crash, an oracle disagreement — and 3 when the only non-ok
   outcomes are inconclusive/timeout.  Per-problem failures are
   tallied outcomes, never a 2/125 abort of the walk.              *)

let ok = 0
let violated = 1
let usage_error = 2
let inconclusive = 3
let internal_error = 125

exception Fail of int
(** Unwind to the barrier in {!main} with the given exit code; the
    message has already been printed. *)

let die code fmt = Format.kasprintf (fun msg ->
    Format.eprintf "%s@." msg;
    raise (Fail code)) fmt

(* parse a .bench file behind the Parse_error/Sys_error barrier,
   rendering diagnostics as "file:line: message" *)
let load_bench path =
  try Textio.Bench_io.parse_file path with
  | Textio.Parse_error { line; msg } -> die usage_error "%s:%d: %s" path line msg
  | Sys_error msg -> die usage_error "%s" msg

open Cmdliner

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Wall-clock budget for the run; on expiry the tool reports an \
              inconclusive result (exit 3) instead of running on")

let conflicts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "conflicts" ] ~docv:"N"
        ~doc:"Conflict allowance per SAT call; an exhausted call returns \
              unknown rather than looping")

let bdd_nodes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "bdd-nodes" ] ~docv:"N"
        ~doc:"BDD node allowance for target enlargement; on blow-up the \
              enlargement strategy stands down")

let budget =
  let make timeout_s conflicts bdd_nodes =
    Obs.Budget.create ?timeout_s ?conflicts ?bdd_nodes ()
  in
  Term.(const make $ timeout_arg $ conflicts_arg $ bdd_nodes_arg)

(* the raw flag triple, for tools that must mint a FRESH budget per
   problem: [budget] above starts its wall-clock deadline at flag
   parse time, which would charge problem N for problems 1..N-1 *)
let budget_spec =
  let make timeout_s conflicts bdd_nodes = (timeout_s, conflicts, bdd_nodes) in
  Term.(const make $ timeout_arg $ conflicts_arg $ bdd_nodes_arg)

let budget_of_spec (timeout_s, conflicts, bdd_nodes) =
  Obs.Budget.create ?timeout_s ?conflicts ?bdd_nodes ()

let jobs =
  let env =
    Cmd.Env.info "DIAMBOUND_JOBS"
      ~doc:"Default worker-domain count when $(b,--jobs) is not given"
  in
  let clamp n = max 1 n in
  Term.(
    const clamp
    $ Arg.(
        value & opt int 1
        & info [ "jobs"; "j" ] ~env ~docv:"N"
            ~doc:"Worker domains for parallel execution.  Results are \
                  deterministic: parallel runs report the same verdicts as \
                  $(b,--jobs 1), in the same order, only faster"))

(* --no-inprocess: escape hatch for SAT inprocessing (subsumption,
   variable elimination, probing and the rest of Sat.Simplify).  The
   returned term is the flag's value; [apply_inprocess] must run before
   any solver is created, since the default is captured per instance. *)
let no_inprocess =
  let env =
    Cmd.Env.info "DIAMBOUND_NO_INPROCESS"
      ~doc:"Disable SAT inprocessing, like $(b,--no-inprocess)"
  in
  Arg.(
    value & flag
    & info [ "no-inprocess" ] ~env
        ~doc:"Disable SAT inprocessing (clause subsumption, self-subsuming \
              resolution, bounded variable elimination and failed-literal \
              probing between restarts).  Verdicts never change, only \
              solving speed; this is the escape hatch for debugging or \
              measuring the simplifier itself")

let apply_inprocess no_inprocess =
  if no_inprocess then Sat.Solver.set_inprocess_default false

(* --backend: which solver backend(s) verdicts are produced with.  The
   returned term is the raw name; [apply_backend] must run before any
   solving, since the process default is consulted per solver
   creation. *)
let backend =
  let env =
    Cmd.Env.info "DIAMBOUND_BACKEND"
      ~doc:"Default solver backend when $(b,--backend) is not given"
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "backend" ] ~env ~docv:"NAME"
        ~doc:"Solver backend: $(b,reference) (the in-tree CDCL solver, \
              the default), $(b,bdd) (exact BDD oracle for small cones; \
              degrades to unknown past its node allowance, \
              $(b,DIAMBOUND_BDD_NODES)), $(b,ext) (DIMACS round-trip to \
              the external command in $(b,DIAMBOUND_EXT_SOLVER); missing \
              binary degrades to a structured backend-unavailable \
              unknown), or $(b,race) to race every available backend \
              against each strategy with deterministic rank selection")

let apply_backend = function
  | None -> ()
  | Some name -> (
    match Backend.spec_of_string name with
    | Ok spec -> Backend.set_default spec
    | Error msg -> die usage_error "%s" msg)

let certify =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:"Independently certify every answer before reporting it: \
              counterexamples must replay on the netlist, Unsat answers \
              re-check through the in-tree DRUP verifier, and bound \
              translations are recomputed from their recorded theorem \
              steps.  An answer that fails certification is withheld and \
              the run reports inconclusive instead; certification cost \
              shows up in the $(b,--stats) spans (certify.*)")

let proof_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "proof" ] ~docv:"FILE"
        ~doc:"Write the DRUP clausal proof of the discharge run \
              (drat-trim-compatible text).  Implies $(b,--certify): only \
              certified proofs are written")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Capture a structured trace of the run — hierarchical spans \
              with per-SAT-call, per-BMC-depth, per-strategy and \
              per-transformation attributes — to $(docv).  A .json file is \
              Chrome trace-event JSON (open in Perfetto or \
              about://tracing); a .jsonl file streams one event per line \
              and survives crashes.  Also enabled by the DIAMBOUND_TRACE \
              environment variable; inspect with $(b,diam trace-report)")

let log_level =
  let env =
    Cmd.Env.info "DIAMBOUND_LOG"
      ~doc:"Default log level when $(b,--log-level) is not given"
  in
  Arg.(
    value
    & opt (some (enum Obs.Log.levels)) None
    & info [ "log-level" ] ~env ~docv:"LEVEL"
        ~doc:"Structured-log threshold: $(b,error), $(b,warn) (default), \
              $(b,info) or $(b,debug).  Lines are JSONL \
              ({\"ts\":..,\"level\":..,\"event\":..,...}), carry the request \
              correlation id where one is active, and go to stderr — never \
              stdout — unless $(b,--log) routes them to a file")

let log_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:"Route structured log lines to $(docv) (truncated) instead of \
              stderr")

(* The five setup flags every tool takes.  Evaluating the term does
   the setup — trace sink (--trace, else DIAMBOUND_TRACE; it closes
   itself at process exit), log sink, inprocessing and backend
   defaults — so a tool puts it LAST in its term: every other flag has
   parsed by then, and the tool's body creates no solver before it. *)
let setup =
  let apply trace log_level log_file no_inprocess backend =
    Obs.Trace.setup ?file:trace ();
    Obs.Log.setup ?level:log_level ?file:log_file ();
    apply_inprocess no_inprocess;
    apply_backend backend
  in
  Term.(const apply $ trace $ log_level $ log_file $ no_inprocess $ backend)

(* --stats and --stats-json, as the pair [emit_stats] reports after
   the run *)
let stats =
  let human =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the observability counters and timing spans after \
                the run")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:"Write the observability snapshot as JSON to $(docv)")
  in
  Term.(const (fun h j -> (h, j)) $ human $ json_file)

let emit_stats ?ppf (human, json_file) =
  Obs.Report.emit ?ppf ~human ?json_file ()

(* the single exception barrier: every tool's [main] funnels through
   here, so no input however malformed produces a raw backtrace *)
let main cmd =
  match Cmd.eval_value ~catch:false cmd with
  | Ok (`Ok code) -> code
  | Ok (`Version | `Help) -> ok
  | Error (`Parse | `Term) -> usage_error
  | Error `Exn -> internal_error (* unreachable with ~catch:false *)
  | exception Fail code -> code
  | exception Textio.Parse_error { line; msg } ->
    Format.eprintf "line %d: %s@." line msg;
    usage_error
  | exception Sys_error msg ->
    Format.eprintf "%s@." msg;
    usage_error
  | exception e ->
    Format.eprintf "internal error: %s@." (Printexc.to_string e);
    internal_error
