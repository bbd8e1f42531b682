(** Per-solve SAT statistics recording.

    Backends keep plain lifetime counters (no dependency on the
    observability layer); callers route deltas into the global
    {!Obs.Stats} registry by solving through this wrapper.  All
    telemetry reads go through the backend's stats-snapshot hook
    ({!Backend.stats}), so the BDD oracle and the external solver
    report into the same ["sat.*"] counters and flight recorder as the
    reference CDCL backend. *)

module Solver = Backend

let schema =
  [
    "sat.solves";
    "sat.sat_results";
    "sat.unknowns";
    "sat.conflicts";
    "sat.decisions";
    "sat.propagations";
    "sat.restarts";
    "sat.reduce_dbs";
    "sat.simplify.runs";
    "sat.simplify.subsumed";
    "sat.simplify.strengthened";
    "sat.simplify.eliminated_vars";
    "sat.simplify.probed_units";
    "encode.vars";
    "encode.clauses";
  ]

(* register the schema eagerly so every snapshot carries the solver
   counters, zeroed when nothing ran *)
let () = Obs.Stats.declare schema

let result_name = function
  | Solver.Sat -> "sat"
  | Solver.Unsat -> "unsat"
  | Solver.Unknown _ -> "unknown"

(* [solve ?assumptions ?budget ?span solver] is [Backend.solve] plus
   recording: the call runs under [Obs.span span] (default
   "sat.solve"), whose trace event carries the per-call deltas and the
   problem size, and the statistic deltas go to the "sat.*" counters.
   A [budget] translates to the backend's per-call allowances
   (conflicts, propagations, BDD nodes); an [Unknown] result is
   counted both here and against the budget layer — except
   backend-unavailable Unknowns, which are a configuration condition,
   not an exhausted allowance. *)
let solve ?assumptions ?budget ?(span = "sat.solve") solver =
  let s0 = Backend.stats solver in
  (* inprocessing passes show up as their own span nested under the
     solve span, so trace-report attributes time to "sat.simplify" *)
  Backend.set_simplify_wrapper solver (Obs.span "sat.simplify");
  let max_conflicts = Option.bind budget Obs.Budget.conflicts in
  let max_propagations = Option.bind budget Obs.Budget.propagations in
  let max_nodes = Option.bind budget Obs.Budget.bdd_nodes in
  let should_stop = Option.bind budget Obs.Budget.should_stop in
  (* live telemetry rides the same restart-boundary poll the budget
     uses: when this solve belongs to a registered in-flight request
     (serve), each poll also publishes a heartbeat snapshot.  Forced
     to [Some] even without a budget so a stuck-but-unbudgeted solve
     still beats. *)
  let should_stop =
    if not (Obs.Heartbeat.active ()) then should_stop
    else
      Some
        (fun () ->
          let s = Backend.stats solver in
          Obs.Heartbeat.beat ~conflicts:s.Backend.conflicts
            ~propagations:s.Backend.propagations ~trail:s.Backend.trail
            ~learnts:s.Backend.learnts;
          match should_stop with Some f -> f () | None -> false)
  in
  let result =
    Obs.span span
      ~result:(fun r ->
        let s = Backend.stats solver in
        Obs.Trace.
          [
            ("result", String (result_name r));
            ("backend", String (Backend.name solver));
            ("vars", Int s.Backend.vars);
            ("clauses", Int s.Backend.clauses);
            ("conflicts", Int (s.Backend.conflicts - s0.Backend.conflicts));
            ("decisions", Int (s.Backend.decisions - s0.Backend.decisions));
            ( "propagations",
              Int (s.Backend.propagations - s0.Backend.propagations) );
            ("restarts", Int (s.Backend.restarts - s0.Backend.restarts));
          ])
      (fun () ->
        Backend.solve ?assumptions ?max_conflicts ?max_propagations ?max_nodes
          ?should_stop solver)
  in
  let s1 = Backend.stats solver in
  Obs.Stats.count "sat.solves" 1;
  (match result with
  | Solver.Sat -> Obs.Stats.count "sat.sat_results" 1
  | Solver.Unknown why ->
    Obs.Stats.count "sat.unknowns" 1;
    if not (Backend.is_unavailable why) then Obs.Budget.note_exhausted ?budget "sat"
  | Solver.Unsat -> ());
  Obs.Stats.count "sat.conflicts" (s1.Backend.conflicts - s0.Backend.conflicts);
  Obs.Stats.count "sat.decisions" (s1.Backend.decisions - s0.Backend.decisions);
  Obs.Stats.count "sat.propagations"
    (s1.Backend.propagations - s0.Backend.propagations);
  Obs.Stats.count "sat.restarts" (s1.Backend.restarts - s0.Backend.restarts);
  Obs.Stats.count "sat.reduce_dbs"
    (s1.Backend.reduce_dbs - s0.Backend.reduce_dbs);
  Obs.Stats.count "sat.simplify.runs"
    (s1.Backend.simplifies - s0.Backend.simplifies);
  Obs.Stats.count "sat.simplify.subsumed"
    (s1.Backend.subsumed - s0.Backend.subsumed);
  Obs.Stats.count "sat.simplify.strengthened"
    (s1.Backend.strengthened - s0.Backend.strengthened);
  Obs.Stats.count "sat.simplify.eliminated_vars"
    (s1.Backend.eliminated - s0.Backend.eliminated);
  Obs.Stats.count "sat.simplify.probed_units"
    (s1.Backend.probed_units - s0.Backend.probed_units);
  result
