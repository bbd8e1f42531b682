let () =
  (* every genuine Sat anywhere in the suite gets its model
     cross-checked inside the solver (see Solver.check_model) *)
  Unix.putenv "DIAMBOUND_CHECK_MODEL" "1";
  Alcotest.run "diambound"
    [
      ("lit", Test_lit.suite);
      ("net", Test_net.suite);
      ("scc", Test_scc.suite);
      ("coi", Test_coi.suite);
      ("vec", Test_vec.suite);
      ("sim", Test_sim.suite);
      ("sat", Test_sat.suite);
      ("backend", Test_backend.suite);
      ("simplify", Test_simplify.suite);
      ("proof", Test_proof.suite);
      ("stats", Test_stats.suite);
      ("log", Test_log.suite);
      ("trace", Test_trace.suite);
      ("budget", Test_budget.suite);
      ("bdd", Test_bdd.suite);
      ("textio", Test_textio.suite);
      ("encode", Test_encode.suite);
      ("equiv", Test_equiv.suite);
      ("gen", Test_gen.suite);
      ("rebuild", Test_rebuild.suite);
      ("com", Test_com.suite);
      ("retime", Test_retime.suite);
      ("phase", Test_phase.suite);
      ("cslow", Test_cslow.suite);
      ("enlarge", Test_enlarge.suite);
      ("unsound", Test_unsound.suite);
      ("classify", Test_classify.suite);
      ("bound", Test_bound.suite);
      ("translate", Test_translate.suite);
      ("exact", Test_exact.suite);
      ("recurrence", Test_recurrence.suite);
      ("bmc", Test_bmc.suite);
      ("van_eijk", Test_van_eijk.suite);
      ("induction", Test_induction.suite);
      ("parametric", Test_parametric.suite);
      ("aiger", Test_aiger.suite);
      ("vcd", Test_vcd.suite);
      ("engine", Test_engine.suite);
      ("certify", Test_certify.suite);
      ("chaos", Test_chaos.suite);
      ("symbolic", Test_symbolic.suite);
      ("pipeline", Test_pipeline.suite);
      ("workload", Test_workload.suite);
      ("sched", Test_sched.suite);
      ("portfolio", Test_portfolio.suite);
      ("campaign", Test_campaign.suite);
      ("serve", Test_serve.suite);
    ]
