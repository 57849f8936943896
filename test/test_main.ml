let () =
  Alcotest.run "concilium"
    (Test_util.suites @ Test_pool.suites @ Test_crypto.suites @ Test_stats.suites @ Test_topology.suites
   @ Test_netsim.suites @ Test_chaos.suites @ Test_overlay.suites @ Test_tomography.suites @ Test_core.suites
   @ Test_protocol.suites @ Test_adversary.suites
   @ Test_experiments.suites
   @ Test_lint.suites @ Test_obs.suites @ Test_provenance.suites @ Test_check.suites
   @ Test_analysis.suites @ Test_scale.suites)
