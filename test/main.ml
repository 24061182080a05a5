let () =
  Alcotest.run "stenso"
    [
      ("q", Test_q.suite);
      ("expr", Test_expr.suite);
      ("shape", Test_shape.suite);
      ("tensor", Test_tensor.suite);
      ("parser", Test_parser.suite);
      ("types", Test_types.suite);
      ("exec", Test_exec.suite);
      ("cost", Test_cost.suite);
      ("spec", Test_spec.suite);
      ("stub", Test_stub.suite);
      ("invert", Test_invert.suite);
      ("search", Test_search.suite);
      ("superopt", Test_superopt.suite);
      ("config", Test_config.suite);
      ("parallel", Test_parallel.suite);
      ("telemetry", Test_telemetry.suite);
      ("store", Test_store.suite);
      ("frameworks", Test_frameworks.suite);
      ("baseline", Test_baseline.suite);
      ("rules", Test_rules.suite);
      ("suite-defs", Test_suite_defs.suite);
      ("lift", Test_lift.suite);
      ("masking", Test_masking.suite);
      ("soak", Test_soak.suite);
      ("printer", Test_printer.suite);
      ("egraph", Test_egraph.suite);
      ("tiers", Test_tiers.suite);
      ("net", Test_net.suite);
      ("serve-proto", Test_serve_proto.suite);
      ("reports", Test_reports.suite);
    ]
