let () =
  Alcotest.run "cmswitch"
    [ T_util.suite; T_obs.suite; T_shape.suite; T_tensor.suite; T_nnir.suite; T_solver.suite; T_arch.suite; T_metaop.suite; T_models.suite; T_compiler.suite; T_sim.suite; T_e2e.suite; T_extensions.suite; T_analysis.suite; T_plan.suite; T_baselines.suite; T_codegen.suite; T_fuzz_e2e.suite; T_robustness.suite; T_pool.suite; T_differential.suite; T_parallel.suite; T_config.suite; T_cache.suite; T_kernels.suite; T_dynshape.suite; T_pipeline.suite ]
