(* Every simulator run in the whole suite is audited: the hook attaches a
   trace to each Hyp_sim and replays it through the invariant oracle when
   the run finishes, raising Audit_failure on any violation. *)
let () = Rthv_check.Audit_hook.install ()

let () =
  Alcotest.run "rthv"
    [
      ("engine.cycles", Test_cycles.suite);
      ("engine.prng", Test_prng.suite);
      ("engine.event_arena", Test_event_arena.suite);
      ("hw", Test_hw.suite);
      ("analysis.distance_fn", Test_distance_fn.suite);
      ("analysis.arrival_curve", Test_arrival_curve.suite);
      ("analysis.busy_window", Test_busy_window.suite);
      ("analysis.tdma_interference", Test_tdma_interference.suite);
      ("analysis.independence", Test_independence.suite);
      ("analysis.irq_latency", Test_irq_latency.suite);
      ("analysis.guest_sched", Test_guest_sched.suite);
      ("analysis.edf_sched", Test_edf_sched.suite);
      ("analysis.propagation", Test_propagation.suite);
      ("analysis.sensitivity", Test_sensitivity.suite);
      ("analysis.certificate", Test_certificate.suite);
      ("rtos.irq_queue", Test_irq_queue.suite);
      ("rtos.guest", Test_guest.suite);
      ("rtos.ipc", Test_ipc.suite);
      ("core.tdma", Test_tdma.suite);
      ("core.monitor", Test_monitor.suite);
      ("core.throttle", Test_throttle.suite);
      ("core.config", Test_config.suite);
      ("core.facade", Test_facade.suite);
      ("core.hyp_sim", Test_hyp_sim.suite);
      ("core.reference", Test_reference_sim.suite);
      ("core.activation", Test_activation.suite);
      ("core.hyp_trace", Test_hyp_trace.suite);
      ("core.vcd_export", Test_vcd_export.suite);
      ("core.trace_export", Test_trace_export.suite);
      ("core.tracestore", Test_tracestore.suite);
      ("core.trace_query", Test_trace_query.suite);
      ("obs", Test_obs.suite);
      ("obs.merge", Test_obs_merge.suite);
      ("obs.live", Test_live_metrics.suite);
      ("obs.span", Test_span.suite);
      ("obs.prof", Test_prof.suite);
      ("core.flight", Test_flight.suite);
      ("check.lint", Test_lint.suite);
      ("check.trace_oracle", Test_trace_oracle.suite);
      ("check.slo", Test_slo.suite);
      ("check.absint", Test_absint.suite);
      ("check.codec", Test_codec.suite);
      ("check.witness", Test_witness.suite);
      ("check.certify", Test_certify.suite);
      ("core.admission", Test_admission.suite);
      ("core.slot_plan", Test_slot_plan.suite);
      ("analysis.bound", Test_bound.suite);
      ("golden", Test_golden.suite);
      ("workload", Test_workload.suite);
      ("stats", Test_stats.suite);
      ("stats.ascii_plot", Test_ascii_plot.suite);
      ("par", Test_par.suite);
      ("experiments", Test_experiments.suite);
      ("experiments.determinism", Test_determinism.suite);
      ("experiments.ablation", Test_ablation.suite);
      ("experiments.multi_source", Test_multi_source.suite);
      ("experiments.phase_sweep", Test_phase_sweep.suite);
      ("integration", Test_integration.suite);
      ("integration.closed_form", Test_closed_form.suite);
    ]
