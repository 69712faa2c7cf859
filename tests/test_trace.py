"""The benchmark tracer still records the consistency check, the symbol and the RK4 steps."""

from liftbench import trace

from liftlyap import cli


def _traced_ex_ps_report() -> trace.Tracer:
    # instrument() raises KeyError on a patched attribute that is gone
    tracer = trace.Tracer()
    stage = cli.stage_integrability
    with trace.instrument(tracer), tracer.root("ex_ps"):
        report, code = cli.run("report", cli.build_problem(cli.load_spec(cli.fixture_path("ex_ps"))))
    assert (code, report["verdict"]) == (cli.EXIT_OK, "LIFTABLE_AND_VERIFIED")
    assert cli.stage_integrability is stage  # the block restored what it patched
    return tracer


def test_traced_report_records_the_consistency_span():
    # the span check catches a kept name that full_check no longer calls through
    tracer = _traced_ex_ps_report()
    assert "integrability.pointwise_consistency" in {span.name for span in tracer.spans}


def test_traced_rk4_steps_and_no_closed_loop_calls():
    # simulate_rk4 evaluates the closed loop's polynomials inline, so the tracer's wrapper
    # around ClosedLoop.__call__ counts no field evaluation; the steps are still counted
    counts = _traced_ex_ps_report().counts
    assert counts["synth.rk4_steps"] > 0
    assert counts["synth.field_evals"] == 0


def test_traced_symbol_is_one_span_and_one_identity_call():
    # the tracer spans symbol_dims and counts quasi_regular_identity through integrability attributes
    tracer = _traced_ex_ps_report()
    assert [span.name for span in tracer.spans].count("integrability.symbol_dims") == 1
    counts = tracer.counts
    assert (counts["integrability.symbol_identity_calls"], counts["integrability.symbol_identity_hits"]) == (1, 1)
