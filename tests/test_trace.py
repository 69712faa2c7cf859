"""The benchmark tracer still records the consistency check, the symbol and the closed-loop evaluations."""

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


def test_traced_field_evals_are_four_per_rk4_step():
    # an RK4 that reached the compiled evaluator around ClosedLoop.__call__ would count none
    counts = _traced_ex_ps_report().counts
    assert counts["synth.rk4_steps"] > 0
    assert counts["synth.field_evals"] == 4 * counts["synth.rk4_steps"]


def test_traced_symbol_is_one_span_and_one_identity_call():
    # the tracer spans symbol_dims and counts quasi_regular_identity through integrability attributes
    tracer = _traced_ex_ps_report()
    assert [span.name for span in tracer.spans].count("integrability.symbol_dims") == 1
    counts = tracer.counts
    assert (counts["integrability.symbol_identity_calls"], counts["integrability.symbol_identity_hits"]) == (1, 1)
