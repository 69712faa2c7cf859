"""The benchmark tracer still records the consistency check."""

from liftbench import trace

from liftlyap import cli


def test_traced_report_records_the_consistency_span():
    # instrument() raises KeyError on a patched attribute that is gone; the span check
    # also catches a kept name that full_check no longer calls through
    tracer = trace.Tracer()
    stage = cli.stage_integrability
    with trace.instrument(tracer), tracer.root("ex_ps"):
        report, code = cli.run("report", cli.build_problem(cli.load_spec(cli.fixture_path("ex_ps"))))
    assert (code, report["verdict"]) == (cli.EXIT_OK, "LIFTABLE_AND_VERIFIED")
    assert "integrability.pointwise_consistency" in {span.name for span in tracer.spans}
    assert cli.stage_integrability is stage  # the block restored what it patched
