"""Tests of the benchmark itself: generator, tracing arithmetic, gate."""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from liftbench import gen, run, trace, worker
from liftlyap import cli

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def small_instances():
    """One instance of each family at sizes that run in well under a second."""
    rng = random.Random("small")
    return [
        gen.liftable_flat(rng, "flat", 3, 1, 4),
        gen.coupled_fibres(rng, "coupled", 4, 1, False),
        gen.coupled_fibres(rng, "coupled-actuated", 4, 1, True),
        gen.state_actuated(rng, "pointwise", 3, 1, 3, 2.0),
    ]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    for index in range(gen.pattern_length(workload)):
        first = gen.instance(workload, 7, index)
        assert first == gen.instance(workload, 7, index)
        assert first.spec != gen.instance(workload, 8, index).spec


@pytest.mark.parametrize("inst", small_instances(), ids=lambda inst: inst.label)
def test_known_answers_hold_at_small_sizes(inst):
    record = worker.solve(inst, None)
    assert record["error"] is None
    assert record["behaviour"]["verdict"] == inst.verdict


def test_written_problem_files_load_in_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.argv", ["gen.py", "--workload", "obstruct-wide", "--seed", "3", "--count", "1", "--out", str(tmp_path)]
    )
    gen.main()
    (path,) = tmp_path.glob("*.json")
    assert cli.main(["report", "--spec", str(path)]) == cli.EXIT_NOT_LIFTABLE
    capsys.readouterr()


def test_self_time_subtracts_the_union_of_children():
    spans = [
        trace.Span("root", 0.0, 10.0, None, "i"),
        trace.Span("a", 1.0, 4.0, 0, "i"),
        trace.Span("b", 3.0, 6.0, 0, "i"),  # overlaps a: [1, 6] is covered once
        trace.Span("c", 2.0, 3.0, 1, "i"),
        trace.Span("d", 9.0, 12.0, 0, "i"),  # runs past its parent: clipped at 10
    ]
    assert trace.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_every_span_feeds_exactly_one_self_time_metric():
    spanned = [f"{module}.{fn}" for module, fns in trace.SPANNED.items() for fn in fns]
    mapped = [name for names in trace.SELF_TIME_METRICS.values() for name in names]
    assert sorted(spanned) == sorted(mapped)


def test_tracing_leaves_reports_byte_identical_and_restores_the_program():
    problems = [inst.spec for inst in small_instances()]
    problems.append(cli.load_spec(cli.fixture_path("ex_ps")))
    original = cli.stage_lift, cli.Poly.__mul__

    def reports():
        return [json.dumps(cli.run("report", cli.build_problem(spec)), sort_keys=True) for spec in problems]

    plain = reports()
    tracer = trace.Tracer()
    with trace.instrument(tracer):
        with tracer.root("all"):
            traced = reports()
    assert traced == plain
    assert (cli.stage_lift, cli.Poly.__mul__) == original
    names = {span.name for span in tracer.spans}
    assert {"cli.stage_lift", "lift.solve_jets", "synth.simulate_rk4", "integrability.symbol_dims"} <= names
    assert tracer.counts["integrability.symbol_identity_calls"] > 0


def test_traced_pair_checks_the_traced_report_against_the_untraced_one():
    inst = small_instances()[1]
    original = cli.stage_lift
    tracer = trace.Tracer()
    for index in range(2):  # both orders of the pair
        record, plain_seconds = worker.traced_pair(index, inst, tracer)
        assert record["error"] is None and plain_seconds > 0
    assert [s.instance for s in tracer.spans if s.name == trace.ROOT] == [inst.label] * 2
    assert cli.stage_lift is original


def test_per_layer_metrics_match_the_benchmark_definition():
    tracer = trace.Tracer()
    with trace.instrument(tracer):
        worker.solve(small_instances()[0], tracer)
    emitted = set(trace.layer_metrics(tracer)) | {"trace.overhead_frac"}
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert emitted == {m["name"] for m in declared["per_layer"]}


def test_wrong_expected_answer_is_a_failure_not_a_number():
    inst = replace(small_instances()[0], verdict="NOT_LIFTABLE(condition_b)")
    record = worker.solve(inst, None)
    assert "verdict" in record["error"]
    result, lines = run.summarize(
        [{"fixtures": [], "instances": [record]}], {"decided_per_s": run.metric(1.0, "instances/s")}
    )
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    assert lines == [f"FAIL flat: {record['error']}"]


def test_a_crash_is_recorded_against_its_instance():
    inst = replace(small_instances()[0], spec={"states": "not a list"})
    record = worker.solve(inst, None)
    assert record["error"].startswith("SpecError")
