"""One benchmark process: check the fixtures, then run a workload's instances.

Started by ``run.py`` with ``src`` and the checkout root on ``PYTHONPATH``
and BLAS pinned to one thread.  Prints one JSON object on stdout: per
instance the time from spec to verdict (``build_problem`` + ``run``) and
any failure, the behaviour digest of the first fixed-count instances, the
peak resident set and the machine facts.  Untraced, each solve also
records the time of the reference kernel run just before and just after it.

With ``--spans PATH`` the run is traced: each instance is solved once
untraced and once traced, in alternating order, so the two solves of a pair
see the same host speed.  The output then adds the per-layer metrics and
the median overhead of the pairs, and the spans are written to PATH when
the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import asdict, replace
from time import perf_counter

import numpy as np

from liftbench import gen, reference, trace
from liftlyap import cli, geometry

_default_grid = geometry.default_grid  # unwrapped, for counting grid points outside spans

# The four bundled examples and the answers the pipeline must give them.
FIXTURES = {
    "ex_ps": gen.Instance("fixture:ex_ps", {}, gen.LIFTABLE, 0, {"(0, 2)": "1/2"}, ()),
    "ex_fa": gen.Instance("fixture:ex_fa", {}, gen.LIFTABLE, 0, {"(0, 2)": "1/2"}, ()),
    "ex_di": gen.Instance("fixture:ex_di", {}, "NOT_LIFTABLE(consistency)", 2, None, ("consistency",)),
    "ex_curv": gen.Instance(
        "fixture:ex_curv",
        {},
        "NOT_LIFTABLE(flatness,condition_b,consistency)",
        2,
        None,
        ("flatness", "condition_b", "consistency"),
    ),
}

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def check(inst: gen.Instance, report: dict, code: int) -> str | None:
    """None when the report gives the instance's known answer, else what differs."""
    if report["verdict"] != inst.verdict:
        return f"verdict {report['verdict']} != expected {inst.verdict}"
    if code != inst.exit_code:
        return f"exit code {code} != expected {inst.exit_code}"
    if tuple(report["reasons"]) != inst.reasons:
        return f"reasons {report['reasons']} != expected {list(inst.reasons)}"
    if inst.coefficients is not None and report["lift"]["coefficients"] != inst.coefficients:
        return f"coefficients {report['lift']['coefficients']} != expected {inst.coefficients}"
    return None


def behaviour(report: dict) -> dict:
    """The exact report fields a behaviour change would alter."""
    lift = report["lift"] or {}
    feedback = report["feedback"] or {}
    return {
        "verdict": report["verdict"],
        "coefficients": lift.get("coefficients"),
        "free_seeded": lift.get("free_seeded"),
        "v": lift.get("v"),
        "vstar": lift.get("vstar"),
        "symbolic_feedback": feedback.get("symbolic"),
    }


def solve(inst: gen.Instance, tracer: trace.Tracer | None) -> dict:
    """Run one instance through the pipeline and check it; never raises."""
    record = {"label": inst.label, "seconds": None, "error": None, "behaviour": None}
    scope = tracer.root(inst.label) if tracer is not None else nullcontext()
    try:
        with scope:
            start = perf_counter()
            problem = cli.build_problem(inst.spec)
            report, code = cli.run("report", problem)
            record["seconds"] = perf_counter() - start
    except Exception as exc:  # a crash fails this instance, not the run
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    if tracer is not None:
        tracer.counts["geometry.grid_points"] += len(_default_grid(problem.sys.m, problem.options.grid_per_axis))
    record["error"] = check(inst, report, code)
    record["behaviour"] = behaviour(report)
    return record


def fixture_instances() -> list[gen.Instance]:
    return [replace(answer, spec=cli.load_spec(cli.fixture_path(name))) for name, answer in FIXTURES.items()]


def digest(records: list[dict]) -> str:
    text = "\n".join(json.dumps(r["behaviour"], sort_keys=True) for r in records)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def traced_pair(index: int, inst: gen.Instance, tracer: trace.Tracer) -> tuple[dict, float | None]:
    """Solve an instance untraced and traced; the traced record, and the untraced time."""
    order = (False, True) if index % 2 == 0 else (True, False)
    solved = {}
    for traced in order:
        with trace.instrument(tracer) if traced else nullcontext():
            solved[traced] = solve(inst, tracer if traced else None)
    record, plain = solved[True], solved[False]
    if record["error"] is None and plain["error"] is not None:
        record["error"] = f"untraced solve: {plain['error']}"
    elif record["error"] is None and record["behaviour"] != plain["behaviour"]:
        record["error"] = "tracing changed the report"
    return record, plain["seconds"]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="run whole patterns for about this long")
    parser.add_argument("--spans", default=None, help="trace the run and write its spans to this file")
    args = parser.parse_args()

    tracer = trace.Tracer() if args.spans else None
    fixed = gen.FIXED_COUNT[args.workload]
    pattern = gen.pattern_length(args.workload)
    with trace.instrument(tracer) if tracer is not None else nullcontext():
        fixtures = [solve(inst, tracer) for inst in fixture_instances()]
    records, overheads = [], []
    start = perf_counter()

    def more() -> bool:
        done = len(records)
        if done < fixed or done % pattern:
            return True
        # Start another pattern only if, at the pace so far, it ends within --seconds.
        return (perf_counter() - start) * (done + pattern) / done <= args.seconds

    if tracer is None:
        kernel_before = reference.seconds()
        while more():
            record = solve(gen.instance(args.workload, args.seed, len(records)), None)
            kernel_after = reference.seconds()
            record["kernel"] = (kernel_before + kernel_after) / 2
            records.append(record)
            kernel_before = kernel_after
    else:
        while more():
            inst = gen.instance(args.workload, args.seed, len(records))
            record, plain_seconds = traced_pair(len(records), inst, tracer)
            records.append(record)
            if record["error"] is None:
                overheads.append(record["seconds"] / plain_seconds - 1.0)
    out = {
        "fixtures": fixtures,
        "instances": [{k: r.get(k) for k in ("label", "seconds", "error", "kernel")} for r in records],
        "digest": digest(records[:fixed]),
        "digest_count": fixed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    for r in fixtures:
        r.pop("behaviour")
    if tracer is not None:
        out["layers"] = trace.layer_metrics(tracer)
        if overheads:
            out["layers"]["trace.overhead_frac"] = {"value": statistics.median(overheads), "unit": "ratio"}
        out["traced_wall"] = trace.traced_wall(tracer)
        out["lift_spans_in_workload"] = sum(
            1 for s in tracer.spans if s.name.startswith("lift.") and not s.instance.startswith("fixture:")
        )
        with open(args.spans, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
            handle.write(json.dumps({"counts": tracer.counts, "seconds": tracer.seconds}) + "\n")
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
