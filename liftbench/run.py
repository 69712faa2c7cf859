"""Benchmark command: seeded liftlyap workloads, checked against known answers.

    python3 liftbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is used from ``src`` as it
is; nothing is installed.  Each run is a closed loop with one caller: one
worker process on one thread (BLAS pinned to 1) hands each generated
problem spec to ``cli.build_problem`` and ``cli.run("report", ...)`` in
turn and checks the report against the generator's answer.

``--trace 0`` prints the end-to-end metrics, measured untraced: set-up time
(import of ``liftlyap.cli`` in fresh interpreters), throughput and median
time to a correct verdict over whole instance patterns for about
``--seconds``, and the worker's peak resident set.  Times are scaled to the
host speed of ``reference.REFERENCE_SECONDS``: each solve and each import
by the reference kernel timed next to it.  The unscaled times are printed
beside them.

``--trace 1`` prints the per-layer metrics from a separate process that
solves the workload's fixed-count instances untraced and traced in turn;
the traced solves record spans around each layer's public functions and
counters on the kernels, written under ``.liftbench/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run with any wrong or crashed instance
reports no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from liftbench import gen, reference  # noqa: E402

DEADLINE_S = 170.0
SETUP_REPEATS = 10
# Prints the import time and, once the import is timed, the reference kernel's
# time in the same interpreter (after one call that warms it up).
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import liftlyap.cli; d = time.perf_counter() - t; "
    "from liftbench import reference; reference.seconds(); print(d, reference.seconds())"
)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_python(args: list[str], deadline: float) -> str:
    """Stdout of a child interpreter, which is killed if it outlives the deadline."""
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - monotonic()),
        check=True,
    )
    return done.stdout


def setup_samples(deadline: float) -> list[tuple[float, float]]:
    """Import times of liftlyap.cli, each in a fresh interpreter, with the kernel time there."""
    samples = []
    for _ in range(SETUP_REPEATS):
        seconds, kernel = run_python(["-c", SETUP_PROBE], deadline).split()
        samples.append((float(seconds), float(kernel)))
    return samples


def worker(workload: str, seed: int, deadline: float, seconds: float = 0.0, spans: Path | None = None) -> dict:
    args = ["-m", "liftbench.worker", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if spans is not None:
        args += ["--spans", str(spans)]
    return json.loads(run_python(args, deadline).splitlines()[-1])


def failures(result: dict) -> list[str]:
    return [f"FAIL {r['label']}: {r['error']}" for r in result["fixtures"] + result["instances"] if r["error"]]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> tuple[list[dict], dict, list[str]]:
    run_python(["-c", SETUP_PROBE], deadline)  # warm-up: compiles the bytecode cache
    setup = setup_samples(deadline)
    result = worker(workload, seed, deadline, seconds)
    setup += setup_samples(deadline)  # probes on both sides of the workload span its whole run
    solved = [r for r in result["instances"] if r["error"] is None]
    times = [r["seconds"] for r in solved]
    scaled = [r["seconds"] * reference.REFERENCE_SECONDS / r["kernel"] for r in solved]
    setup_times = [seconds for seconds, _ in setup]
    setup_scaled = [seconds * reference.REFERENCE_SECONDS / kernel for seconds, kernel in setup]
    lines = [
        f"verdict_s.p50 over {len(times)} instances; "
        f"digest of the first {result['digest_count']}: {result['digest']}",
    ]
    metrics = {}
    if times:
        host_speed = reference.REFERENCE_SECONDS / statistics.median(r["kernel"] for r in solved)
        lines.append(
            f"unscaled: verdict_s.p50 {statistics.median(times):.6g} s, "
            f"setup_s {statistics.median(setup_times):.6g} s; host speed / reference {host_speed:.4f}"
        )
        metrics = {
            "decided_per_s": metric(len(scaled) / sum(scaled), "instances/s"),
            "verdict_s.p50": metric(statistics.median(scaled), "s"),
            "setup_s": metric(statistics.median(setup_scaled), "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MiB"),
        }
    return [result], metrics, lines


def traced_run(workload: str, seed: int, deadline: float) -> tuple[list[dict], dict, list[str]]:
    spans = ROOT / ".liftbench" / f"spans-{workload}-{seed}.jsonl"
    spans.parent.mkdir(exist_ok=True)
    traced = worker(workload, seed, deadline, spans=spans)
    metrics = traced["layers"]
    wall = traced["traced_wall"]
    share = {
        "lift.*": sum(v["value"] for k, v in metrics.items() if k.startswith("lift.") and k.endswith("_s")),
        "geometry.*+integrability.*": sum(
            v["value"]
            for k, v in metrics.items()
            if k.split(".")[0] in ("geometry", "integrability") and k.endswith("_s")
        ),
        "synth.rk4_s": metrics["synth.rk4_s"]["value"],
    }
    lines = [
        "shares of traced wall (fixtures included): "
        + ", ".join(f"{k} {v / wall:.3f}" for k, v in share.items())
        + f", uncovered {metrics['trace.uncovered_frac']['value']:.4f}",
        f"lift spans in the workload's own instances: {traced['lift_spans_in_workload']}",
        f"spans written to {spans.relative_to(ROOT)}",
    ]
    return [traced], metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "liftlyap" / "cli.py").is_file():
        print(f"liftbench: no liftlyap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    try:
        if args.trace:
            results, metrics, lines = traced_run(args.workload, args.seed, deadline)
        else:
            results, metrics, lines = timed_run(args.workload, args.seed, args.seconds, deadline)
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"liftbench: {exc}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(results[-1]["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}")
    result, failed = summarize(results, metrics)
    for line in lines + failed:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def summarize(results: list[dict], metrics: dict) -> tuple[dict, list[str]]:
    """The result object and failure lines; any failure withholds every metric."""
    attempted = sum(len(r["fixtures"]) + len(r["instances"]) for r in results)
    failed = [line for r in results for line in failures(r)]
    correct = not failed
    result = {"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics if correct else {}}
    return result, failed


if __name__ == "__main__":
    sys.exit(main())
