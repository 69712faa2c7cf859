"""Spans and counters recorded from outside the program.

``instrument`` replaces, for the duration of a ``with`` block, the module
attributes through which the pipeline calls each layer, so the program's
code is unchanged and nothing is recorded once the block exits.  Layer
functions become spans (name, start, end, parent, instance); hot kernels
(``Poly`` methods, ``numeric_rank``, the symbol identity, ``poly_det``,
closed-loop evaluations) only bump counters, because a span per call would
cost more than the call.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

ROOT = "instance"

# Functions recorded as spans, by module; the name of a span is
# "<module>.<function>".  Each one is the attribute its caller resolves:
# cli.run calls the stages as cli globals, the stages call the layers as
# module attributes, and full_check calls its checks as integrability
# globals.
SPANNED = {
    "cli": (
        "build_problem",
        "stage_quotient",
        "stage_geometry",
        "stage_target",
        "stage_integrability",
        "stage_lift",
        "stage_synthesize",
        "stage_simulate",
        "projections_from_matrix",
    ),
    "geometry": ("default_grid", "control_distribution", "complement_frame", "build_projections"),
    "integrability": (
        "full_check",
        "check_flatness",
        "condition_a",
        "condition_b",
        "pointwise_consistency",
        "symbol_dims",
    ),
    "lift": ("assemble_lift_system", "solve_jets", "assemble_vstar"),
    "synth": ("solve_feedback", "closed_loop_field", "simulate_rk4", "verify_lyapunov_decrease"),
}

# Per-layer self-time metrics and the spans each one sums.  Every span
# except the instance root belongs to exactly one metric, so the metrics
# plus the root's own (uncovered) time add up to the traced wall time.
SELF_TIME_METRICS = {
    "parsing.build_s": ("cli.build_problem",),
    "sysmodel.quotient_s": ("cli.stage_quotient",),
    "sysmodel.target_s": ("cli.stage_target",),
    "geometry.grid_s": ("geometry.default_grid",),
    "geometry.frame_s": ("geometry.control_distribution", "geometry.complement_frame"),
    "geometry.projection_s": ("geometry.build_projections", "cli.projections_from_matrix"),
    "integrability.conditions_s": (
        "integrability.check_flatness",
        "integrability.condition_a",
        "integrability.condition_b",
    ),
    "integrability.consistency_s": ("integrability.pointwise_consistency",),
    "integrability.symbol_s": ("integrability.symbol_dims",),
    "lift.assemble_s": ("lift.assemble_lift_system",),
    "lift.solve_s": ("lift.solve_jets",),
    "lift.vstar_s": ("lift.assemble_vstar",),
    "synth.feedback_s": ("synth.solve_feedback", "synth.closed_loop_field"),
    "synth.rk4_s": ("synth.simulate_rk4",),
    "synth.decrease_s": ("synth.verify_lyapunov_decrease",),
    "cli.glue_s": (
        "cli.stage_geometry",
        "cli.stage_integrability",
        "integrability.full_check",
        "cli.stage_lift",
        "cli.stage_synthesize",
        "cli.stage_simulate",
    ),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list
    instance: str


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.instance = ""
        self._stack: list[int] = []
        self._deferred: list[Callable[[], None]] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.instance))
        self._stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self._stack.pop()].end = perf_counter()

    @contextmanager
    def root(self, instance: str):
        """Root span of one instance; deferred counting runs after it closes."""
        self.instance = instance
        self.open(ROOT)
        try:
            yield
        finally:
            self.close()
            for job in self._deferred:
                job()
            self._deferred.clear()

    def defer(self, job: Callable[[], None]) -> None:
        """Run ``job`` once the current instance ends, outside every span."""
        self._deferred.append(job)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def _spanned(tracer: Tracer, name: str, fn, on_result=None):
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if on_result is not None:
            on_result(result)
        return result

    return functools.update_wrapper(traced, fn)


def _counted(counts: Counter, key: str, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return functools.update_wrapper(counted, fn)


def _timed(tracer: Tracer, key: str, fn):
    def timed(*args, **kwargs):
        tracer.counts[key] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.seconds[key] += perf_counter() - start

    return functools.update_wrapper(timed, fn)


def _result_hooks(tracer: Tracer) -> dict[str, Callable]:
    """Counters read from what a spanned function returns."""
    counts = tracer.counts

    def assembled(system) -> None:
        counts["lift.unknowns"] += len(system.unknowns)
        counts["lift.equations"] += len(system.rows)
        counts["lift.cells"] += len(system.rows) * len(system.unknowns)
        # Counting nonzeros scans every cell, so it waits until the spans close.
        tracer.defer(lambda: counts.update({"lift.nonzeros": sum(1 for row in system.rows for v in row if v != 0)}))

    def solved(solution) -> None:
        counts["lift.free"] += len(solution.free_seeded)

    def feedback(solution) -> None:
        counts["synth.symbolic_feedback"] += solution.symbolic is not None

    def trajectory(record) -> None:
        counts["synth.rk4_steps"] += len(record.times) - 1

    return {
        "lift.assemble_lift_system": assembled,
        "lift.solve_jets": solved,
        "synth.solve_feedback": feedback,
        "synth.simulate_rk4": trajectory,
    }


@contextmanager
def instrument(tracer: Tracer):
    """Record spans and counters while the block runs; restore everything after."""
    from liftlyap import cli, geometry, integrability, lift, numutil, poly, synth

    modules = {"cli": cli, "geometry": geometry, "integrability": integrability, "lift": lift, "synth": synth}
    hooks = _result_hooks(tracer)
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        for module_name, functions in SPANNED.items():
            module = modules[module_name]
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                patch(module, fn_name, _spanned(tracer, name, getattr(module, fn_name), hooks.get(name)))
        counts = tracer.counts
        for method, key in (
            ("__mul__", "poly.mul_calls"),
            ("__add__", "poly.add_calls"),
            ("eval_float", "poly.eval_float_calls"),
            ("eval", "poly.eval_calls"),
        ):
            patch(poly.Poly, method, _counted(counts, key, poly.Poly.__dict__[method]))
        for module in (geometry, synth):
            patch(module, "poly_det", _counted(counts, "poly.det_calls", module.poly_det))
        for module in (numutil, geometry, integrability):
            patch(module, "numeric_rank", _timed(tracer, "numutil.rank", module.numeric_rank))
        identity = integrability.quasi_regular_identity

        def counted_identity(*args, **kwargs):
            counts["integrability.symbol_identity_calls"] += 1
            hit = identity(*args, **kwargs)
            counts["integrability.symbol_identity_hits"] += bool(hit)
            return hit

        patch(integrability, "quasi_regular_identity", functools.update_wrapper(counted_identity, identity))
        patch(synth.ClosedLoop, "__call__", _counted(counts, "synth.field_evals", synth.ClosedLoop.__call__))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_wall(tracer: Tracer) -> float:
    """Total duration of the instance root spans."""
    return sum(s.end - s.start for s in tracer.spans if s.name == ROOT)


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Per-layer metrics of a traced run, each as {"value": ..., "unit": ...}."""
    spans = tracer.spans
    by_name: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        by_name[span.name] += own
    wall = traced_wall(tracer)
    c, secs = tracer.counts, tracer.seconds
    values = {metric: (sum(by_name[n] for n in names), "s") for metric, names in SELF_TIME_METRICS.items()}
    rank = c["lift.unknowns"] - c["lift.free"]
    values.update(
        {
            "geometry.grid_points": (c["geometry.grid_points"], "count"),
            "integrability.symbol_identity_calls": (c["integrability.symbol_identity_calls"], "count"),
            "integrability.symbol_hit_ratio": (
                _ratio(c["integrability.symbol_identity_hits"], c["integrability.symbol_identity_calls"]),
                "ratio",
            ),
            "lift.unknowns": (c["lift.unknowns"], "count"),
            "lift.equations": (c["lift.equations"], "count"),
            "lift.nonzeros": (c["lift.nonzeros"], "count"),
            "lift.fill_ratio": (_ratio(c["lift.nonzeros"], c["lift.cells"]), "ratio"),
            "lift.pivot_ratio": (_ratio(rank, c["lift.equations"]), "ratio"),
            "synth.symbolic_feedback": (c["synth.symbolic_feedback"], "count"),
            "synth.rk4_steps": (c["synth.rk4_steps"], "count"),
            "synth.field_evals": (c["synth.field_evals"], "count"),
            "synth.rk4_steps_per_s": (_ratio(c["synth.rk4_steps"], by_name["synth.simulate_rk4"]), "steps/s"),
            "poly.mul_calls": (c["poly.mul_calls"], "count"),
            "poly.add_calls": (c["poly.add_calls"], "count"),
            "poly.eval_float_calls": (c["poly.eval_float_calls"], "count"),
            "poly.eval_calls": (c["poly.eval_calls"], "count"),
            "poly.det_calls": (c["poly.det_calls"], "count"),
            "numutil.rank_calls": (c["numutil.rank"], "count"),
            "numutil.rank_s": (secs["numutil.rank"], "s"),
            "trace.uncovered_frac": (_ratio(by_name[ROOT], wall), "ratio"),
        }
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
