"""Shared builders for the bundled example problems, the test check grid, and
the hypothesis profile."""

import sys
from pathlib import Path

from hypothesis import settings

from liftlyap import cli, geometry
from liftlyap.geometry import EhresmannConnection
from liftlyap.integrability import ResidualSystem
from liftlyap.poly import Poly, grad
from liftlyap.synth import ClosedLoop, FeedbackSolution

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # liftbench sits beside src/

# Example run times vary with machine load, so no example has a deadline.
settings.register_profile("liftlyap", deadline=None)
settings.load_profile("liftlyap")

GRID_PER_AXIS = cli.Options.grid_per_axis  # the problem-file default


def check_grid(m: int) -> geometry.Lattice:
    """The check lattice a run with default options uses in dimension m."""
    return geometry.default_grid(m, GRID_PER_AXIS)


def check_points(m: int):
    """:func:`check_grid`'s (P, m) float points, which the float grid checks take."""
    return check_grid(m).points


def flat_connection(m: int, n: int) -> EhresmannConnection:
    """The connection with every gamma entry zero."""
    zero = Poly.zero(m)
    return EhresmannConnection(m, n, [[zero] * n for _ in range(m - n)])


def target_field(sys, td, v: Poly) -> list[Poly]:
    """Closed-loop target dynamics: X + f0 - gradient of the solved V."""
    dv = grad(v)
    return [td.x_field[i] + sys.f0[i] - dv[i] for i in range(sys.m)]


def build_pipeline(name: str, **spec_overrides):
    """Load a bundled problem and run it up to the residual system.

    Keyword arguments replace top-level keys of the problem file.
    Returns what :func:`pipeline_of` returns.
    """
    return pipeline_of({**cli.load_spec(cli.fixture_path(name)), **spec_overrides})


def pipeline_of(raw: dict):
    """Run a problem spec up to the residual system.

    Returns (problem, clf, pair, target_data, residual_system).
    """
    state = cli.RunState(cli.build_problem(raw))
    cli.stage_quotient(state)
    pair = cli.stage_geometry(state)
    td = cli.stage_target(state)
    rs = ResidualSystem(pair, td.x_field)
    return state.problem, state.clf, pair, td, rs


def polynomial_loop(polys, den=None) -> ClosedLoop:
    """The closed loop x' = polys(x) / den, of a zero feedback with den 1 when den is None."""
    m = len(polys)
    zero = (Poly.zero(m),)
    feedback = FeedbackSolution(zero, zero, Poly.const(m, 1)) if den is None else FeedbackSolution(None, zero, den)
    return ClosedLoop(feedback, tuple(polys))
