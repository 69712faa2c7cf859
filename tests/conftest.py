"""Shared builders for the bundled example problems, and the hypothesis profile."""

from hypothesis import settings

from liftlyap import cli
from liftlyap.integrability import ResidualSystem

# Example run times vary with machine load, so no example has a deadline.
settings.register_profile("liftlyap", deadline=None)
settings.load_profile("liftlyap")


def build_pipeline(name: str, **spec_overrides):
    """Load a bundled problem and run it up to the residual system.

    Keyword arguments replace top-level keys of the problem file.
    Returns (problem, clf, pair, target_data, residual_system).
    """
    raw = cli.load_spec(cli.fixture_path(name))
    raw.update(spec_overrides)
    state = cli.RunState(cli.build_problem(raw))
    cli.stage_quotient(state)
    pair = cli.stage_geometry(state)
    td = cli.stage_target(state)
    rs = ResidualSystem(pair, td.x_field)
    return state.problem, state.clf, pair, td, rs
