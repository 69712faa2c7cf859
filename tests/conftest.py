"""Shared builders for the bundled example problems."""

from liftlyap import cli
from liftlyap.integrability import ResidualSystem


def build_pipeline(name: str, **spec_overrides):
    """Load a bundled problem and run it up to the residual system.

    Keyword arguments replace top-level keys of the problem file.
    Returns (problem, clf, pair, target_data, residual_system).
    """
    raw = cli.load_spec(cli.fixture_path(name))
    raw.update(spec_overrides)
    problem = cli.build_problem(raw)
    _, clf = cli.stage_quotient(problem)
    pair = cli.stage_geometry(problem)
    td = cli.stage_target(problem, clf)
    rs = ResidualSystem(pair, td.x_field)
    return problem, clf, pair, td, rs
