"""Problem file loading, pipeline orchestration, and report emission.

Problem files are JSON with polynomial strings over declared variable
names.  Reports are JSON on stdout (or --out) with a one-line human
summary on stderr.  Exit codes: 0 success/verified, 1 usage or input
error, 2 not liftable, 3 lifted but a validation stage failed.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from . import geometry, integrability, lift, synth, sysmodel
from .geometry import EhresmannConnection, Frame, Lattice, ProjectionPair
from .integrability import ResidualSystem
from .parsing import PolyParseError, parse_poly
from .poly import DEGREE_CAP, DegreeCapError, Poly, PolyMatrix, format_poly, grad
from .sysmodel import (
    CLFValidationError,
    ControlAffineSystem,
    EquilibriumError,
    QuotientCLF,
    QuotientMorphism,
    QuotientSystem,
    TargetData,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_LIFTABLE = 2
EXIT_VALIDATION = 3


OPTION_KEYS = {"order", "grid", "h", "horizon", "x0"}


class SpecError(ValueError):
    """Problem file is malformed, inconsistent, or violates a premise."""


@dataclass
class Options:
    order: int = 6
    grid_per_axis: int = 3
    h: float = 0.01
    horizon: float = 10.0
    x0: list[float] | None = None


@dataclass
class Problem:
    name: str
    state_names: list[str]
    input_names: list[str]
    quotient_state_names: list[str]
    quotient_input_names: list[str]
    sys: ControlAffineSystem
    qsys: QuotientSystem
    morph: QuotientMorphism
    conn: EhresmannConnection
    vtilde: Poly
    alpha: tuple[Poly, ...]
    user_d: list[list[Poly]] | None
    user_p_d: PolyMatrix | None
    options: Options


def fixture_path(name: str):
    """Path-like handle to a bundled example problem file (e.g. "ex_ps")."""
    return resources.files("liftlyap").joinpath("fixtures", f"{name}.json")


def load_spec(path) -> dict:
    source = path if hasattr(path, "read_text") else Path(path)
    try:
        raw = json.loads(source.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SpecError(f"not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecError("not valid JSON: nested too deeply") from exc
    if not isinstance(raw, dict):
        raise SpecError("top level must be a JSON object")
    return raw


def _require(raw: dict, key: str, kind=list):
    if key not in raw:
        raise SpecError(f"missing required key {key!r}")
    value = raw[key]
    if not isinstance(value, kind):
        raise SpecError(f"key {key!r} must be a {kind.__name__}")
    return value


def _parse_field(text, variables, where: str) -> Poly:
    if not isinstance(text, str):
        raise SpecError(f"{where}: expected a polynomial string")
    try:
        poly = parse_poly(text, variables)
        for coeff in poly.terms.values():
            float(coeff)  # every grid check evaluates in floats
    except (PolyParseError, DegreeCapError) as exc:
        raise SpecError(f"{where}: {exc}") from exc
    except OverflowError as exc:
        raise SpecError(f"{where}: a coefficient is beyond the float range") from exc
    return poly


def _parse_vector(items, variables, length: int, where: str) -> tuple[Poly, ...]:
    if not isinstance(items, list) or len(items) != length:
        raise SpecError(f"{where}: expected a list of {length} polynomial strings")
    return tuple(_parse_field(t, variables, f"{where}[{i}]") for i, t in enumerate(items))


def build_problem(raw: dict, overrides: dict | None = None) -> Problem:
    """Parse and cross-validate a loaded problem file."""
    name = raw.get("name", "unnamed")
    if not isinstance(name, str):
        raise SpecError("key 'name' must be a string")
    states = _require(raw, "states")
    inputs = _require(raw, "inputs")
    qstates = _require(raw, "quotient_states")
    qinputs = raw.get("quotient_inputs", [])
    if not isinstance(qinputs, list):
        raise SpecError("key 'quotient_inputs' must be a list")
    m, r, n, s = len(states), len(inputs), len(qstates), len(qinputs)
    all_names = states + inputs + qstates + qinputs
    if not all(isinstance(v, str) for v in all_names):
        raise SpecError("state/input names must be strings")
    if len(set(all_names)) != len(all_names):
        raise SpecError("state/input names must be pairwise distinct")
    if m < 1 or r < 1 or n < 1:
        raise SpecError("need at least one state, one input, and one quotient state")
    if not n < m:
        raise SpecError(f"quotient must be strictly smaller than the system (n={n}, m={m})")

    f0 = _parse_vector(_require(raw, "f0"), states, m, "f0")
    f_raw = _require(raw, "f")
    if len(f_raw) != r:
        raise SpecError(f"'f' must list {r} control fields")
    f_cols = tuple(_parse_vector(col, states, m, f"f[{j}]") for j, col in enumerate(f_raw))
    g0 = _parse_vector(_require(raw, "g0"), qstates, n, "g0")
    g_raw = raw.get("g", [])
    if not isinstance(g_raw, list) or len(g_raw) != s:
        raise SpecError(f"'g' must list {s} quotient control fields")
    g_cols = tuple(_parse_vector(col, qstates, n, f"g[{k}]") for k, col in enumerate(g_raw))
    varphi = _parse_vector(raw.get("varphi", []), states, s, "varphi")
    beta_raw = raw.get("beta", [])
    if not isinstance(beta_raw, list) or len(beta_raw) != s:
        raise SpecError(f"'beta' must have {s} rows")
    beta = tuple(_parse_vector(row, states, r, f"beta[{k}]") for k, row in enumerate(beta_raw))
    gamma_raw = _require(raw, "gamma")
    if len(gamma_raw) != m - n:
        raise SpecError(f"'gamma' must have {m - n} rows (one per fibre coordinate)")
    gamma = tuple(_parse_vector(row, states, n, f"gamma[{p}]") for p, row in enumerate(gamma_raw))
    vtilde = _parse_field(_require(raw, "vtilde", str), qstates, "vtilde")
    alpha = _parse_vector(_require(raw, "alpha"), qstates, s, "alpha")

    user_d = None
    if "d" in raw:
        d_raw = raw["d"]
        if not isinstance(d_raw, list) or len(d_raw) != m - r:
            raise SpecError(f"'d' must list {m - r} complement columns")
        user_d = [list(_parse_vector(col, states, m, f"d[{j}]")) for j, col in enumerate(d_raw)]
    user_p_d = None
    if "p_d" in raw:
        if user_d is None:
            raise SpecError("'p_d' requires the matching 'd' frame")
        pd_raw = raw["p_d"]
        if not isinstance(pd_raw, list) or len(pd_raw) != m - r:
            raise SpecError(f"'p_d' must have {m - r} rows")
        user_p_d = PolyMatrix(
            [list(_parse_vector(row, states, m, f"p_d[{a}]")) for a, row in enumerate(pd_raw)],
            cols=m,
            nvars=m,
        )

    opt_raw = raw.get("options", {})
    if not isinstance(opt_raw, dict):
        raise SpecError("'options' must be an object")
    unknown = sorted(set(opt_raw) - OPTION_KEYS)
    if unknown:
        raise SpecError(f"'options': unknown key {unknown[0]!r} (allowed: {', '.join(sorted(OPTION_KEYS))})")
    for key in ("order", "grid"):
        if isinstance(opt_raw.get(key), float) and not opt_raw[key].is_integer():
            raise SpecError(f"'options': {key} must be a whole number, not {opt_raw[key]}")
    try:
        options = Options(
            order=int(opt_raw.get("order", 6)),
            grid_per_axis=int(opt_raw.get("grid", 3)),
            h=float(opt_raw.get("h", 0.01)),
            horizon=float(opt_raw.get("horizon", 10.0)),
            x0=[float(v) for v in opt_raw["x0"]] if "x0" in opt_raw else None,
        )
    except (TypeError, ValueError) as exc:
        raise SpecError(f"'options': {exc}") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(options, key, value)
    if not 2 <= options.order <= DEGREE_CAP:
        raise SpecError(f"order must be between 2 and {DEGREE_CAP}")
    try:
        geometry.validate_grid(m, options.grid_per_axis)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    if not (math.isfinite(options.h) and math.isfinite(options.horizon)):
        raise SpecError("h and horizon must be finite")
    if not options.h > 0:
        raise SpecError("h must be positive")
    if not options.horizon >= options.h:
        raise SpecError("horizon must be at least h")
    if options.horizon / options.h > synth.MAX_STEPS:
        raise SpecError(f"horizon / h must not exceed {synth.MAX_STEPS} steps")
    if options.x0 is not None:
        if len(options.x0) != m:
            raise SpecError(f"x0 must have {m} entries")
        if not all(math.isfinite(v) for v in options.x0):
            raise SpecError("x0 entries must be finite")
        if math.hypot(*options.x0) > synth.DIVERGENCE_GUARD:
            raise SpecError(f"|x0| must not exceed the divergence guard {synth.DIVERGENCE_GUARD:.0e}")

    try:
        sys_ = ControlAffineSystem(m, r, f0, f_cols)
        qsys = QuotientSystem(n, s, g0, g_cols)
        morph = QuotientMorphism(n, varphi, beta)
        conn = EhresmannConnection(m, n, gamma)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    return Problem(
        name=name,
        state_names=list(states),
        input_names=list(inputs),
        quotient_state_names=list(qstates),
        quotient_input_names=list(qinputs),
        sys=sys_,
        qsys=qsys,
        morph=morph,
        conn=conn,
        vtilde=vtilde,
        alpha=alpha,
        user_d=user_d,
        user_p_d=user_p_d,
        options=options,
    )


# -- pipeline stages -----------------------------------------------------------


@dataclass
class StageFailure(Exception):
    """A stage ended the run: its report section, the reasons and the exit code."""

    section: dict
    reasons: list[str]
    code: int


@dataclass
class RunState:
    """One pass of the pipeline: the problem, its check grids and what the stages made.

    The grids are decided here and nowhere else; every grid check takes its
    grid from the run state.
    """

    problem: Problem
    traj_dir: str | None = None
    clf: QuotientCLF | None = None
    td: TargetData | None = None
    rs: ResidualSystem | None = None
    jet: lift.JetSolution | None = None
    vstar: Poly | None = None
    loop: synth.ClosedLoop | None = None

    @cached_property
    def grid(self) -> Lattice:
        """The m-dimensional check grid, built on first use and kept for the run."""
        return geometry.default_grid(self.problem.sys.m, self.problem.options.grid_per_axis)

    @cached_property
    def quotient_grid(self) -> Lattice:
        """The n-dimensional grid on which the quotient decrease W must be negative."""
        return geometry.default_grid(self.problem.qsys.n, self.problem.options.grid_per_axis)


def stage_quotient(state: RunState) -> dict:
    problem = state.problem
    residuals = sysmodel.verify_quotient(problem.sys, problem.qsys, problem.morph)
    witness = sysmodel.quotient_witness(residuals)
    if witness is not None:
        q, monomial, coeff = witness
        raise SpecError(
            f"supplied quotient is not a quotient: residual for y{q} has term "
            f"{coeff} * (x,u)^{monomial}"
        )
    try:
        state.clf = sysmodel.make_quotient_clf(problem.qsys, problem.vtilde, problem.alpha, state.quotient_grid)
    except CLFValidationError as exc:
        raise SpecError(f"quotient Lyapunov data rejected: {exc}") from exc
    return {
        "residuals_zero": True,
        "witness": None,
        "w": format_poly(state.clf.w, problem.quotient_state_names),
    }


def stage_geometry(state: RunState) -> ProjectionPair:
    problem = state.problem
    c = geometry.control_distribution(problem.sys, state.grid)
    d = geometry.complement_frame(c, problem.user_d, state.grid)
    if problem.user_p_d is not None:
        return projections_from_matrix(c, d, problem.user_p_d, problem.conn)
    return geometry.build_projections(c, d, problem.conn)


def projections_from_matrix(
    c: Frame, d: Frame, p_d: PolyMatrix, conn: EhresmannConnection
) -> ProjectionPair:
    """Wrap a user-supplied P_D after checking its defining identities exactly."""
    m = c.dim
    if p_d.rows != m - c.rank or p_d.cols != m:
        raise SpecError(f"p_d must be {m - c.rank}x{m}")
    on_c = p_d @ c.as_matrix()
    for j in range(on_c.cols):
        for a in range(on_c.rows):
            if not on_c.entry(a, j).is_zero():
                raise SpecError(f"p_d row {a + 1} does not annihilate control column {j + 1}")
    on_d = p_d @ d.as_matrix()
    for j in range(on_d.cols):
        for a in range(on_d.rows):
            if on_d.entry(a, j) != Poly.const(m, 1 if a == j else 0):
                raise SpecError(f"p_d is not the identity on complement column {j + 1}")
    return ProjectionPair(c, d, p_d, geometry.build_p_vm(conn), Poly.const(m, 1))


def stage_target(state: RunState) -> TargetData:
    problem = state.problem
    try:
        return sysmodel.build_target_x(problem.sys, problem.qsys, problem.conn, state.clf)
    except EquilibriumError as exc:
        raise SpecError(str(exc)) from exc


def stage_integrability(state: RunState) -> dict:
    pair = stage_geometry(state)
    state.td = stage_target(state)
    state.rs = ResidualSystem(pair, state.td.x_field)
    report = integrability.full_check(state.rs, state.problem.conn, state.grid.points)
    names = state.problem.state_names
    section = {
        "flat": report.flat,
        "flat_offenders": {
            f"F[{l}]({q1},{q2})": format_poly(poly, names)
            for (l, q1, q2), poly in sorted(report.flat_offenders.items())
        },
        "condition_a": report.cond_a,
        "condition_a_offenders": {
            f"A[{i1}]({a1},{a2})": format_poly(poly, names)
            for (a1, a2, i1), poly in sorted(report.cond_a_offenders.items())
        },
        "condition_b": report.cond_b,
        "condition_b_offenders": {
            f"B({a1},{a2})": format_poly(poly, names)
            for (a1, a2), poly in sorted(report.cond_b_offenders.items())
        },
        "consistent": report.consistency.consistent,
        "worst_gap": float(report.consistency.worst_gap),
        "worst_point": list(report.consistency.worst_point) if report.consistency.worst_point else None,
        "failures": [
            {"point": list(point), "gap": float(gap)}
            for point, gap in report.consistency.failures[:10]
        ],
        "symbol": {
            "dim_g1": report.symbol.dim_g1,
            "dim_g2": report.symbol.dim_g2,
            "quasi_regular": report.symbol.quasi_regular,
            "permutation": list(report.symbol.permutation) if report.symbol.permutation else None,
        },
        "verdict": report.verdict,
        "reasons": report.reasons,
    }
    if not report.liftable:
        raise StageFailure(section, report.reasons, EXIT_NOT_LIFTABLE)
    return section


def stage_lift(state: RunState) -> dict:
    problem, rs = state.problem, state.rs
    system = lift.assemble_lift_system(rs, problem.options.order)
    try:
        jet = lift.solve_jets(system, rs, fibre_start=problem.qsys.n)
    except lift.JetInfeasibleError as exc:
        section = {"infeasible": True, "witness": exc.witness}
        raise StageFailure(section, ["lift_infeasible"], EXIT_NOT_LIFTABLE) from exc
    vstar, diag = lift.assemble_vstar(state.td.pullback_vtilde, jet)
    state.jet, state.vstar = jet, vstar
    names = problem.state_names
    section = {
        "order": jet.order,
        "coefficients": {str(mi): str(c) for mi, c in sorted(jet.coeffs.items())},
        "free_seeded": [str(mi) for mi in sorted(jet.free_seeded)],
        "v": format_poly(jet.polynomial(problem.sys.m), names),
        "vstar": format_poly(vstar, names),
        "hessian_eigenvalues": [float(e) for e in diag.hessian_eigenvalues],
        "sphere_min": float(diag.sphere_min),
        "definite": diag.ok,
        "witness": list(diag.witness) if diag.witness else None,
    }
    if not diag.ok:
        raise StageFailure(section, ["definiteness"], EXIT_NOT_LIFTABLE)
    return section


def stage_synthesize(state: RunState) -> dict:
    problem = state.problem
    m = problem.sys.m
    dv = grad(state.jet.polynomial(m))
    rhs = [state.td.x_field[i] - dv[i] for i in range(m)]
    try:
        feedback = synth.solve_feedback(problem.sys, rhs, state.grid.points)
    except synth.FeedbackResidualError as exc:
        raise StageFailure({"error": str(exc)}, ["feedback"], EXIT_VALIDATION) from exc
    loop = state.loop = synth.closed_loop_field(problem.sys, feedback)
    names = problem.state_names
    return {
        "symbolic": [format_poly(u, names) for u in feedback.symbolic] if feedback.symbolic else None,
        "residual_norm": float(feedback.residual_norm),
        "closed_loop": [format_poly(p, names) for p in loop.poly] if loop.poly else None,
    }


def stage_simulate(state: RunState) -> dict:
    problem, opts, loop = state.problem, state.problem.options, state.loop
    x0 = opts.x0 if opts.x0 is not None else [1.0] * problem.sys.m
    try:
        traj = synth.simulate_rk4(loop, x0, opts.h, opts.horizon, state.vstar)
    except synth.DivergenceError as exc:
        raise StageFailure({"error": str(exc)}, ["simulation"], EXIT_VALIDATION) from exc
    decrease = synth.verify_lyapunov_decrease(traj, state.vstar, loop, state.grid)
    csv_path = None
    if state.traj_dir is not None:
        out_dir = Path(state.traj_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # the name may hold "/" or "..": keep [A-Za-z0-9._-] so the file lands in out_dir
        stem = re.sub(r"[^A-Za-z0-9._-]", "_", problem.name).lstrip(".")
        csv_path = str(out_dir / f"{stem}_trajectory_0.csv")
        synth.write_trajectory_csv(traj, loop.feedback.pointwise, csv_path, problem.state_names, problem.input_names)
    section = {
        "x0": [float(v) for v in x0],
        "h": opts.h,
        "horizon": opts.horizon,
        "final_norm": float(np.linalg.norm(traj.states[-1])),
        "final_vstar": float(traj.vstar_values[-1]),
        "vstar_monotone": decrease.monotone,
        "analytic_negative": decrease.analytic_negative,
        "monotone_violation": (
            dict(zip(("t", "vstar", "next_vstar"), decrease.first_violation)) if decrease.first_violation else None
        ),
        "analytic_witness": list(decrease.analytic_witness) if decrease.analytic_witness else None,
        "csv": csv_path,
    }
    if not decrease.passed:
        raise StageFailure(section, ["decrease"], EXIT_VALIDATION)
    return section


# -- orchestration -------------------------------------------------------------

# The pipeline in order, one row per command: the command, the report key its
# stage fills, the verdict when the run stops after it, and the name of its
# stage function.  run() looks each stage up by name when it calls it, so a
# stage replaced on this module (a tracer's wrapper, a test's stub) is the one
# that runs.
STAGES = (
    ("validate", None, "VALID", None),
    ("quotient", "quotient", "QUOTIENT_VERIFIED", "stage_quotient"),
    ("integrability", "integrability", "LIFTABLE", "stage_integrability"),
    ("lift", "lift", "LIFTED", "stage_lift"),
    ("synthesize", "feedback", "SYNTHESIZED", "stage_synthesize"),
    ("simulate", "simulation", "LIFTABLE_AND_VERIFIED", "stage_simulate"),
)
COMMANDS = tuple(row[0] for row in STAGES) + ("report",)  # report runs the whole table, as simulate

# Prefix of the verdict of a run a stage ended, by exit code.
FAILED_VERDICTS = {EXIT_NOT_LIFTABLE: "NOT_LIFTABLE", EXIT_VALIDATION: "LIFTED_BUT_VALIDATION_FAILED"}


def run(command: str, problem: Problem, traj_dir: str | None = None) -> tuple[dict, int]:
    """Execute the pipeline up to the requested command."""
    stop = [row[0] for row in STAGES].index("simulate" if command == "report" else command)
    report: dict = {
        "spec": {
            "name": problem.name,
            "m": problem.sys.m,
            "r": problem.sys.r,
            "n": problem.qsys.n,
            "s": problem.qsys.s,
            "states": problem.state_names,
            "inputs": problem.input_names,
            "quotient_states": problem.quotient_state_names,
            "quotient_inputs": problem.quotient_input_names,
        },
        "options": {
            "order": problem.options.order,
            "grid": problem.options.grid_per_axis,
            "h": problem.options.h,
            "horizon": problem.options.horizon,
        },
        **{key: None for _, key, _, _ in STAGES if key is not None},
        "verdict": None,
        "reasons": [],
    }
    state = RunState(problem, traj_dir)
    for _, key, _, stage in STAGES[: stop + 1]:
        if stage is None:
            continue
        try:
            report[key] = globals()[stage](state)
        except StageFailure as failure:
            report[key] = failure.section
            report["verdict"] = f"{FAILED_VERDICTS[failure.code]}({','.join(failure.reasons)})"
            report["reasons"] = failure.reasons
            return report, failure.code
    report["verdict"] = STAGES[stop][2]
    return report, EXIT_OK


# -- command line --------------------------------------------------------------


class UsageError(ValueError):
    """The command line itself is malformed (unknown command, bad flag value)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, and 2 is EXIT_NOT_LIFTABLE here
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liftlyap",
        description="Decide whether a quotient Lyapunov function lifts to the full system, "
        "construct the lift, and verify the closed loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--spec", required=True, help="problem file (JSON)")
        cmd.add_argument("--order", type=int, default=None, help="Taylor order for the lift")
        cmd.add_argument("--grid", type=int, default=None, help="check-grid points per axis")
        cmd.add_argument("--h", type=float, default=None, help="simulation step size")
        cmd.add_argument("--horizon", type=float, default=None, help="simulation horizon")
        cmd.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        cmd.add_argument("--trajectories", default=None, help="directory for trajectory CSV export")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        overrides = {
            "order": args.order,
            "grid_per_axis": args.grid,
            "h": args.h,
            "horizon": args.horizon,
        }
        problem = build_problem(load_spec(args.spec), overrides)
        report, code = run(args.command, problem, args.trajectories)
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
    except (UsageError, SpecError, OSError, DegreeCapError, geometry.FrameRankError, geometry.ComplementError) as exc:
        print(f"[liftlyap] error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OverflowError as exc:  # a derived value, e.g. a product of large coefficients
        print(f"[liftlyap] error: a value is beyond the float range ({exc})", file=sys.stderr)
        return EXIT_INPUT
    summary = f"[liftlyap] {args.command} {problem.name}: {report['verdict']}"
    if report["reasons"]:
        summary += f" (reasons: {', '.join(report['reasons'])})"
    print(summary, file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
