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
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from . import geometry, integrability, lift, synth, sysmodel
from .geometry import EhresmannConnection, Frame, ProjectionPair
from .integrability import IntegrabilityReport, ResidualSystem
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

COMMANDS = ("validate", "quotient", "integrability", "lift", "synthesize", "simulate", "report")

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

    @property
    def grid(self):
        return geometry.default_grid(self.sys.m, self.options.grid_per_axis)


def fixture_path(name: str):
    """Path-like handle to a bundled example problem file (e.g. "ex_ps")."""
    return resources.files("liftlyap").joinpath("fixtures", f"{name}.json")


def load_spec(path) -> dict:
    if hasattr(path, "read_text") and not isinstance(path, (str, Path)):
        text = path.read_text(encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"not valid JSON: {exc}") from exc
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
        return parse_poly(text, variables)
    except (PolyParseError, DegreeCapError) as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _parse_vector(items, variables, length: int, where: str) -> tuple[Poly, ...]:
    if not isinstance(items, list) or len(items) != length:
        raise SpecError(f"{where}: expected a list of {length} polynomial strings")
    return tuple(_parse_field(t, variables, f"{where}[{i}]") for i, t in enumerate(items))


def build_problem(raw: dict, overrides: dict | None = None) -> Problem:
    """Parse and cross-validate a loaded problem file."""
    name = raw.get("name", "unnamed")
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
    if len(g_raw) != s:
        raise SpecError(f"'g' must list {s} quotient control fields")
    g_cols = tuple(_parse_vector(col, qstates, n, f"g[{k}]") for k, col in enumerate(g_raw))
    varphi = _parse_vector(raw.get("varphi", []), states, s, "varphi")
    beta_raw = raw.get("beta", [])
    if len(beta_raw) != s:
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
    if options.grid_per_axis < 2:
        raise SpecError("grid must be at least 2 points per axis")
    if not options.h > 0:
        raise SpecError("h must be positive")
    if not options.horizon >= options.h:
        raise SpecError("horizon must be at least h")
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


def stage_quotient(problem: Problem) -> tuple[dict, QuotientCLF]:
    residuals = sysmodel.verify_quotient(problem.sys, problem.qsys, problem.morph)
    witness = sysmodel.quotient_witness(residuals)
    if witness is not None:
        q, monomial, coeff = witness
        raise SpecError(
            f"supplied quotient is not a quotient: residual for y{q} has term "
            f"{coeff} * (x,u)^{monomial}"
        )
    qgrid = geometry.default_grid(problem.qsys.n, problem.options.grid_per_axis)
    try:
        clf = sysmodel.make_quotient_clf(problem.qsys, problem.vtilde, problem.alpha, qgrid)
    except CLFValidationError as exc:
        raise SpecError(f"quotient Lyapunov data rejected: {exc}") from exc
    section = {
        "residuals_zero": True,
        "witness": None,
        "w": format_poly(clf.w, problem.quotient_state_names),
    }
    return section, clf


def stage_geometry(problem: Problem) -> ProjectionPair:
    grid = problem.grid
    c = geometry.control_distribution(problem.sys, grid)
    d = geometry.complement_frame(c, problem.user_d, grid)
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


def stage_target(problem: Problem, clf: QuotientCLF) -> TargetData:
    try:
        return sysmodel.build_target_x(problem.sys, problem.qsys, problem.conn, clf)
    except EquilibriumError as exc:
        raise SpecError(str(exc)) from exc


def stage_integrability(problem: Problem, rs: ResidualSystem) -> tuple[dict, IntegrabilityReport]:
    report = integrability.full_check(rs, problem.conn, problem.grid)
    names = problem.state_names
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
    return section, report


def stage_lift(problem: Problem, rs: ResidualSystem, td: TargetData):
    system = lift.assemble_lift_system(rs, problem.options.order)
    jet = lift.solve_jets(system, rs, fibre_start=problem.qsys.n)
    vstar, diag = lift.assemble_vstar(td.pullback_vtilde, jet)
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
    return section, jet, vstar, diag


def stage_synthesize(problem: Problem, td: TargetData, jet: lift.JetSolution):
    m = problem.sys.m
    v = jet.polynomial(m)
    dv = grad(v)
    rhs = [td.x_field[i] - dv[i] for i in range(m)]
    feedback = synth.solve_feedback(problem.sys, rhs, problem.grid)
    loop = synth.closed_loop_field(problem.sys, feedback)
    names = problem.state_names
    section = {
        "symbolic": [format_poly(u, names) for u in feedback.symbolic] if feedback.symbolic else None,
        "residual_norm": float(feedback.residual_norm),
        "closed_loop": [format_poly(p, names) for p in loop.poly] if loop.poly else None,
    }
    return section, feedback, loop


def stage_simulate(
    problem: Problem,
    loop: synth.ClosedLoop,
    vstar: Poly,
    feedback: synth.FeedbackSolution,
    traj_dir: str | None,
):
    opts = problem.options
    x0 = opts.x0 if opts.x0 is not None else [1.0] * problem.sys.m
    traj = synth.simulate_rk4(loop, x0, opts.h, opts.horizon, vstar, feedback.pointwise)
    decrease = synth.verify_lyapunov_decrease(traj, vstar, loop, problem.grid)
    csv_path = None
    if traj_dir is not None:
        out_dir = Path(traj_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = str(out_dir / f"{problem.name}_trajectory_0.csv")
        synth.write_trajectory_csv(traj, csv_path, problem.state_names, problem.input_names)
    section = {
        "x0": [float(v) for v in x0],
        "h": opts.h,
        "horizon": opts.horizon,
        "final_norm": float(np.linalg.norm(traj.states[-1])),
        "final_vstar": float(traj.vstar_values[-1]),
        "vstar_monotone": decrease.monotone,
        "analytic_negative": decrease.analytic_negative,
        "csv": csv_path,
    }
    return section, decrease


# -- orchestration -------------------------------------------------------------

_STAGE_OF = {
    "validate": 0,
    "quotient": 1,
    "integrability": 2,
    "lift": 3,
    "synthesize": 4,
    "simulate": 5,
    "report": 5,
}


def run(command: str, problem: Problem, traj_dir: str | None = None) -> tuple[dict, int]:
    """Execute the pipeline up to the requested command."""
    last = _STAGE_OF[command]
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
        "quotient": None,
        "integrability": None,
        "lift": None,
        "feedback": None,
        "simulation": None,
        "verdict": None,
        "reasons": [],
    }
    if last == 0:
        report["verdict"] = "VALID"
        return report, EXIT_OK

    section, clf = stage_quotient(problem)
    report["quotient"] = section
    if last == 1:
        report["verdict"] = "QUOTIENT_VERIFIED"
        return report, EXIT_OK

    pair = stage_geometry(problem)
    td = stage_target(problem, clf)
    rs = ResidualSystem(pair, td.x_field)
    section, integ = stage_integrability(problem, rs)
    report["integrability"] = section
    if not integ.liftable:
        report["verdict"] = f"NOT_LIFTABLE({','.join(integ.reasons)})"
        report["reasons"] = integ.reasons
        return report, EXIT_NOT_LIFTABLE
    if last == 2:
        report["verdict"] = "LIFTABLE"
        return report, EXIT_OK

    try:
        section, jet, vstar, diag = stage_lift(problem, rs, td)
    except lift.JetInfeasibleError as exc:
        report["lift"] = {"infeasible": True, "witness": exc.witness}
        report["verdict"] = "NOT_LIFTABLE(lift_infeasible)"
        report["reasons"] = ["lift_infeasible"]
        return report, EXIT_NOT_LIFTABLE
    report["lift"] = section
    if not diag.ok:
        report["verdict"] = "NOT_LIFTABLE(definiteness)"
        report["reasons"] = ["definiteness"]
        return report, EXIT_NOT_LIFTABLE
    if last == 3:
        report["verdict"] = "LIFTED"
        return report, EXIT_OK

    try:
        section, feedback, loop = stage_synthesize(problem, td, jet)
    except synth.FeedbackResidualError as exc:
        report["feedback"] = {"error": str(exc)}
        report["verdict"] = "LIFTED_BUT_VALIDATION_FAILED(feedback)"
        report["reasons"] = ["feedback"]
        return report, EXIT_VALIDATION
    report["feedback"] = section
    if last == 4:
        report["verdict"] = "SYNTHESIZED"
        return report, EXIT_OK

    try:
        section, decrease = stage_simulate(problem, loop, vstar, feedback, traj_dir)
    except synth.DivergenceError as exc:
        report["simulation"] = {"error": str(exc)}
        report["verdict"] = "LIFTED_BUT_VALIDATION_FAILED(simulation)"
        report["reasons"] = ["simulation"]
        return report, EXIT_VALIDATION
    report["simulation"] = section
    if not decrease.passed:
        report["verdict"] = "LIFTED_BUT_VALIDATION_FAILED(decrease)"
        report["reasons"] = ["decrease"]
        return report, EXIT_VALIDATION
    report["verdict"] = "LIFTABLE_AND_VERIFIED"
    return report, EXIT_OK


# -- command line --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    overrides = {
        "order": args.order,
        "grid_per_axis": args.grid,
        "h": args.h,
        "horizon": args.horizon,
    }
    try:
        raw = load_spec(args.spec)
        problem = build_problem(raw, overrides)
        report, code = run(args.command, problem, args.trajectories)
    except (SpecError, OSError, geometry.FrameRankError, geometry.ComplementError) as exc:
        print(f"[liftlyap] error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    summary = f"[liftlyap] {args.command} {problem.name}: {report['verdict']}"
    if report["reasons"]:
        summary += f" (reasons: {', '.join(report['reasons'])})"
    print(summary, file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
