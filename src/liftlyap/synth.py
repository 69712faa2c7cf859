"""Feedback synthesis, closed-loop assembly, simulation, and verification.

The feedback u(x) solves F(x) u = target(x) - f0(x) where F stacks the
control vector fields as columns.  The system is under-determined in
general; the minimum-norm solution is used pointwise, and an exact
polynomial feedback is emitted whenever some square subselection of rows
of F has a constant nonzero determinant and the resulting candidate
satisfies all m equations identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import geometry
from .geometry import GridPoint
from .poly import Poly, PolyMatrix, eval_points, grad, poly_adjugate, poly_det, poly_sum
from .sysmodel import ControlAffineSystem, TargetData

FEEDBACK_RESIDUAL_TOL = 1e-8
DIVERGENCE_GUARD = 1e6


class FeedbackResidualError(RuntimeError):
    """The algebraic feedback equations are not solvable on the grid."""


class DivergenceError(RuntimeError):
    """A simulated trajectory left the divergence guard ball."""


def target_field(sys: ControlAffineSystem, td: TargetData, v: Poly) -> list[Poly]:
    """Closed-loop target dynamics: X + f0 - gradient of the solved V."""
    dv = grad(v)
    return [td.x_field[i] + sys.f0[i] - dv[i] for i in range(sys.m)]


def control_matrix(sys: ControlAffineSystem) -> PolyMatrix:
    """m-by-r matrix with the control vector fields as columns."""
    return geometry.Frame(sys.m, sys.f).as_matrix()


@dataclass
class FeedbackSolution:
    symbolic: tuple[Poly, ...] | None
    pointwise: Callable[[Sequence[float]], np.ndarray]
    residual_norm: float


def solve_feedback(
    sys: ControlAffineSystem,
    rhs: Sequence[Poly],
    grid: Sequence[GridPoint] | None = None,
    tol: float = FEEDBACK_RESIDUAL_TOL,
) -> FeedbackSolution:
    """Solve F(x) u(x) = rhs(x) in least-norm form, symbolically when possible.

    Raises FeedbackResidualError if the pointwise residual exceeds ``tol``
    anywhere on the grid; under a LIFTABLE verdict this is unreachable and
    signals an internal inconsistency.
    """
    if len(rhs) != sys.m:
        raise ValueError("right-hand side must have one component per state")
    f_mat = control_matrix(sys)
    symbolic = _symbolic_feedback(sys, f_mat, rhs)

    def pointwise(x: Sequence[float]) -> np.ndarray:
        if symbolic is not None:
            return np.array([u.eval_float(x) for u in symbolic])
        # one point per RK4 stage, so Poly.eval_float rather than eval_points
        a = np.array([[p.eval_float(x) for p in col] for col in sys.f]).T
        b = np.array([p.eval_float(x) for p in rhs])
        u, *_ = np.linalg.lstsq(a, b, rcond=None)
        return u

    if grid is None:
        grid = geometry.default_grid(sys.m)
    points = geometry.grid_floats(grid)
    a = f_mat.at(points)
    b = eval_points(rhs, points)
    u = eval_points(symbolic, points) if symbolic is not None else np.array([pointwise(x) for x in points])
    r = (a @ u[..., None])[..., 0] - b
    # |r| per point through the BLAS dot np.linalg.norm uses, so it matches bit for bit
    worst = float(np.sqrt((r[..., None, :] @ r[..., None]).max(initial=0.0)))
    if worst > tol:
        raise FeedbackResidualError(
            f"feedback residual {worst:.3e} exceeds {tol:.1e}; target is outside the control range"
        )
    return FeedbackSolution(symbolic, pointwise, worst)


def _symbolic_feedback(
    sys: ControlAffineSystem, f_mat: PolyMatrix, rhs: Sequence[Poly]
) -> tuple[Poly, ...] | None:
    """Exact feedback from a constant-determinant square row subselection."""
    for rows in itertools.combinations(range(sys.m), sys.r):
        sub = PolyMatrix([[f_mat.entry(i, j) for j in range(sys.r)] for i in rows], cols=sys.r, nvars=sys.m)
        det = poly_det(sub)
        if not det.is_constant() or det.is_zero():
            continue
        inv = poly_adjugate(sub).scale(Fraction(1) / det.constant_term)
        candidate = inv.matvec([rhs[i] for i in rows])
        achieved = f_mat.matvec(candidate)
        if all((achieved[i] - rhs[i]).is_zero() for i in range(sys.m)):
            return tuple(candidate)
    return None


@dataclass
class ClosedLoop:
    """Closed-loop vector field f0 + F u; exact polynomials in symbolic mode."""

    sys: ControlAffineSystem
    feedback: FeedbackSolution
    poly: tuple[Poly, ...] | None

    def __call__(self, x: Sequence[float]) -> np.ndarray:
        if self.poly is not None:
            return np.array([p.eval_float(x) for p in self.poly])
        return self.sys.field_at(x, self.feedback.pointwise(x))


def closed_loop_field(sys: ControlAffineSystem, feedback: FeedbackSolution) -> ClosedLoop:
    poly = None
    if feedback.symbolic is not None:
        poly = tuple(
            sys.f0[i] + poly_sum((feedback.symbolic[j] * sys.f[j][i] for j in range(sys.r)), sys.m)
            for i in range(sys.m)
        )
    return ClosedLoop(sys, feedback, poly)


@dataclass
class TrajectoryRecord:
    times: list[float]
    states: list[np.ndarray]
    vstar_values: list[float]
    u_values: list[np.ndarray]
    h: float
    horizon: float


def simulate_rk4(
    field: Callable[[Sequence[float]], np.ndarray],
    x0: Sequence[float],
    h: float,
    horizon: float,
    vstar: Poly | None = None,
    control: Callable[[Sequence[float]], np.ndarray] | None = None,
) -> TrajectoryRecord:
    """Classical fixed-step fourth-order integration with state recording."""
    if h <= 0 or horizon < h:
        raise ValueError("need h > 0 and horizon >= h")
    steps = int(round(horizon / h))
    x = np.array(x0, dtype=float)
    record = TrajectoryRecord([], [], [], [], h, horizon)

    def log(t: float, state: np.ndarray) -> None:
        record.times.append(t)
        record.states.append(state.copy())
        record.vstar_values.append(vstar.eval_float(state) if vstar is not None else float("nan"))
        record.u_values.append(control(state) if control is not None else np.zeros(0))

    def guard(state: np.ndarray, t: float) -> None:
        if not np.linalg.norm(state) <= DIVERGENCE_GUARD:
            raise DivergenceError(f"state norm exceeded {DIVERGENCE_GUARD:.0e} at t={t:.3f}")

    try:
        log(0.0, x)
        for k in range(steps):
            guard(x, k * h)
            k1 = field(x)
            k2 = field(x + 0.5 * h * k1)
            k3 = field(x + 0.5 * h * k2)
            k4 = field(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            log((k + 1) * h, x)
    except OverflowError as exc:
        t = record.times[-1]
        raise DivergenceError(f"float overflow evaluating the field or V* at t={t:.3f}") from exc
    guard(x, horizon)
    return record


@dataclass
class DecreaseReport:
    monotone: bool
    first_violation: tuple[float, float, float] | None  # (t, value, next value)
    analytic_negative: bool
    analytic_witness: tuple[float, ...] | None

    @property
    def passed(self) -> bool:
        return self.monotone and self.analytic_negative


def verify_lyapunov_decrease(
    traj: TrajectoryRecord,
    vstar: Poly,
    field: ClosedLoop | Callable[[Sequence[float]], np.ndarray] | None = None,
    grid: Sequence[GridPoint] | None = None,
    floor: float = 1e-12,
) -> DecreaseReport:
    """Check sampled strict decrease of V* and sign of its derivative.

    The sampled check requires V*(x_{k+1}) < V*(x_k) whenever V*(x_k) is
    above ``floor``.  The derivative check evaluates dV* . field on the
    grid away from the origin: exactly, when the closed loop is available
    as polynomials; numerically otherwise.
    """
    monotone = True
    first_violation = None
    for k in range(len(traj.times) - 1):
        if traj.vstar_values[k] <= floor:
            break
        if not traj.vstar_values[k + 1] < traj.vstar_values[k]:
            monotone = False
            first_violation = (traj.times[k], traj.vstar_values[k], traj.vstar_values[k + 1])
            break
    analytic_negative = True
    analytic_witness = None
    if field is not None:
        m = vstar.nvars
        if grid is None:
            grid = geometry.default_grid(m)
        loop_polys = field.poly if isinstance(field, ClosedLoop) else None
        if loop_polys is not None:
            from .poly import lie_derivative

            derivative = lie_derivative(list(loop_polys), vstar)
            for point in grid:
                if all(v == 0 for v in point):
                    continue
                if derivative.eval(point) >= 0:
                    analytic_negative = False
                    analytic_witness = tuple(float(v) for v in point)
                    break
        else:
            dv = grad(vstar)
            for point in map(tuple, geometry.grid_floats(grid).tolist()):
                if all(v == 0.0 for v in point):
                    continue
                rate = float(np.dot([p.eval_float(point) for p in dv], field(point)))
                if rate >= 0.0:
                    analytic_negative = False
                    analytic_witness = point
                    break
    return DecreaseReport(monotone, first_violation, analytic_negative, analytic_witness)


def write_trajectory_csv(
    traj: TrajectoryRecord, path, state_names: Sequence[str], input_names: Sequence[str]
) -> None:
    """CSV export: t, states, inputs, Vstar with 17 significant digits."""
    header = ["t", *state_names, *input_names, "Vstar"]
    lines = [",".join(header)]
    for k, t in enumerate(traj.times):
        row = [t, *traj.states[k], *traj.u_values[k], traj.vstar_values[k]]
        lines.append(",".join(f"{value:.17g}" for value in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
