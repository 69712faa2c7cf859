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
from .geometry import Lattice
from .poly import Poly, PolyMatrix, eval_points, grad, lie_derivative, poly_adjugate, poly_det, poly_sum
from .sysmodel import ControlAffineSystem

FEEDBACK_RESIDUAL_TOL = 1e-8
DIVERGENCE_GUARD = 1e6
MAX_STEPS = 10**6  # most RK4 steps horizon / h that a problem may ask for
VSTAR_FLOOR = 1e-12  # V* values at or below this end the sampled decrease check

VectorMap = Callable[[Sequence[float]], np.ndarray]  # a point of R^m to a vector: a field or a feedback


class FeedbackResidualError(RuntimeError):
    """The algebraic feedback equations are not solvable on the grid."""


class DivergenceError(RuntimeError):
    """A simulated trajectory left the divergence guard ball."""


def control_matrix(sys: ControlAffineSystem) -> PolyMatrix:
    """m-by-r matrix with the control vector fields as columns."""
    return geometry.Frame(sys.m, sys.f).as_matrix()


@dataclass
class FeedbackSolution:
    symbolic: tuple[Poly, ...] | None
    pointwise: VectorMap
    residual_norm: float
    rhs: tuple[Poly, ...]  # the equation is F(x) u = rhs(x)


def _solve_at(sys: ControlAffineSystem, rhs: Sequence[Poly], x: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """F(x) as an (m, r) array and the least-norm u of F(x) u = rhs(x) at one point, as an RK4 stage asks."""
    a = np.array([[p.eval_float(x) for p in col] for col in sys.f]).T
    b = np.array([p.eval_float(x) for p in rhs])
    u, *_ = np.linalg.lstsq(a, b, rcond=None)
    return a, u


def solve_feedback(sys: ControlAffineSystem, rhs: Sequence[Poly], points: np.ndarray) -> FeedbackSolution:
    """Solve F(x) u(x) = rhs(x) in least-norm form, symbolically when possible.

    Raises FeedbackResidualError if the pointwise residual exceeds
    FEEDBACK_RESIDUAL_TOL anywhere on the check grid, a (P, m) float array;
    under a LIFTABLE verdict this is unreachable and signals an internal
    inconsistency.
    """
    if len(rhs) != sys.m:
        raise ValueError("right-hand side must have one component per state")
    f_mat = control_matrix(sys)
    symbolic = _symbolic_feedback(sys, f_mat, rhs)

    def pointwise(x: Sequence[float]) -> np.ndarray:
        if symbolic is not None:
            return np.array([u.eval_float(x) for u in symbolic])
        return _solve_at(sys, rhs, x)[1]

    a = f_mat.at(points)
    b = eval_points(rhs, points)
    u = eval_points(symbolic, points) if symbolic is not None else np.array([pointwise(x) for x in points])
    r = (a @ u[..., None])[..., 0] - b
    # |r| per point through the BLAS dot np.linalg.norm uses, so it matches bit for bit
    worst = float(np.sqrt((r[..., None, :] @ r[..., None]).max(initial=0.0)))
    if worst > FEEDBACK_RESIDUAL_TOL:
        raise FeedbackResidualError(
            f"feedback residual {worst:.3e} exceeds {FEEDBACK_RESIDUAL_TOL:.1e}; target is outside the control range"
        )
    return FeedbackSolution(symbolic, pointwise, worst, tuple(rhs))


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
        f_x, u = _solve_at(self.sys, self.feedback.rhs, x)  # F(x) once per evaluation
        # f0 + u_1 F_1 + ... + u_r F_r summed left to right, the order test_pinned_floats pins
        return sum((u[j] * f_x[:, j] for j in range(self.sys.r)), np.array([p.eval_float(x) for p in self.sys.f0]))


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


def simulate_rk4(
    field: VectorMap, x0: Sequence[float], h: float, horizon: float, vstar: Poly | None = None
) -> TrajectoryRecord:
    """Classical fixed-step fourth-order integration with state recording."""
    if h <= 0 or horizon < h:
        raise ValueError("need h > 0 and horizon >= h")
    steps = int(round(horizon / h))
    x = np.array(x0, dtype=float)
    record = TrajectoryRecord([], [], [])

    def log(t: float, state: np.ndarray) -> None:
        record.times.append(t)
        record.states.append(state.copy())
        record.vstar_values.append(vstar.eval_float(state) if vstar is not None else float("nan"))

    def guard(state: np.ndarray, t: float) -> None:
        if not np.linalg.norm(state) <= DIVERGENCE_GUARD:
            raise DivergenceError(f"state norm exceeded {DIVERGENCE_GUARD:.0e} at t={t:.3f}")

    try:
        log(0.0, x)
        # inf and NaN from an overflowing step fail the guard: `not norm <= DIVERGENCE_GUARD`
        with np.errstate(over="ignore", invalid="ignore"):
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


def verify_lyapunov_decrease(traj: TrajectoryRecord, vstar: Poly, field: VectorMap, grid: Lattice) -> DecreaseReport:
    """Check sampled strict decrease of V* and sign of its derivative.

    The sampled check requires V*(x_{k+1}) < V*(x_k) whenever V*(x_k) is
    above VSTAR_FLOOR.  The derivative check evaluates dV* . field on the
    grid away from the origin: exactly, when the closed loop is available
    as polynomials; numerically otherwise.
    """
    monotone = True
    first_violation = None
    for k in range(len(traj.times) - 1):
        if traj.vstar_values[k] <= VSTAR_FLOOR:
            break
        if not traj.vstar_values[k + 1] < traj.vstar_values[k]:
            monotone = False
            first_violation = (traj.times[k], traj.vstar_values[k], traj.vstar_values[k + 1])
            break
    analytic_witness = None
    loop_polys = field.poly if isinstance(field, ClosedLoop) else None
    if loop_polys is not None:
        index = geometry.first_nonnegative(lie_derivative(list(loop_polys), vstar), grid)
        if index is not None:
            analytic_witness = tuple(grid.points[index].tolist())
    else:
        dv = grad(vstar)
        rates = ((x, np.dot([p.eval_float(x) for p in dv], field(x))) for x in grid.points.tolist() if any(x))
        analytic_witness = next((tuple(x) for x, rate in rates if rate >= 0.0), None)
    return DecreaseReport(monotone, first_violation, analytic_witness is None, analytic_witness)


def write_trajectory_csv(
    traj: TrajectoryRecord, control: VectorMap, path, state_names: Sequence[str], input_names: Sequence[str]
) -> None:
    """CSV export: t, states, inputs u = control(state), Vstar with 17 significant digits."""
    header = ["t", *state_names, *input_names, "Vstar"]
    lines = [",".join(header)]
    for t, state, vstar in zip(traj.times, traj.states, traj.vstar_values):
        row = [t, *state, *control(state), vstar]
        lines.append(",".join(f"{value:.17g}" for value in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
