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
import math
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import geometry
from .geometry import Lattice
from .poly import (
    FloatVector,
    Poly,
    PolyMatrix,
    compile_float,
    eval_points,
    grad,
    lie_derivative,
    poly_adjugate,
    poly_det,
    poly_sum,
    value_lines,
)
from .sysmodel import ControlAffineSystem

FEEDBACK_RESIDUAL_TOL = 1e-8
DIVERGENCE_GUARD = 1e6
MAX_STEPS = 10**6  # most RK4 steps horizon / h that a problem may ask for
VSTAR_FLOOR = 1e-12  # V* values at or below this end the sampled decrease check

VectorMap = Callable[[Sequence[float]], Sequence[float]]  # a point of R^m to a vector: a field or a feedback


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


def _columns_and_rhs(sys: ControlAffineSystem, rhs: Sequence[Poly]) -> tuple[Poly, ...]:
    """The polynomials :func:`_solve_at` reads: the columns of F, then rhs."""
    return (*(p for col in sys.f for p in col), *rhs)


def _solve_at(sys: ControlAffineSystem, values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """F(x) as an (m, r) array and the least-norm u of F(x) u = rhs(x) at one point, as an RK4 stage asks.

    ``values`` starts with the values of :func:`_columns_and_rhs` at x.
    """
    size = sys.m * sys.r
    a = np.array(values[:size]).reshape(sys.r, sys.m).T
    b = np.array(values[size : size + sys.m])
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
    values = compile_float(_columns_and_rhs(sys, rhs)) if symbolic is None else None

    def pointwise(x: Sequence[float]) -> np.ndarray:
        if symbolic is not None:
            return np.array([u.eval_float(x) for u in symbolic])
        return _solve_at(sys, values(x))[1]

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
    _values: FloatVector | None = dataclass_field(default=None, init=False, repr=False, compare=False)

    def __call__(self, x: Sequence[float]) -> Sequence[float]:
        if self._values is None:
            # compiled on the first call, inside simulate_rk4, which turns an
            # OverflowError from a coefficient beyond the float range into a DivergenceError
            polys = self.poly
            if polys is None:
                polys = (*_columns_and_rhs(self.sys, self.feedback.rhs), *self.sys.f0)
            self._values = compile_float(polys)
        values = self._values(x)
        if self.poly is not None:
            return values
        f_x, u = _solve_at(self.sys, values)  # F(x) once per evaluation
        # f0 + u_1 F_1 + ... + u_r F_r summed left to right, the order test_pinned_floats pins
        f0 = np.array(values[-self.sys.m :])
        return sum((u[j] * f_x[:, j] for j in range(self.sys.r)), f0).tolist()


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
    states: np.ndarray  # (len(times), m): one row per recorded state
    vstar_values: list[float]


def guard_box(m: int) -> float:
    """Half-width of the cube in R^m whose states pass the divergence guard without a norm.

    A state inside the cube passes ``np.linalg.norm(state) <=
    DIVERGENCE_GUARD`` too, so the box never changes a decision: a state
    outside it, or with a NaN or an infinite coordinate, is decided by the
    norm itself.  With G = DIVERGENCE_GUARD and u = 2^-53: the returned BOX exceeds G / (2 sqrt(m))
    by at most a factor (1 + u) / (1 - u) (doubling is exact; the square
    root and the quotient round), so every |x_i| <= BOX makes the exact
    norm at most G / 2 * (1 + u) / (1 - u).  The norm is the rounded
    square root of a dot product of m nonnegative squares, which in any
    summation order, with or without fused multiply-adds, is at most
    (1 + u)^m times the exact sum; the computed norm is therefore at most
    G / 2 * (1 + u)^(m/2 + 2) / (1 - u), below G for every m < 2^52.  The
    squares are at most 2.5e11 and cannot overflow, and underflow only
    makes them smaller.
    """
    return DIVERGENCE_GUARD / (2.0 * math.sqrt(m))


def _guard(state: Sequence[float], t: float) -> None:
    if not np.linalg.norm(state) <= DIVERGENCE_GUARD:
        raise DivergenceError(f"state norm exceeded {DIVERGENCE_GUARD:.0e} at t={t:.3f}")


def _rk4_loop(m: int, vstar: Poly | None) -> Callable[..., None]:
    """The generated body of :func:`simulate_rk4` for dimension m and this V*."""
    xs = [f"x{i}" for i in range(m)]

    def stage(k: str, scale: str) -> str:
        return "s = " + "".join(f"x{i} + {scale} * {k}{i}, " for i in range(m))

    def field_at_s(k: str) -> str:
        return "".join(f"{k}{i}, " for i in range(m)) + "= field(s)"

    box = guard_box(m)
    body = [
        "t = k * h",
        "s = " + "".join(f"{x}, " for x in xs),
        "times_append(t)",
        "states_append(s)",
        *(value_lines([vstar], "x{}", x="y", t="v") if vstar is not None else ["v0 = nan"]),
        "vstar_append(v0)",
        "if k == steps:",
        "    return",
        "if not (" + " and ".join(f"{-box!r} <= {x} <= {box!r}" for x in xs) + "):",
        "    guard(s, t)",
        field_at_s("a"),
        stage("a", "half"),
        field_at_s("b"),
        stage("b", "half"),
        field_at_s("c"),
        stage("c", "h"),
        field_at_s("d"),
        *(f"x{i} = x{i} + sixth * (((a{i} + 2.0 * b{i}) + 2.0 * c{i}) + d{i})" for i in range(m)),
    ]
    params = ", ".join(["field", *xs, "steps", "h", "half", "sixth", "guard", "times_append", "states_append", "vstar_append"])
    lines = [
        f"def run({params}):",
        "    for k in range(steps + 1):",
        *(f"        {line}" for line in body),
    ]
    namespace: dict = {"nan": math.nan}
    exec(compile("\n".join(lines), "<simulate_rk4>", "exec"), namespace)
    return namespace["run"]


def simulate_rk4(
    field: VectorMap, x0: Sequence[float], h: float, horizon: float, vstar: Poly | None = None
) -> TrajectoryRecord:
    """Classical fixed-step fourth-order integration with state recording.

    One straight-line loop is generated per call for the dimension m and
    V*.  It keeps the state in locals x0 .. x{m-1} and forms each stage
    input and the update coordinate by coordinate, in the order of the
    vector expressions ``x + (0.5*h)*k1``, ``x + (0.5*h)*k2``,
    ``x + h*k3`` and ``x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``, so the
    trajectory is that of the same formulas over float64 arrays, bit for
    bit.  Each state is recorded as it is reached, with V* evaluated
    inline on ``float`` of its coordinates (the code of
    :func:`poly.value_lines`, so the values are :meth:`Poly.eval_float`'s),
    and the states become one array at the end.  Before each step, and
    at the horizon, the state must satisfy ``norm <= DIVERGENCE_GUARD``;
    inside the cube of :func:`guard_box` it does without computing the
    norm, and elsewhere ``np.linalg.norm`` decides.  Every field
    evaluation is a call of ``field`` with a tuple of the m coordinates.
    """
    if h <= 0 or horizon < h:
        raise ValueError("need h > 0 and horizon >= h")
    steps = int(round(horizon / h))
    start = np.array(x0, dtype=float).tolist()
    if not start:
        raise ValueError("need at least one state coordinate")
    if vstar is not None and vstar.nvars != len(start):
        raise ValueError(f"V* has {vstar.nvars} variables, but the state has {len(start)} coordinates")
    run = _rk4_loop(len(start), vstar)
    times: list[float] = []
    states: list[tuple[float, ...]] = []
    values: list[float] = []
    try:
        # inf and NaN from an overflowing step fail the guard, `not norm <= DIVERGENCE_GUARD`,
        # and so does a finite state whose squared norm overflows, the last one too
        with np.errstate(over="ignore", invalid="ignore"):
            run(field, *start, steps, h, 0.5 * h, h / 6.0, _guard, times.append, states.append, values.append)
            _guard(states[-1], horizon)
    except OverflowError as exc:
        raise DivergenceError(f"float overflow evaluating the field or V* at t={times[-1]:.3f}") from exc
    return TrajectoryRecord(times, np.array(states, dtype=float), values)


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
        dv = eval_points(grad(vstar), grid.points)
        rates = ((x, np.dot(dv_x, field(x))) for x, dv_x in zip(grid.points.tolist(), dv) if any(x))
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
