"""Feedback synthesis, closed-loop assembly, simulation, and verification.

The feedback solves F(x) u = rhs(x), F the m-by-r matrix of control fields,
as u = N / den from one square system M u = b: den = det M, N = adj(M) b.
M is F_S, the pivot rows S of F(0) in index order, when +-det F_S is
evidently positive (a positive constant, positive coefficients on even
powers elsewhere), and otherwise F^T F with b = F^T rhs: by Cauchy-Binet
det(F^T F) > 0 where F has rank r.  The feedback is accepted when
F N = den rhs holds as polynomials, so F u = rhs wherever den is not 0;
when den also divides N, u is an exact polynomial.

The closed loop is numer / den with numer = f0 den + F N.  RK4 runs it in
one generated loop, which evaluates numer and den inline in each of its
four stages and V* on each recorded state; nothing in the loop calls the
closed loop or any other compiled function.  The loop's statements hold
generated names, integer indices and exponents, and no coefficient: it is
compiled once per closed-loop shape (m, whether den is 1, whether V* is
given, and the exponent tuples of numer, den and V* in term order), kept
for at most 128 shapes, and each simulation passes it its own
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from . import geometry
from .geometry import Lattice
from .poly import (
    FloatVector,
    Poly,
    PolyMatrix,
    Shape,
    coefficient_names,
    compile_float,
    float_coefficients,
    grlex_key,
    lie_derivative,
    origin_pivots,
    poly_adjugate,
    poly_det,
    poly_sum,
    powers,
    term_shapes,
    value_lines,
)
from .sysmodel import ControlAffineSystem

DIVERGENCE_GUARD = 1e6
MAX_STEPS = 10**6  # most RK4 steps horizon / h that a problem may ask for
VSTAR_FLOOR = 1e-12  # V* values at or below this end the sampled decrease check

VectorMap = Callable[[Sequence[float]], Sequence[float]]  # a point of R^m to a vector: a field or a feedback


class FeedbackResidualError(RuntimeError):
    """The algebraic feedback equations F u = rhs have no solution u = N / den."""


class DivergenceError(RuntimeError):
    """A simulated trajectory left the divergence guard ball."""


@dataclass
class FeedbackSolution:
    """u = numer / den solving F(x) u = rhs(x), den > 0 where F has rank r; den is 1 when u is polynomial (symbolic)."""

    symbolic: tuple[Poly, ...] | None
    numer: tuple[Poly, ...]
    den: Poly

    @cached_property
    def pointwise(self) -> FloatVector:
        """u at a point, as a tuple of floats."""
        return compile_float(self.numer, self.den)


def _evidently_positive(p: Poly) -> bool:
    """A positive constant term, and positive coefficients on even powers elsewhere: p > 0 on R^m."""
    return p.constant_term > 0 and all(c > 0 and not any(e % 2 for e in mi) for mi, c in p.terms.items())


def solve_feedback(sys: ControlAffineSystem, rhs: Sequence[Poly]) -> FeedbackSolution:
    """Solve F(x) u(x) = rhs(x) as u = N / den, exactly.

    Raises ValueError if F(0) has rank below r, and FeedbackResidualError
    unless F N = den rhs as polynomials; its message names the first
    component (1-based) of den (F u - rhs) = F N - den rhs that is not 0
    and that component's leading grlex term.  Under a LIFTABLE verdict it
    is reached when the lift is a series, which the order truncates.

    Degree budget: with d_j the degree of column j of F and e that of rhs,
    the F_S branch forms no product above sum_j d_j + e.  The F^T F
    branch doubles the columns' share: its entries have degree
    d_j + d_k, det(F^T F) at most 2 sum_j d_j, and the largest products,
    adj(F^T F) F^T rhs times F and den times rhs, at most
    2 sum_j d_j + e.  Within DEGREE_CAP the branch never raises; past it,
    the first product above the cap raises DegreeCapError (``product
    degree N exceeds cap 24``), which the command line reports as an
    input error, exit 1.
    """
    if len(rhs) != sys.m:
        raise ValueError("right-hand side must have one component per state")
    f_mat = geometry.Frame(sys.m, sys.f).as_matrix()
    rows = [i for i, _ in origin_pivots(f_mat)]
    if len(rows) < sys.r:
        raise ValueError(f"F(0) has rank {len(rows)}, not {sys.r}")
    square = PolyMatrix([f_mat.row(i) for i in rows], cols=sys.r, nvars=sys.m)
    b = [rhs[i] for i in rows]
    den = poly_det(square)
    if _evidently_positive(-den):
        den, b = -den, [-p for p in b]
    elif not _evidently_positive(den):
        f_t = PolyMatrix(sys.f)
        square, b = f_t @ f_mat, f_t.matvec(rhs)
        den = poly_det(square)
    numer = tuple(poly_adjugate(square).matvec(b))
    for k, (reached, want) in enumerate(zip(f_mat.matvec(numer), rhs), 1):
        gap = reached - den * want
        if gap:
            top = min(gap.terms, key=grlex_key)
            raise FeedbackResidualError(
                "no u = N / den solves F u = rhs: in den * (F u - rhs), "
                f"component {k} has term {gap.terms[top]} * x^{top}"
            )
    try:
        quotient = tuple(p / den for p in numer)
    except ValueError:
        return FeedbackSolution(None, numer, den)
    # F N = den rhs, so F quotient = rhs: no second check
    return FeedbackSolution(quotient, quotient, Poly.const(sys.m, 1))


@dataclass
class ClosedLoop:
    """Closed-loop vector field f0 + F u = numer / den, with numer = f0 den + F N."""

    feedback: FeedbackSolution
    numer: tuple[Poly, ...]

    @cached_property
    def _values(self) -> FloatVector:
        # compiled on the first call; simulate_rk4 evaluates numer / den inline and never calls the loop
        return compile_float(self.numer, self.feedback.den)

    def __call__(self, x: Sequence[float]) -> Sequence[float]:
        return self._values(x)


def closed_loop_field(sys: ControlAffineSystem, feedback: FeedbackSolution) -> ClosedLoop:
    numer = tuple(
        sys.f0[i] * feedback.den + poly_sum((feedback.numer[j] * sys.f[j][i] for j in range(sys.r)), sys.m)
        for i in range(sys.m)
    )
    return ClosedLoop(feedback, numer)


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


@lru_cache(maxsize=128)  # about 7 KiB an entry
def _rk4_loop(m: int, field: tuple[Shape, ...], vstar: Shape | None) -> Callable[..., None]:
    """The generated body of :func:`simulate_rk4` for one closed-loop shape, compiled once per shape.

    The shape is all that the code depends on: m, the exponent tuples in
    term order (:func:`poly.term_shapes`) of numer and, after it unless den
    is 1, of den, and those of V*, or None when V* is not given.  The loop
    takes the float coefficients of numer, den and V*, in that order, as
    one tuple, and unpacks them into the locals that
    :func:`poly.value_lines` reads (``q<k>_<j>`` for the field, ``w0_<j>``
    for V*) once, before the first step.
    """
    den = len(field) > m
    xs = [f"x{i}" for i in range(m)]
    names = coefficient_names(field) + (coefficient_names([vstar], "w") if vstar is not None else [])

    def field_at(point: str | None, x: str, k: str, held: Sequence[tuple[int, int]] = ()) -> list[str]:
        # k0 .. k{m-1} = numer / den at the stage input, as compile_float divides
        lines = value_lines(field, point, x=x, t=k, held=held)
        return lines + [f"{k}{i} = {k}{i} / {k}{m}" for i in range(m)] if den else lines

    box = guard_box(m)
    body = [
        "s = " + "".join(f"{x}, " for x in xs),
        "states_extend(s)",
        *(value_lines([vstar], None, t="v", q="w") if vstar is not None else ["v0 = nan"]),
        "vstar_append(v0)",
        "if k == steps:",
        "    return",
        "if not (" + " and ".join(f"{-box!r} <= {x} <= {box!r}" for x in xs) + "):",
        "    guard(s, k * h)",
        *field_at(None, "x", "a", powers([vstar]) if vstar is not None else ()),  # V*'s powers of this state
        *field_at("x{0} + half * a{0}", "y", "b"),
        *field_at("x{0} + half * b{0}", "y", "c"),
        *field_at("x{0} + h * c{0}", "y", "d"),
        *(f"x{i} = x{i} + sixth * (((a{i} + 2.0 * b{i}) + 2.0 * c{i}) + d{i})" for i in range(m)),
    ]
    params = ", ".join(["coefficients", *xs, "steps", "h", "half", "sixth", "guard", "states_extend", "vstar_append"])
    lines = [
        f"def run({params}):",
        "    (" + "".join(f"{name}, " for name in names) + ") = coefficients",
        "    for k in range(steps + 1):",
        *(f"        {line}" for line in body),
    ]
    namespace: dict = {"nan": math.nan}
    exec(compile("\n".join(lines), "<simulate_rk4>", "exec"), namespace)
    return namespace["run"]


def simulate_rk4(
    loop: ClosedLoop, x0: Sequence[float], h: float, horizon: float, vstar: Poly | None = None
) -> TrajectoryRecord:
    """Classical fixed-step fourth-order integration of the closed loop, with state recording.

    The straight-line loop of :func:`_rk4_loop` runs it, generated and
    compiled once per closed-loop shape and kept for the next loop of that
    shape; each call passes its own coefficients, converted by
    :func:`poly.float_coefficients`.  The loop keeps the state in locals
    x0 .. x{m-1} and forms each stage input and the update coordinate by
    coordinate, in the order of the vector expressions
    ``x + (0.5*h)*k1``, ``x + (0.5*h)*k2``, ``x + h*k3`` and
    ``x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``, so the trajectory is that
    of the same formulas over float64 arrays, bit for bit.  Each stage
    evaluates ``loop.numer`` and, unless it is 1, ``loop.feedback.den``
    inline, by the code of :func:`poly.value_lines` on the stage input's
    coordinates, and divides as :func:`poly.compile_float` does, so each
    stage value is ``loop``'s.  Each state is recorded as it is reached,
    with V* evaluated inline the same way, so the values are
    :meth:`Poly.eval_float`'s; the first stage reads the powers of the
    state that V* computed.  The states are recorded flat: each one's m
    coordinates extend one list of floats, which one ``reshape`` turns into
    the (steps + 1, m) array at the end.  The times are ``k * h`` for each
    recorded state k, built after the loop; an overflow or a zero
    denominator is reported at the time of the last state recorded.
    Before each step, and at the horizon, the state must satisfy
    ``norm <= DIVERGENCE_GUARD``; inside the cube of :func:`guard_box` it
    does without computing the norm, and elsewhere ``np.linalg.norm``
    decides (at the horizon, on the last m entries of the flat list).  A
    coefficient of the loop or of V* beyond the float range is a
    DivergenceError at t = 0, whatever x0 is.
    """
    if h <= 0 or horizon < h:
        raise ValueError("need h > 0 and horizon >= h")
    steps = int(round(horizon / h))
    start = np.array(x0, dtype=float).tolist()
    if not start:
        raise ValueError("need at least one state coordinate")
    m = len(start)
    if len(loop.numer) != m:
        raise ValueError(f"the closed loop has {len(loop.numer)} components, but the state has {m} coordinates")
    if vstar is not None and vstar.nvars != m:
        raise ValueError(f"V* has {vstar.nvars} variables, but the state has {m} coordinates")
    den = loop.feedback.den
    field = [*loop.numer] if den == Poly.const(m, 1) else [*loop.numer, den]
    states: list[float] = []  # flat: the m coordinates of each state in turn
    values: list[float] = []
    try:
        # a coefficient beyond the float range raises OverflowError here, for a cached shape too
        coefficients = float_coefficients(field if vstar is None else [*field, vstar])
        run = _rk4_loop(m, term_shapes(field), None if vstar is None else tuple(vstar.terms))
        # inf and NaN from an overflowing step fail the guard, `not norm <= DIVERGENCE_GUARD`,
        # and so does a finite state whose squared norm overflows, the last one too
        with np.errstate(over="ignore", invalid="ignore"):
            run(coefficients, *start, steps, h, 0.5 * h, h / 6.0, _guard, states.extend, values.append)
            _guard(states[-m:], horizon)
    except (OverflowError, ZeroDivisionError) as exc:
        t = max(len(states) // m - 1, 0) * h  # the time of the last state recorded, or 0
        if isinstance(exc, OverflowError):
            raise DivergenceError(f"float overflow evaluating the field or V* at t={t:.3f}") from exc
        raise DivergenceError(f"the closed loop's denominator is 0.0 at t={t:.3f}") from exc
    times = [k * h for k in range(len(values))]
    return TrajectoryRecord(times, np.array(states, dtype=float).reshape(len(times), m), values)


@dataclass
class DecreaseReport:
    monotone: bool
    first_violation: tuple[float, float, float] | None  # (t, value, next value)
    analytic_negative: bool
    analytic_witness: tuple[float, ...] | None

    @property
    def passed(self) -> bool:
        return self.monotone and self.analytic_negative


def verify_lyapunov_decrease(traj: TrajectoryRecord, vstar: Poly, loop: ClosedLoop, grid: Lattice) -> DecreaseReport:
    """Check sampled strict decrease of V* and sign of its derivative.

    The sampled check scans the recorded V*(x_k) in order, up to the first
    at or below VSTAR_FLOOR, and requires V*(x_{k+1}) < V*(x_k) at each; a
    NaN fails it.  It is one array comparison over the samples, and the
    first failure is reported from the recorded lists.  The derivative check
    evaluates dV* . numer exactly on the grid away from the origin; since
    the closed loop is numer / den with den > 0, that is the sign of dV*
    along it.
    """
    monotone = True
    first_violation = None
    values = np.array(traj.vstar_values[: len(traj.times)])
    floor = values[:-1] <= VSTAR_FLOOR  # the scan stops at the first of these
    violated = ~(values[1:] < values[:-1])  # a NaN on either side is a violation
    stops = np.flatnonzero(floor | violated)
    if stops.size and not floor[stops[0]]:
        k = int(stops[0])
        monotone = False
        first_violation = (traj.times[k], traj.vstar_values[k], traj.vstar_values[k + 1])
    index = geometry.first_nonnegative(lie_derivative(list(loop.numer), vstar), grid)
    analytic_witness = None if index is None else tuple(grid.points[index].tolist())
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
