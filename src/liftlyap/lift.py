"""Construction of the lift V by the graded Euler operator on the graph form.

Once the integrability checks pass, the lift PDE near the origin is the
graph form of :mod:`integrability`: rows G_i . grad V = beta_i, each with
d on its own pivot column p_i, 0 on the other pivot columns and d(0) = 1.
V has total degree 2..order (the constant and linear terms are pinned to
0, so the candidate Lyapunov function has a critical point at the
equilibrium).  Row i solved for its pivot derivative reads

    d/dx^(p_i) V = omega_i = beta_i - (d - 1) d/dx^(p_i) V - sum_f G_if d/dx^f V,

f over the non-pivot coordinates.  Split V by total degree k and pivot
degree s (the degree in the pivot variables) into slices V^(k,s).  The
Euler identity for the pivot variables, sum_i x^(p_i) d/dx^(p_i) = s on
V^(k,s), gives

    s V^(k,s) = sum_i x^(p_i) [omega_i]^(k-1,s-1).

At bidegree (k-1, s-1), the non-constant terms of d - 1 and G_if read V
below total degree k, and the constant G_if(0) reads V^(k,s-1); so one
pass over k, and over s = 1..k within it, solves V from V^(k,0), with each
product formed only at the slice it feeds.  V^(k,0), V on {x_P = 0}, is
the free data: its monomials, those with no pivot exponent, are the
parametric ones, and the others are principal (Seiler, *Involution*, 2010).
Conditions A and B make the rows a closed system (Frobenius), so the pass
gives the unique V with that data, whichever row each coefficient is read
from.  With full rank there is no parametric monomial, only s = k occurs,
and the pass is the radial homotopy of the Poincare lemma on the closed
form grad V = beta / d: V_k = (1/k) sum_p x^p [beta_p / d]_(k-1) (Lee,
*Introduction to Smooth Manifolds*, 2nd ed., ch. 11).

V is affine in the parametric data, so :func:`assemble_lift_system` runs
one pass with every parametric coefficient 0 and one homogeneous pass
(beta = 0) per parametric coefficient of degree below the order or of
degree 2, and :func:`solve_jets` combines them.  The parametric
coefficients below the order are chosen to leave V no principal term of
degree ``order`` where that is possible, so a polynomial lift of lower
degree is found exactly, and the rest keep a seed.  The candidate is
re-verified against the residual blocks and validated for positive
definiteness afterwards, its sphere probes drawn and evaluated as one
batch.  No convergence claim is made for the series: the truncated
polynomial is the candidate, and it is checked, not trusted.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .integrability import GraphForm, ResidualSystem, residual_psi
from .poly import DEGREE_CAP, MultiIndex, Poly, eval_points, reduce_rows
from .sysmodel import HESSIAN_EIG_TOL, hessian_at_origin

# Sphere probes of V* definiteness: radii, random unit directions per radius, generator seed
SPHERE_RADII = (0.1, 0.5, 1.0)
SPHERE_DIRECTIONS = 64
SPHERE_SEED = 20240

Terms = dict[MultiIndex, Fraction]
# A factor's terms as (exponents, total degree, pivot degree, coefficient)
Factor = list[tuple[MultiIndex, int, int, Fraction]]


def monomials_up_to(m: int, max_degree: int, min_degree: int = 0) -> list[MultiIndex]:
    """The exponent tuples in m variables of total degree min_degree..max_degree, each degree in grlex order."""
    by_degree: list[list[MultiIndex]] = [[()]] + [[] for _ in range(max_degree)]  # over no variables yet
    for _ in range(m):  # prepend one variable, its exponent descending: lexicographic order within a degree
        by_degree = [[(e, *rest) for e in range(d, -1, -1) for rest in by_degree[d - e]] for d in range(max_degree + 1)]
    return [mi for d in range(min_degree, max_degree + 1) for mi in by_degree[d]]


def _grlex_ascending(mi: MultiIndex) -> tuple:
    """The order of :func:`monomials_up_to`: total degree ascending, then lexicographic descending."""
    return (sum(mi), tuple(-e for e in mi))


class _EulerOperator:
    """The recurrence of the module docstring on one graph form, with every factor split by bidegree."""

    def __init__(self, form: GraphForm):
        pivots = self.pivots = form.pivots

        def bidegree(nu: MultiIndex) -> tuple[int, int]:
            return sum(nu), sum(nu[p] for p in pivots)

        def negated(p: Poly) -> Factor:  # the terms of -p, for omega's subtracted sums
            return [(nu, *bidegree(nu), -c) for nu, c in p.terms.items()]

        self.den = [term for term in negated(form.den) if term[1]]  # -(d - 1), as d(0) = 1
        # per graph row: (f, the terms of -G_if) for each non-pivot f
        self.entries = [
            [(f, terms) for f, g in enumerate(row) if f not in pivots and (terms := negated(g))]
            for row in form.rows.entries
        ]
        self.rhs: list[dict[tuple[int, int], Terms]] = []  # beta_i by bidegree
        for beta in form.rhs:
            slices: dict[tuple[int, int], Terms] = {}
            for nu, c in beta.terms.items():
                slices.setdefault(bidegree(nu), {})[nu] = c
            self.rhs.append(slices)

    def run(self, order: int, data: Terms, with_rhs: bool) -> Terms:
        """V of total degree 2..order with V^(k,0) = ``data``, against beta or (``with_rhs`` False) against 0."""
        slices: dict[tuple[int, int], Terms] = {}
        for mi, c in data.items():
            slices.setdefault((sum(mi), 0), {})[mi] = c
        for k in range(2, order + 1):
            for s in range(1, k + 1):
                total: Terms = {}
                for i, p in enumerate(self.pivots):
                    omega = dict(self.rhs[i].get((k - 1, s - 1), {})) if with_rhs else {}
                    for nu, size, t, c in self.den:
                        _add_derivative(omega, slices.get((k - size, s - t)), p, nu, c)
                    for f, terms in self.entries[i]:  # a constant term reads V^(k,s-1)
                        for nu, size, t, c in terms:
                            _add_derivative(omega, slices.get((k - size, s - 1 - t)), f, nu, c)
                    for mu, c in omega.items():
                        if c:
                            alpha = mu[:p] + (mu[p] + 1,) + mu[p + 1 :]
                            total[alpha] = total.get(alpha, 0) + c
                if solved := {alpha: c / s for alpha, c in total.items() if c}:
                    slices[k, s] = solved
        return {mi: c for part in slices.values() for mi, c in part.items()}


def _add_derivative(out: Terms, part: Terms | None, j: int, nu: MultiIndex, c: Fraction) -> None:
    """Add c x^nu d/dx^j ``part`` into ``out``."""
    if not part:
        return
    add = operator.add
    for gamma, v in part.items():
        if e := gamma[j]:
            mu = tuple(map(add, gamma[:j] + (e - 1,) + gamma[j + 1 :], nu))
            out[mu] = out.get(mu, 0) + c * e * v


@dataclass
class LiftPasses:
    """The lift as passes of the graded recurrence, affine in the parametric coefficients.

    ``unknowns`` are the parametric monomials of degree 2..order, in the
    order of :func:`monomials_up_to`.  ``base`` is V with every parametric
    coefficient 0; ``passes[mi]`` is the change of V per unit of the
    coefficient of x^mi, one for each unknown of degree below the order or
    of degree 2.  ``rows`` are the conditions that clear degree ``order``:
    one per principal monomial of that degree that ``base`` or a lower
    pass reaches, sorted, each that monomial's coefficient in every pass of
    an unknown below the order, then minus its coefficient in ``base``
    (:func:`reduce_rows` keeps the same pivot columns in any row order).
    Both lists are empty at full rank.
    """

    order: int
    unknowns: list[MultiIndex]
    base: Terms
    passes: dict[MultiIndex, Terms]
    rows: list[list[Fraction]]


def assemble_lift_system(form: GraphForm, order: int) -> LiftPasses:
    """Run the passes of the graded Euler operator on the graph form (see the module docstring)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > DEGREE_CAP:
        raise ValueError(f"order {order} exceeds the degree cap {DEGREE_CAP}")
    m = form.rows.cols
    nonpivot = [j for j in range(m) if j not in form.pivots]
    unknowns = [
        tuple(dict(zip(nonpivot, exponents)).get(j, 0) for j in range(m))
        for exponents in monomials_up_to(len(nonpivot), order, min_degree=2)
    ]
    euler = _EulerOperator(form)
    one = Fraction(1)
    base = euler.run(order, {}, True)
    passes = {mi: euler.run(order, {mi: one}, False) for mi in unknowns if sum(mi) < order or sum(mi) == 2}
    rows: list[list[Fraction]] = []
    if lower := [mi for mi in unknowns if sum(mi) < order]:
        # every term of degree order that these passes reach is principal: their data lie below it
        top = sorted({mi for terms in (base, *(passes[j] for j in lower)) for mi in terms if sum(mi) == order})
        zero = Fraction(0)
        rows = [[passes[j].get(mi, zero) for j in lower] + [-base.get(mi, zero)] for mi in top]
    return LiftPasses(order, unknowns, base, passes, rows)


@dataclass
class JetSolution:
    """Solved Taylor coefficients of V at the origin."""

    order: int
    coeffs: dict[MultiIndex, Fraction]
    free_seeded: list[MultiIndex]

    def polynomial(self, m: int) -> Poly:
        return Poly(m, dict(self.coeffs))


def lift_coefficients(system: LiftPasses, fibre_start: int) -> JetSolution:
    """The passes combined at the chosen parametric coefficients, unverified (see :func:`solve_jets`)."""
    order, unknowns = system.order, system.unknowns
    values = {mi: Fraction(1, 2) for mi in unknowns if sum(mi) == 2 and max(mi[fibre_start:], default=0) == 2}
    free = list(unknowns)
    if system.rows:
        lower = [mi for mi in unknowns if sum(mi) < order]
        # the shift of each lower coefficient from its seed that clears the top: [A | -base at the seeds]
        rows = [[*row[:-1], row[-1] - sum(a * values.get(mi, 0) for a, mi in zip(row, lower))] for row in system.rows]
        basis = reduce_rows(rows, len(lower) + 1)
        if all(col < len(lower) for _, col, _ in basis):  # consistent; the shifts of non-pivot columns stay 0
            for _, col, row in basis:
                values[lower[col]] = values.get(lower[col], 0) + row[-1] / row[col]
                free.remove(lower[col])
    coeffs = dict(system.base)
    for mi, value in values.items():
        if value:
            for gamma, c in system.passes[mi].items():
                coeffs[gamma] = coeffs.get(gamma, 0) + value * c
    ordered = {mi: coeffs[mi] for mi in sorted(coeffs, key=_grlex_ascending) if coeffs[mi]}
    return JetSolution(order, ordered, free)


def solve_jets(system: LiftPasses, rs: ResidualSystem, fibre_start: int) -> JetSolution:
    """The lift at the parametric coefficients chosen for a polynomial lift, re-verified.

    The parametric coefficients are the free data of the lift.  Those of
    degree below the order are chosen, where some choice does it, so that
    every principal coefficient of degree ``order`` is 0: a lift that is a
    polynomial of lower degree is then found exactly, where any other
    choice leaves a series whose truncation the feedback check refuses.
    The principal coefficients are affine in that choice, so one exact
    elimination (:func:`reduce_rows`) of ``system.rows`` over those
    coefficients alone solves it; a full-rank graph form leaves nothing to
    choose.  Every parametric coefficient not chosen keeps its seed
    (``free_seeded``): (x^p)^2 with p a fibre coordinate (0-based index >=
    fibre_start) takes 1/2 and every other one 0.  The solved candidate is
    re-verified: both residual blocks must vanish exactly through degree
    order-1.
    """
    solution = lift_coefficients(system, fibre_start)
    d_blk, vm_blk = residual_psi(rs, solution.polynomial(rs.p_vm.rows))
    for comp in d_blk + vm_blk:
        if not comp.truncate(system.order - 1).is_zero():
            raise RuntimeError("internal error: solved coefficients fail re-verification")
    return solution


@dataclass
class DefinitenessDiagnostics:
    hessian_eigenvalues: list[float]
    sphere_min: float
    witness: list[float] | None
    ok: bool


@functools.lru_cache(maxsize=4)
def sphere_probes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit directions and the probe points of :func:`assemble_vstar` in R^m, built once per m, read-only.

    SPHERE_DIRECTIONS random directions from SPHERE_SEED for each radius in
    SPHERE_RADII; the probe points are the directions times their radius.
    """
    rng = np.random.default_rng(SPHERE_SEED)
    directions = rng.standard_normal((len(SPHERE_RADII) * SPHERE_DIRECTIONS, m))
    # each row over its norm through the BLAS dot np.linalg.norm uses, so it matches bit for bit
    directions /= np.sqrt(directions[:, None, :] @ directions[:, :, None])[:, 0]
    probes = np.repeat(SPHERE_RADII, SPHERE_DIRECTIONS)[:, None] * directions
    directions.setflags(write=False)
    probes.setflags(write=False)
    return directions, probes


def assemble_vstar(pullback_vtilde: Poly, jet: JetSolution) -> tuple[Poly, DefinitenessDiagnostics]:
    """Assemble the candidate Lyapunov function and probe its definiteness.

    The candidate is the pulled-back quotient function plus the solved V.
    Diagnostics: Hessian eigenvalues at the origin (all must exceed
    HESSIAN_EIG_TOL) and sampled positivity on the spheres of radii
    SPHERE_RADII (SPHERE_DIRECTIONS random unit directions each).  A
    failure carries the offending direction.
    """
    m = pullback_vtilde.nvars
    vstar = pullback_vtilde + jet.polynomial(m)
    hess = hessian_at_origin(vstar)
    eigs = np.linalg.eigvalsh(hess)
    witness: list[float] | None = None
    ok = True
    if eigs.min() <= HESSIAN_EIG_TOL:
        ok = False
        witness = [float(v) for v in np.linalg.eigh(hess)[1][:, 0]]
    directions, probes = sphere_probes(m)
    values = eval_points([vstar], probes)[:, 0]
    # the minimum is global over the probe set, first occurrence on ties; the witness is the first probe at or below 0
    sphere_min = float(values[np.argmin(values)])
    if sphere_min <= 0.0:
        ok = False
        witness = witness or directions[np.argmax(values <= 0.0)].tolist()
    diagnostics = DefinitenessDiagnostics(
        hessian_eigenvalues=[float(e) for e in eigs],
        sphere_min=sphere_min,
        witness=witness,
        ok=ok,
    )
    return vstar, diagnostics
