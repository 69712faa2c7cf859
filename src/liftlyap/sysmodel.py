"""Control-affine systems, quotient morphisms, and target dynamics assembly.

Coordinates: the full system lives in x1..xm with inputs u1..ur; the
quotient lives in y1..yn with inputs v1..vs, where y^q is identified with
x^q.  A quotient claim consists of quotient dynamics plus the fibrewise
input map v^k = varphi^k(x) + sum_j u^j * beta^k_j(x); it is verified here
as an exact polynomial identity, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import geometry
from .geometry import EhresmannConnection, Lattice
from .poly import Poly, grad, lie_derivative

# Smallest Hessian eigenvalue at the origin that counts as positive definite
HESSIAN_EIG_TOL = 1e-9


class CLFValidationError(ValueError):
    """The supplied quotient Lyapunov data fails a definiteness check."""


class EquilibriumError(ValueError):
    """Problem data is not anchored at the origin equilibrium."""


@dataclass(frozen=True)
class ControlAffineSystem:
    """Dynamics xdot = f0(x) + sum_j u^j f_j(x) on R^m."""

    m: int
    r: int
    f0: tuple[Poly, ...]
    f: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        if self.r < 1 or self.m < 1:
            raise ValueError("need m >= 1 states and r >= 1 inputs")
        if len(self.f0) != self.m or any(p.nvars != self.m for p in self.f0):
            raise ValueError("drift must be an m-vector of polynomials in m variables")
        if len(self.f) != self.r:
            raise ValueError(f"expected {self.r} control fields")
        for col in self.f:
            if len(col) != self.m or any(p.nvars != self.m for p in col):
                raise ValueError("each control field must be an m-vector in m variables")


@dataclass(frozen=True)
class QuotientSystem:
    """Dynamics ydot = g0(y) + sum_k v^k g_k(y) on R^n (s = 0 allowed)."""

    n: int
    s: int
    g0: tuple[Poly, ...]
    g: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        if self.n < 1 or self.s < 0:
            raise ValueError("need n >= 1 quotient states and s >= 0 inputs")
        if len(self.g0) != self.n or any(p.nvars != self.n for p in self.g0):
            raise ValueError("quotient drift must be an n-vector in n variables")
        if len(self.g) != self.s:
            raise ValueError(f"expected {self.s} quotient control fields")
        for col in self.g:
            if len(col) != self.n or any(p.nvars != self.n for p in col):
                raise ValueError("each quotient control field must be an n-vector in n variables")


@dataclass(frozen=True)
class QuotientMorphism:
    """Input part of the bundle morphism: v^k = varphi^k(x) + u^j beta^k_j(x).

    The state part is fixed as the projection onto the first n coordinates.
    """

    n: int
    varphi: tuple[Poly, ...]
    beta: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        s = len(self.varphi)
        if len(self.beta) != s:
            raise ValueError("beta must have one row per quotient input")
        m = self.varphi[0].nvars if s else None
        for p in self.varphi:
            if p.nvars != m:
                raise ValueError("varphi components must share the state variable count")
        for row in self.beta:
            for p in row:
                if m is not None and p.nvars != m:
                    raise ValueError("beta entries must share the state variable count")

    @property
    def s(self) -> int:
        return len(self.varphi)


def verify_quotient(
    sys: ControlAffineSystem, qsys: QuotientSystem, morph: QuotientMorphism
) -> list[Poly]:
    """Residuals of the quotient identity, one polynomial in (x, u) per y^q.

    R_q = [f0^q + sum_j u^j f^q_j]
          - [g0^q(x1..xn) + sum_k g^q_k(x1..xn) (varphi^k + sum_j u^j beta^k_j)]

    The claimed quotient is valid exactly when every residual is the zero
    polynomial.
    """
    m, r, n, s = sys.m, sys.r, qsys.n, qsys.s
    if morph.s != s:
        raise ValueError("morphism and quotient system disagree on the input count")
    if n >= m:
        raise ValueError("quotient must have fewer states than the system")
    nv = m + r  # joint (x, u) variable space
    u_vars = [Poly.variable(nv, m + j) for j in range(r)]
    v_exprs = []
    for k in range(s):
        expr = morph.varphi[k].embed(nv)
        for j in range(r):
            expr = expr + u_vars[j] * morph.beta[k][j].embed(nv)
        v_exprs.append(expr)
    residuals = []
    for q in range(n):
        lhs = sys.f0[q].embed(nv)
        for j in range(r):
            lhs = lhs + u_vars[j] * sys.f[j][q].embed(nv)
        rhs = qsys.g0[q].embed(nv)
        for k in range(s):
            rhs = rhs + qsys.g[k][q].embed(nv) * v_exprs[k]
        residuals.append(lhs - rhs)
    return residuals


def quotient_witness(residuals: Sequence[Poly]) -> tuple[int, tuple[int, ...], Fraction] | None:
    """First nonzero residual term as (q 1-based, monomial, coefficient)."""
    for q, res in enumerate(residuals):
        if not res.is_zero():
            mi = min(res.terms)
            return (q + 1, mi, res.terms[mi])
    return None


def pullback_clf(vtilde: Poly, m: int) -> Poly:
    """Pull a function of y1..yn back through the coordinate projection."""
    if vtilde.nvars > m:
        raise ValueError("quotient function has more variables than the state space")
    return vtilde.embed(m)


def quotient_closed_loop(qsys: QuotientSystem, alpha: Sequence[Poly]) -> list[Poly]:
    """The quotient vector field g0 + sum_k alpha_k g_k closed by the feedback alpha."""
    if len(alpha) != qsys.s:
        raise ValueError("feedback must have one component per quotient input")
    field = list(qsys.g0)
    for k in range(qsys.s):
        field = [field[q] + qsys.g[k][q] * alpha[k] for q in range(qsys.n)]
    return field


def closed_loop_decrease(qsys: QuotientSystem, vtilde: Poly, alpha: Sequence[Poly]) -> Poly:
    """W(y): derivative of vtilde along the alpha-closed quotient loop."""
    return lie_derivative(quotient_closed_loop(qsys, alpha), vtilde)


@dataclass(frozen=True)
class QuotientCLF:
    """Validated quotient Lyapunov data: vtilde, feedback alpha, decrease W."""

    vtilde: Poly
    alpha: tuple[Poly, ...]
    w: Poly


def make_quotient_clf(qsys: QuotientSystem, vtilde: Poly, alpha: Sequence[Poly], grid: Lattice) -> QuotientCLF:
    """Build and validate the quotient Lyapunov package.

    Checks vtilde(0) = 0 with a positive definite Hessian at the origin,
    and W(0) = 0 with W < 0 on the check grid away from the origin (exact
    rational evaluation).
    """
    n = qsys.n
    if vtilde.nvars != n or any(a.nvars != n for a in alpha):
        raise ValueError("vtilde and alpha must be polynomials in the quotient variables")
    if vtilde.constant_term != 0:
        raise CLFValidationError("vtilde(0) != 0")
    hess = hessian_at_origin(vtilde)
    eigs = np.linalg.eigvalsh(hess)
    if eigs.min() <= HESSIAN_EIG_TOL:
        raise CLFValidationError(f"vtilde Hessian at 0 is not positive definite (min eig {eigs.min():.3e})")
    w = closed_loop_decrease(qsys, vtilde, alpha)
    if w.constant_term != 0:
        raise CLFValidationError("W(0) != 0")
    index = geometry.first_nonnegative(w, grid)
    if index is not None:
        raise CLFValidationError(f"W is not negative at grid point {tuple(map(str, grid.exact(index)))}")
    return QuotientCLF(vtilde, tuple(alpha), w)


def hessian_at_origin(p: Poly) -> np.ndarray:
    n = p.nvars
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            exps = [0] * n
            exps[i] += 1
            exps[j] += 1
            c = p.coeff(tuple(exps))
            hess[i, j] = float(c * (2 if i == j else 1))
    return hess


@dataclass(frozen=True)
class TargetData:
    """The feedback-independent part X of the target dynamics, plus the
    pulled-back quotient Lyapunov function."""

    x_field: tuple[Poly, ...]
    pullback_vtilde: Poly


def build_target_x(
    sys: ControlAffineSystem,
    qsys: QuotientSystem,
    conn: EhresmannConnection,
    clf: QuotientCLF,
) -> TargetData:
    """X = lift of the closed quotient loop - gradient of the pulled-back
    vtilde - drift, all exact.

    X must vanish at the origin; otherwise the problem data is incompatible
    with an equilibrium at 0 and the construction is rejected.
    """
    m, n = sys.m, qsys.n
    if conn.m != m or conn.n != n:
        raise ValueError("connection shape does not match the system and quotient")
    lifted = geometry.horizontal_lift(conn, quotient_closed_loop(qsys, clf.alpha))
    pulled = pullback_clf(clf.vtilde, m)
    gradient = grad(pulled)
    x_field = tuple(lifted[i] - gradient[i] - sys.f0[i] for i in range(m))
    bad = [i + 1 for i, comp in enumerate(x_field) if comp.constant_term != 0]
    if bad:
        raise EquilibriumError(
            f"target field X does not vanish at the origin (components {bad}); "
            "place both equilibria at 0"
        )
    return TargetData(x_field, pulled)
