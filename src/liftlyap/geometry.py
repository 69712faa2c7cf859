"""Distributions, complements, projections, and connections on R^m.

Everything lives in a single coordinate chart.  The state space fibres over
its first n coordinates; the vertical directions are the remaining m-n
coordinate directions, and a connection tilts the horizontal complement by
polynomial coefficients gamma.  Coordinate labels in returned mappings are
1-based (matching the usual index notation); programmatic variable indices
are 0-based throughout.

The check grid is a :class:`Lattice` over [-1, 1]^m, built once by
:func:`default_grid`; only this module reads its integer numerators.  A
frame whose entries are all constant has one value on the whole grid, so
the frame checks decide it exactly at the origin, by one Fraction
elimination (:func:`poly.origin_pivots`), with no grid evaluation and no
SVD.  A polynomial frame is evaluated and ranked in floats once per
distinct value on the grid (:meth:`Lattice.distinct`), since it reads only
some of the variables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .numutil import numeric_rank
from .poly import (
    Poly,
    PolyMatrix,
    constant_elimination,
    lie_brackets,
    origin_pivots,
    pivot_inverse,
    poly_adjugate,
    poly_det,
)

MAX_GRID_POINTS = 100_000  # largest per_axis ** m; the point-by-point grid checks hold every point at once


class FrameRankError(ValueError):
    """A frame fails its constant-rank check on the grid, or the lift system its rank at the origin."""


class ComplementError(ValueError):
    """No usable complement to the control distribution was found."""


@dataclass(frozen=True, eq=False)
class Lattice:
    """The check grid: P points as integer (P, m) numerators over one denominator, and as floats."""

    numerators: np.ndarray
    denominator: int
    points: np.ndarray  # numerators / denominator, each correctly rounded

    def __len__(self) -> int:
        return len(self.numerators)

    def exact(self, index: int) -> tuple[Fraction, ...]:
        """Point ``index`` in exact rationals."""
        return tuple(Fraction(k, self.denominator) for k in self.numerators[index].tolist())

    def distinct(self, variables: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """One lattice row per combination of digits on ``variables``, and each point's position among them.

        For a :func:`default_grid` lattice: the digit of numerator k is (k + q) / 2, and
        combinations run in ``itertools.product`` order over ``variables`` taken ascending.
        Each combination's representative has digit 0 off ``variables``; an appended origin
        is its own representative, last.  So ``index`` is onto ``range(len(rows))``.
        """
        q = self.denominator
        per_axis = q + 1
        m = self.numerators.shape[1]
        size = per_axis**m
        rows = np.zeros(1, dtype=np.int64)
        index = np.zeros(size, dtype=np.int64)
        for i in sorted(variables):
            rows = (rows[:, None] + np.arange(per_axis) * per_axis ** (m - 1 - i)).ravel()
            index = index * per_axis + (self.numerators[:size, i] + q) // 2
        if len(self) > size:
            index = np.append(index, len(rows))
            rows = np.append(rows, size)
        return rows, index


def validate_grid(m: int, per_axis: int) -> None:
    """Refuse a check grid of fewer than 2 points per axis or more than MAX_GRID_POINTS points."""
    if per_axis < 2:
        raise ValueError("grid must be at least 2 points per axis")
    if per_axis**m > MAX_GRID_POINTS:
        raise ValueError(f"grid ** m must not exceed {MAX_GRID_POINTS} points")


@functools.lru_cache(maxsize=4)  # a run reads an m- and an n-dimensional grid; 0.23 MiB at m = 7, per_axis = 3
def default_grid(m: int, per_axis: int) -> Lattice:
    """The check grid: per_axis values per axis over [-1, 1]^m, in ``itertools.product`` order.

    An even per_axis misses the origin, so it is appended last.  The grid is
    built once per (m, per_axis) and shared, so its arrays are read-only.
    """
    validate_grid(m, per_axis)
    q = per_axis - 1
    values = np.arange(-q, q + 1, 2)
    size = per_axis**m
    numerators = np.zeros((size + 1 - per_axis % 2, m), dtype=np.int64)  # the origin row stays 0
    for i in range(m):
        # column i of the product, written through a strided view: no full-size temporary
        numerators[:size, i].reshape(per_axis**i, per_axis, -1)[...] = values[:, None]
    points = numerators / q
    numerators.setflags(write=False)
    points.setflags(write=False)
    return Lattice(numerators, q, points)


def first_nonnegative(p: Poly, grid: Lattice) -> int | None:
    """Index of the first grid point off the origin where p >= 0, by exact evaluation, or None.

    The sign is decided in integers.  With den the lcm of p's coefficient
    denominators, q the grid denominator and d = deg p, a point k/q has

        den * q^d * p(k/q) = sum_a (den * c_a) * q^(d - |a|) * k^a,

    an integer with the sign of p(k/q).

    It is computed for every row of the lattice at once, as integer arrays:
    each power k_i^e once per (variable, exponent), each term c' * k^a as a
    product of those columns starting from its coefficient c' = den * c_a *
    q^(d - |a|), and the terms summed in p's term order.  With K the largest
    |numerator|, B = sum_a |c'_a| * K^|a| bounds every power, partial
    product and partial sum, so the arrays are int64 when B < 2^63 and
    Python ints (dtype object) otherwise; both are exact.
    """
    q = grid.denominator
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    d = p.degree()
    terms = [
        (c.numerator * (den // c.denominator) * q ** (d - sum(mi)), sum(mi), [(i, e) for i, e in enumerate(mi) if e])
        for mi, c in p.terms.items()
    ]
    k = grid.numerators
    big = max(1, int(k.max()), -int(k.min()))  # K, but at least 1: B then bounds each c' too
    dtype = np.int64 if sum(abs(c) * big**degree for c, degree, _ in terms) < 2**63 else object
    powers: dict[tuple[int, int], np.ndarray] = {}
    total = np.zeros(len(k), dtype=dtype)
    term = np.empty_like(total)  # one buffer for every term: fresh arrays of this size each cost page faults
    for c, _, factors in terms:
        term[...] = c
        for i, e in factors:
            if (i, e) not in powers:
                powers[i, e] = k[:, i].astype(dtype, copy=False) ** e
            term *= powers[i, e]
        total += term
    for index in np.flatnonzero(total >= 0):
        if k[index].any():
            return int(index)
    return None


def _support(rows: Iterable[Sequence[Poly]]) -> set[int]:
    """The variables that the polynomials in ``rows`` read."""
    return {i for row in rows for p in row for mi in p.terms for i, e in enumerate(mi) if e}


def _distinct_values(matrix: PolyMatrix, grid: Lattice, support: set[int]) -> tuple[np.ndarray, np.ndarray]:
    """``matrix`` at one grid point per distinct value, and each grid point's position among them.

    A value depends only on the variables the entries read (``support``), so
    one point per combination of digits on those gives every value on the
    grid, bit for bit.
    """
    rows, index = grid.distinct(support)
    return matrix.at(grid.points[rows]), index


def _require_rank_on_grid(matrix: PolyMatrix, grid: Lattice, rank: int, message: str) -> None:
    """Raise FrameRankError with the first grid point, in grid order, where ``matrix`` does not have rank ``rank``.

    A constant matrix has one value on the whole grid: its rank is that of
    one exact elimination at the origin (:func:`origin_pivots`), and a
    failure is reported at the first grid point.  A polynomial one is
    ranked in floats once per distinct value.
    """
    support = _support(matrix.entries)
    if not support:
        if len(origin_pivots(matrix)) != rank:
            raise FrameRankError(message.format(tuple(grid.points[0].tolist())))
        return
    values, index = _distinct_values(matrix, grid, support)
    bad = np.flatnonzero(numeric_rank(values)[index] != rank)
    if bad.size:
        raise FrameRankError(message.format(tuple(grid.points[bad[0]].tolist())))


@dataclass(frozen=True)
class Frame:
    """Column vector fields spanning a constant-rank distribution on R^m."""

    dim: int
    fields: tuple[tuple[Poly, ...], ...]

    @staticmethod
    def build(dim: int, fields: Sequence[Sequence[Poly]], grid: Lattice) -> "Frame":
        """Validate shapes and constant rank on the check grid."""
        cols = tuple(tuple(col) for col in fields)
        for col in cols:
            if len(col) != dim:
                raise ValueError("frame column length does not match dimension")
            for entry in col:
                if entry.nvars != dim:
                    raise ValueError("frame entries must be polynomials in the ambient variables")
        frame = Frame(dim, cols)
        if cols:
            _require_rank_on_grid(frame.as_matrix(), grid, len(cols), "frame drops rank at grid point {}")
        return frame

    @property
    def rank(self) -> int:
        return len(self.fields)

    def as_matrix(self) -> PolyMatrix:
        """Columns of the frame as an m-by-rank polynomial matrix."""
        return PolyMatrix(
            [[self.fields[j][i] for j in range(len(self.fields))] for i in range(self.dim)],
            cols=len(self.fields),
            nvars=self.dim,
        )


def control_distribution(system, grid: Lattice) -> Frame:
    """Frame spanned by the control vector fields of a control-affine system."""
    return Frame.build(system.m, system.f, grid)


def complement_frame(c: Frame, user_d: Sequence[Sequence[Poly]] | None, grid: Lattice) -> Frame:
    """A distribution D with TM = C (+) D, from the user or by coordinate search.

    Either way [C | D] has full rank at every grid point.  The automatic
    search walks the coordinate directions in index order and keeps those
    that enlarge the span at every grid point; supply ``user_d`` when that
    search is too naive.  For a constant C the search is one exact
    elimination of [C^T; I] (:func:`origin_pivots`), which keeps a unit row
    exactly when it is independent of the rows before it; a polynomial C is
    ranked in floats once per distinct value and candidate.  det[C | D]
    need not be constant (see :func:`build_projections`).
    """
    m = c.dim
    if user_d is not None:
        d = Frame.build(m, user_d, grid)
        if c.rank + d.rank != m:
            raise ComplementError("user complement has the wrong rank")
        t = Frame(m, c.fields + d.fields).as_matrix()
        _require_rank_on_grid(t, grid, m, "[C | D] is singular at grid point {}")
        return d

    units = [tuple(Poly.const(m, 1) if j == i else Poly.zero(m) for j in range(m)) for i in range(m)]
    support = _support(c.fields)
    if not support:
        kept = origin_pivots(PolyMatrix([*c.fields, *units]))
        chosen = [units[i - c.rank] for i, _ in kept if i >= c.rank]
    else:
        # [C | chosen | candidate] at each distinct value of C: C evaluated straight
        # into the first columns of one array, then one unit column per step
        zero = (Poly.zero(m),) * m
        span = _distinct_values(Frame(m, c.fields + (zero,) * (m - c.rank)).as_matrix(), grid, support)[0]
        chosen = []
        for i in range(m):
            k = c.rank + len(chosen)
            if k == m:
                break
            span[..., k] = 0.0
            span[:, i, k] = 1.0
            if np.all(numeric_rank(span[..., : k + 1]) == k + 1):
                chosen.append(units[i])
    if len(chosen) != m - c.rank:
        raise ComplementError("no coordinate complement found; supply one explicitly")
    return Frame(m, tuple(chosen))


class EhresmannConnection:
    """Connection on the fibration over the first n coordinates.

    ``gamma[p][q]`` is the coefficient attached to vertical coordinate
    n+1+p and base coordinate 1+q (0-based storage of the 1-based labels);
    all entries are polynomials in the m ambient variables.
    """

    __slots__ = ("m", "n", "gamma")

    def __init__(self, m: int, n: int, gamma: Sequence[Sequence[Poly]]):
        if not 1 <= n < m:
            raise ValueError("need at least one base and one fibre coordinate (1 <= n < m)")
        gamma = tuple(tuple(row) for row in gamma)
        if len(gamma) != m - n or any(len(row) != n for row in gamma):
            raise ValueError(f"gamma must be ({m - n})x{n}")
        for row in gamma:
            for entry in row:
                if entry.nvars != m:
                    raise ValueError("gamma entries must be polynomials in the m ambient variables")
        self.m = m
        self.n = n
        self.gamma = gamma


def build_p_vm(conn: EhresmannConnection) -> PolyMatrix:
    """P_VM: the m-by-n matrix with the identity on the base block and gamma below.

    Its columns span ann(VM), and its transpose has ann(HM) as kernel.
    """
    m, n = conn.m, conn.n
    rows = []
    for i in range(n):
        rows.append([Poly.const(m, 1) if i == q else Poly.zero(m) for q in range(n)])
    for p in range(m - n):
        rows.append(list(conn.gamma[p]))
    return PolyMatrix(rows, cols=n, nvars=m)


def horizontal_lift(conn: EhresmannConnection, w: Sequence[Poly]) -> list[Poly]:
    """Lift a base vector field (components in y1..yn) to the total space: P_VM w.

    Base slot q carries w^q with y identified with the first base
    coordinates; fibre slot p carries sum_q gamma^p_q * w^q.
    """
    m, n = conn.m, conn.n
    if len(w) != n:
        raise ValueError(f"expected {n} base components, got {len(w)}")
    if any(comp.nvars != n for comp in w):
        raise ValueError("base components must be polynomials in the n base variables")
    return build_p_vm(conn).matvec([comp.embed(m) for comp in w])


def curvature_components(conn: EhresmannConnection) -> dict[tuple[int, int, int], Poly]:
    """Curvature of the connection, one component per (l, q1 < q2).

    Keys are 1-based coordinate labels (l is a fibre coordinate, q1 and q2
    base coordinates).  The connection is flat exactly when every returned
    polynomial is identically zero.  F^l_(q1,q2) is component l of the Lie
    bracket [H_q2, H_q1] of the horizontal lifts H_q = d/dx^q +
    sum_l1 gamma^l1_q d/dx^l1, the columns of P_VM:

        F^l_(q1,q2) = d(gamma^l_q1)/dx^q2 - d(gamma^l_q2)/dx^q1
                      + sum_l1 [ gamma^l1_q2 * d(gamma^l_q1)/dx^l1
                                 - gamma^l1_q1 * d(gamma^l_q2)/dx^l1 ]

    with l1 running over the fibre coordinates; the base components vanish.
    """
    m, n = conn.m, conn.n
    p_vm = build_p_vm(conn)
    pairs = [(q2, q1) for q1 in range(n) for q2 in range(q1 + 1, n)]
    brackets = lie_brackets([p_vm.col(q) for q in range(n)], pairs)
    return {(l + 1, q1 + 1, q2 + 1): bracket[l] for l in range(n, m) for (q2, q1), bracket in zip(pairs, brackets)}


def build_projections(c: Frame, d: Frame, conn: EhresmannConnection) -> tuple[PolyMatrix, PolyMatrix]:
    """``(p_d, p_vm)``: the numerator of P_D for a chosen complement, and :func:`build_p_vm`.

    With T = [C | D], P_D is the bottom rows of T^-1 = adj(T) / det(T).
    Both are scaled by 1/det(T)(0), so ``p_d`` holds the bottom rows of
    adj(T) / det(T)(0), and with delta = det(T) / det(T)(0), which has
    delta(0) = 1, P_D = p_d / delta; p_d @ C = 0 and p_d @ D = delta * I
    hold identically.  Nothing downstream divides by delta: the lift PDE
    and its obstructions are exact identities on ``p_d``.  When det(T) is
    constant, delta is 1 and ``p_d`` is P_D itself.  [C | D] must be
    invertible at the origin, which is an exact check here; its rank on
    the rest of the grid is checked by :func:`complement_frame`.

    A constant [C | D] gets det from one exact Fraction elimination of
    [T | I], which T keeps, and ``p_d`` is the bottom rows of T^-1 read off
    that elimination (:func:`poly.pivot_inverse`), with no adjugate.  One
    with a polynomial entry gets det and adj by cofactor expansion, whose
    term order fixes the float sums downstream; its cost grows factorially
    with m (less when rows have zeros), and more than ``poly.MAX_MINORS``
    minors (a dense 8x8 adjugate, not its determinant) raise
    ExpansionLimitError, an input error.
    """
    m = c.dim
    if d.dim != m or c.rank + d.rank != m:
        raise ValueError("C and D do not split the tangent space")
    if conn.m != m:
        raise ValueError("connection dimension does not match the frames")
    t = Frame(m, c.fields + d.fields).as_matrix()
    det = poly_det(t)
    d0 = det.constant_term
    if d0 == 0:
        raise FrameRankError("[C | D] is singular at the origin")
    basis = constant_elimination(t)
    if basis is None:
        adj = poly_adjugate(t).scale(Fraction(1) / d0)
        p_d = [adj.row(i) for i in range(c.rank, m)]
    else:
        inverse = pivot_inverse(basis, m)
        p_d = [[Poly.const(m, a) for a in inverse[i]] for i in range(c.rank, m)]
    return PolyMatrix(p_d, cols=m, nvars=m), build_p_vm(conn)
