"""Reference symbol computations the closed form in integrability replaced.

``sym_intersection_dim`` counts dim G2 from a basis of the symmetric
matrices, ``intersection_dim`` counts a subspace intersection from three
SVD ranks, ``reference_identity`` is the quasi-regularity identity on any
basis, each intersection by those three ranks, as the package computed it
before it read the ranks it already knows, and ``permutation_search`` is
the coordinate-order search (every permutation, then random bases, which
only the reference identity takes) that ``quasi_regular_search`` used
before its closed form.  ``symbol_dims`` is the symbol as the package
computed it before it read G1 off the graph form: float spans of C(0) and
ker P_VM(0)^T, intersected, then ``quasi_regular_search``.  All are kept as
test oracles only.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np
from matrix_oracle import _complement_projector, intersection_basis, null_rows

from liftlyap.geometry import Frame
from liftlyap.integrability import SymbolDims, quasi_regular_identity
from liftlyap.numutil import numeric_rank
from liftlyap.poly import PolyMatrix

SYMBOL_RANDOM_BASES = 20
SYMBOL_SEED = 0


def intersection_dim(a: np.ndarray, b: np.ndarray) -> int:
    """dim(span(a) & span(b)) via rank(a) + rank(b) - rank([a; b])."""
    ra = numeric_rank(a)
    rb = numeric_rank(b)
    if ra == 0 or rb == 0:
        return 0
    return ra + rb - numeric_rank(np.vstack([a, b]))


def reference_identity(g1_basis: np.ndarray, dim_g2: int, basis_rows: np.ndarray) -> bool:
    """dim_g2 == dim(G1) + sum_{j=1..m-1} dim(G1 & Sigma_j), each term by three SVD ranks."""
    m = basis_rows.shape[0]
    total = numeric_rank(g1_basis)
    for j in range(1, m):
        total += intersection_dim(g1_basis, basis_rows[j:])
    return total == dim_g2


def sym_basis(m: int) -> list[np.ndarray]:
    """Basis of the symmetric m-by-m matrices: E_ii, then E_ij + E_ji."""
    out = []
    for i in range(m):
        e = np.zeros((m, m))
        e[i, i] = 1.0
        out.append(e)
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros((m, m))
            e[i, j] = 1.0
            e[j, i] = 1.0
            out.append(e)
    return out


def sym_intersection_dim(e_span: np.ndarray, f_span: np.ndarray) -> int:
    """dim(S^2(span e) & S^2(span f)) for subspaces given by spanning rows.

    A symmetric matrix lies in S^2 of a subspace exactly when its column
    space does, i.e. when the projector onto the orthogonal complement of
    the subspace annihilates it.  Stacking both complement projectors over
    a basis of the symmetric matrices reduces the dimension count to a
    kernel computation.
    """
    e_span = np.atleast_2d(np.asarray(e_span, dtype=float))
    f_span = np.atleast_2d(np.asarray(f_span, dtype=float))
    m = e_span.shape[1]
    pe = _complement_projector(e_span)
    pf = _complement_projector(f_span)
    basis = sym_basis(m)
    columns = []
    for s in basis:
        columns.append(np.concatenate([(pe @ s).ravel(), (pf @ s).ravel()]))
    stacked = np.array(columns).T  # maps sym coordinates to stacked projections
    dim_sym = len(basis)
    return dim_sym - numeric_rank(stacked, scale=1.0)


def permutation_search(e_span: np.ndarray, f_span: np.ndarray) -> SymbolDims:
    """Symbol dimensions by searching every coordinate order, then random bases."""
    e_span = np.atleast_2d(np.asarray(e_span, dtype=float))
    m = e_span.shape[1]
    dim_g1 = intersection_dim(e_span, f_span)
    dim_g2 = sym_intersection_dim(e_span, f_span)
    g1_basis = intersection_basis(e_span, f_span)

    for perm in itertools.permutations(range(m)):
        if quasi_regular_identity(g1_basis, dim_g2, perm):
            return SymbolDims(dim_g1, dim_g2, True, tuple(p + 1 for p in perm))
    rng = np.random.default_rng(SYMBOL_SEED)
    for _ in range(SYMBOL_RANDOM_BASES):
        basis = rng.standard_normal((m, m))
        if numeric_rank(basis) != m:
            continue
        if reference_identity(g1_basis, dim_g2, basis):
            return SymbolDims(dim_g1, dim_g2, True, None)
    return SymbolDims(dim_g1, dim_g2, False, None)


def quasi_regular_search(e_span: np.ndarray, f_span: np.ndarray) -> SymbolDims:
    """Symbol dimensions for a covector-subspace pair, in closed form.

    G1 is the intersection of the two spans and dim G2 = k(k+1)/2 with
    k = dim G1.  The coordinate order leads with G1's pivot columns, picked
    greedily in index order, then lists the other coordinates in ascending
    order; it is the first order, lexicographically, that satisfies the
    identity, and one identity call certifies it (reported 1-based when it
    holds).
    """
    e_span = np.atleast_2d(np.asarray(e_span, dtype=float))
    m = e_span.shape[1]
    dim_g1 = intersection_dim(e_span, f_span)
    g1_basis = intersection_basis(e_span, f_span)
    lead: list[int] = []
    for i in range(m):
        if len(lead) == dim_g1:
            break
        # g1_basis rows are orthonormal, so a column of pure roundoff must rank 0
        if numeric_rank(g1_basis[:, lead + [i]], scale=1.0) > len(lead):
            lead.append(i)
    perm = lead + [i for i in range(m) if i not in lead]
    dim_g2 = dim_g1 * (dim_g1 + 1) // 2
    quasi_regular = quasi_regular_identity(g1_basis, dim_g2, perm)
    return SymbolDims(dim_g1, dim_g2, quasi_regular, tuple(p + 1 for p in perm) if quasi_regular else None)


def symbol_dims(c_frame: Frame, p_vm: PolyMatrix, point: Sequence[float]) -> SymbolDims:
    """Symbol dimensions of the lift system at a point.

    E* is spanned by the control directions viewed as covectors and F* is
    the annihilator of the horizontal subspace, i.e. the kernel of P_VM
    transposed.
    """
    e_span = c_frame.as_matrix().at(point).T  # rows span E*
    f_span = null_rows(p_vm.at(point).T)
    return quasi_regular_search(e_span, f_span)
