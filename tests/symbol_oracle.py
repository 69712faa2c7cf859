"""Reference symbol computations the closed form in integrability replaced.

``sym_intersection_dim`` counts dim G2 from a basis of the symmetric
matrices, and ``permutation_search`` is the coordinate-order search (every
permutation, then random bases) that ``quasi_regular_search`` used before
its closed form.  Both are kept as test oracles only.
"""

from __future__ import annotations

import itertools

import numpy as np

from liftlyap.integrability import SymbolDims, quasi_regular_identity
from liftlyap.numutil import intersection_basis, intersection_dim, numeric_rank, orth_rows

SYMBOL_RANDOM_BASES = 20
SYMBOL_SEED = 0


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


def _complement_projector(a: np.ndarray) -> np.ndarray:
    basis = orth_rows(a)
    return np.eye(a.shape[1]) - basis.T @ basis


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
        basis = np.eye(m)[list(perm)]
        if quasi_regular_identity(g1_basis, dim_g2, basis):
            return SymbolDims(dim_g1, dim_g2, True, tuple(p + 1 for p in perm))
    rng = np.random.default_rng(SYMBOL_SEED)
    for _ in range(SYMBOL_RANDOM_BASES):
        basis = rng.standard_normal((m, m))
        if numeric_rank(basis) != m:
            continue
        if quasi_regular_identity(g1_basis, dim_g2, basis):
            return SymbolDims(dim_g1, dim_g2, True, None)
    return SymbolDims(dim_g1, dim_g2, False, None)
