"""Numeric rank of one matrix and of stacked matrices."""

import numpy as np
import pytest

from liftlyap.numutil import numeric_rank


@pytest.mark.parametrize(
    "lead, rows, cols",
    [((8,), 3, 3), ((6,), 2, 5), ((6,), 4, 2), ((2, 3), 4, 3), ((3,), 4, 0), ((3,), 0, 4), ((0,), 3, 3)],
)
def test_stacked_rank_is_each_matrix_rank(lead, rows, cols):
    rng = np.random.default_rng(7)
    stack = np.zeros(lead + (rows, cols))
    expected = np.zeros(lead, dtype=int)
    for index in np.ndindex(*lead):
        # rank k by construction; the first matrix stays all zero
        k = 0 if not any(index) else int(rng.integers(0, min(rows, cols) + 1))
        stack[index] = rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
        expected[index] = k
    for scale in (None, 1.0):
        ranks = numeric_rank(stack, scale=scale)
        assert ranks.shape == lead
        np.testing.assert_array_equal(ranks, expected)
        for index in np.ndindex(*lead):
            one = numeric_rank(stack[index], scale=scale)
            assert type(one) is int and one == ranks[index]
