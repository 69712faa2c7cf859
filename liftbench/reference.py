"""A fixed reference workload that times the host, not the program.

The benchmark shares its host with other tenants, and on a 2-vCPU VM the
same solve ran at speeds up to a factor of two apart, in spells lasting
from under a second to half an hour.  Timing this kernel next to each solve
measures the host's speed at that moment; ``run.py`` scales the solve by it.
The kernel uses no liftlyap code, so a change to the program cannot move
it.  Its mix follows the program's: exact rational elimination as in the
lift, small dense SVDs as in the rank checks, and float evaluation of
dict-held polynomials as in the simulation.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# The kernel's time on a quiet core of the 2-vCPU VM (Xeon, 2.1 GHz) on
# which the bounds were set.  Times scaled by it read as seconds there.
REFERENCE_SECONDS = 0.02


def kernel() -> float:
    n = 14
    m = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i * j) % 7) if (i + 2 * j) % 3 else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        m[i][i] += 4
    for c in range(n):
        inv = 1 / m[c][c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    a = np.arange(35.0).reshape(7, 5) % 3.0
    for k in range(150):
        np.linalg.svd(a + k, compute_uv=False)
    terms = {(i % 3, i % 5, i % 2): 1.0 / (1 + i) for i in range(40)}
    x = (0.3, -0.7, 0.5)
    total = 0.0
    for _ in range(60):
        for e, c in terms.items():
            total += c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2]
    return total + float(m[0][0])


def seconds() -> float:
    """Time of two kernel calls: the host's speed now, inversely."""
    start = perf_counter()
    kernel()
    kernel()
    return perf_counter() - start
