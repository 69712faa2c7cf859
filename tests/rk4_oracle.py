"""The numpy RK4 that ``synth.simulate_rk4`` replaced, kept as a test oracle.

``simulate_rk4`` below is the body that stepped a float64 array with vector
expressions and called the field once per stage; ``synth.simulate_rk4`` now
runs a generated loop over Python floats, with the closed loop's polynomials
inline, in the same order of operations and must give the same trajectory bit
for bit.  The field must return an array, so a closed loop is passed wrapped
in ``np.asarray``: ``lambda x: np.asarray(loop(x))``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from liftlyap.poly import Poly
from liftlyap.synth import DIVERGENCE_GUARD, DivergenceError, TrajectoryRecord, VectorMap


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
