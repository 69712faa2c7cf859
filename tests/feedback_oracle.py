"""The pointwise least-squares feedback, as a reference for ``synth.solve_feedback``.

At each point x, u(x) is the least-norm solution of F(x) u = rhs(x) by
``np.linalg.lstsq``, and the closed loop is f0 + u_1 F_1 + ... + u_r F_r
summed left to right.  The package forms one rational feedback
u = N / den instead; where F(x) has rank r both are the unique solution.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from liftlyap.poly import Poly
from liftlyap.sysmodel import ControlAffineSystem


def control_at(sys: ControlAffineSystem, x: Sequence[float]) -> np.ndarray:
    """F(x) as an (m, r) array."""
    return np.array([[p.eval_float(x) for p in col] for col in sys.f]).reshape(sys.r, sys.m).T


def feedback_at(sys: ControlAffineSystem, rhs: Sequence[Poly], x: Sequence[float]) -> np.ndarray:
    """The least-norm u of F(x) u = rhs(x)."""
    u, *_ = np.linalg.lstsq(control_at(sys, x), np.array([p.eval_float(x) for p in rhs]), rcond=None)
    return u


def closed_loop_at(sys: ControlAffineSystem, rhs: Sequence[Poly], x: Sequence[float]) -> np.ndarray:
    """f0(x) + F(x) u(x) with the least-norm u."""
    f_x, u = control_at(sys, x), feedback_at(sys, rhs, x)
    f0 = np.array([p.eval_float(x) for p in sys.f0])
    return sum((u[j] * f_x[:, j] for j in range(sys.r)), f0)
