"""Lift a quotient Lyapunov function to the full control system, or report
the structural obstruction that prevents it.

The pipeline: verify the claimed quotient exactly, build the projection
data and the target vector field, test the integrability obstructions
(connection flatness, two antisymmetric coefficient conditions, pointwise
solvability, symbol involutivity), solve for the Taylor coefficients of
the lift V by the graded Euler operator on the graph form, synthesize the
feedback, and validate the closed loop by simulation and an exact decrease
check on the grid.
"""

from .geometry import EhresmannConnection, Frame, ProjectionPair, default_grid
from .integrability import IntegrabilityReport, ResidualSystem
from .lift import JetSolution
from .parsing import PolyParseError, parse_poly
from .poly import Poly, PolyMatrix, format_poly
from .sysmodel import (
    ControlAffineSystem,
    QuotientCLF,
    QuotientMorphism,
    QuotientSystem,
    TargetData,
)

__version__ = "0.1.0"
