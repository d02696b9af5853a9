"""What both subproblem solvers, ``ppa_solve`` and ``admm_solve``, return
from ``(spec, u0=None)``, and the one exception they raise."""

from dataclasses import dataclass, field

import numpy as np


class SolverError(RuntimeError):
    """A subproblem solver failed numerically (not a non-convergence)."""


@dataclass
class SolveState:
    """A subproblem solution: the coefficients beta and the multiplier u in
    the KKT orientation, u in the check-loss subgradient at z = y - X beta.
    Passed back as ``u0``, u warm starts either solver."""

    beta: np.ndarray
    u: np.ndarray


@dataclass
class SolverReport:
    """Diagnostics of one solver run."""

    converged: bool
    iterations: int
    objective: float
    residuals: dict
    wall_ms: float
    inner_iterations: int = 0
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        if self.wall_ms < 0:
            raise ValueError("wall_ms must be nonnegative")
        if any(v < 0 for v in self.residuals.values()):
            raise ValueError("residual measures must be nonnegative")
