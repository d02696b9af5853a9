"""Per-solve diagnostics."""

from dataclasses import dataclass, field


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
