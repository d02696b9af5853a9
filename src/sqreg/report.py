"""Per-solve diagnostics and benchmark-run records."""

import numpy as np
from dataclasses import dataclass, field


@dataclass
class SolverReport:
    """Diagnostics of one solver run."""

    converged: bool
    iterations: int
    objective: float
    residuals: dict
    wall_ms: float
    solver: str = ""
    inner_iterations: int = 0
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        if self.wall_ms < 0:
            raise ValueError("wall_ms must be nonnegative")
        if any(v < 0 for v in self.residuals.values()):
            raise ValueError("residual measures must be nonnegative")


@dataclass
class BenchRun:
    """One benchmark scenario: per-replication metrics plus aggregates."""

    scenario: str
    records: list

    @property
    def replications(self):
        return len(self.records)

    def aggregate(self):
        """Mean and sample standard deviation of every numeric metric."""
        keys = sorted({k for r in self.records for k, v in r.items() if isinstance(v, (int, float)) and not isinstance(v, bool)})
        out = {"scenario": self.scenario, "replications": self.replications}
        for k in keys:
            vals = np.asarray([float(r[k]) for r in self.records if k in r])
            out[f"{k}_mean"] = float(vals.mean())
            out[f"{k}_sd"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        return out
