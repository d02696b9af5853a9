"""Surrogate family for the zero-norm: phi, its conjugate, the DC penalty
h_rho(t) = rho|t| - psi*(rho|t|), closed-form weight updates, and the exact
penalty threshold.

Each family, selected by name, is a quadratic phi(t) = A t^2 + B t + C on
[0, 1] with min phi = 0 and phi(1) = 1, and every quantity but the weight
update is one formula in (A, B, C). mcp's phi, whose minimum lies inside
[0, 1], is evaluated in vertex form A (t - v)^2 with v = -B/(2A), so that
it is exactly 0 at its minimizer t* = v:

- ``capped-l1``: (0, 1, 0); h gives the capped-l1 penalty.
- ``scad``: ((a-1)/(a+1), 2/(a+1), 0) with a > 1; h reduces to SCAD.
- ``mcp``: (a^2/4, a - a^2/2, (a-2)^2/4) with a > 2; h reduces to MCP.
"""

import numpy as np
from dataclasses import dataclass, field

KINDS = ("capped-l1", "scad", "mcp")


@dataclass(frozen=True)
class SurrogateFamily:
    """The family ``kind`` with shape ``a``: scad and mcp take 3.7 when it is
    None; capped-l1 has no shape parameter and needs None."""

    kind: str
    a: float = None
    coef: tuple = field(init=False, repr=False, compare=False)  # (A, B, C)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown surrogate kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "capped-l1" and self.a is not None:
            raise ValueError("the capped-l1 surrogate takes no --a")
        if self.kind != "capped-l1" and self.a is None:
            object.__setattr__(self, "a", 3.7)
        if self.kind == "scad" and not self.a > 1.0:
            raise ValueError("scad family needs a > 1")
        if self.kind == "mcp" and not self.a > 2.0:
            raise ValueError("mcp family needs a > 2")
        if self.kind != "capped-l1" and not np.isfinite(self.a * self.a):
            raise ValueError(f"{self.kind} family needs a finite a whose square is finite, got {self.a!r}")
        a = self.a
        if self.kind == "capped-l1":
            coef = (0.0, 1.0, 0.0)
        elif self.kind == "scad":
            coef = ((a - 1.0) / (a + 1.0), 2.0 / (a + 1.0), 0.0)
        else:
            coef = (a**2 / 4.0, a - a**2 / 2.0, (a - 2.0) ** 2 / 4.0)
        object.__setattr__(self, "coef", coef)

    def phi(self, t):
        A, B, C = self.coef
        t = np.asarray(t, dtype=float)
        if self.kind == "mcp":
            v = -B / (2.0 * A)  # t*: _maximizer's root at s = 0, inside [0, 1]
            out = A * (t - v) ** 2
        else:
            out = A * t**2 + B * t + C
        return out if np.ndim(out) else float(out)

    def psi(self, t):
        """phi restricted to [0,1], +inf outside."""
        t = np.asarray(t, dtype=float)
        out = np.where((t >= 0.0) & (t <= 1.0), self.phi(np.clip(t, 0.0, 1.0)), np.inf)
        return out if out.ndim else float(out)

    def _maximizer(self, s):
        """argmax_{0<=t<=1} s t - phi(t): the root of phi'(t) = 2At + B = s
        clipped to [0, 1]; for A = 0 the 0/1 step at s = B (tie broken to 0)."""
        A, B, _ = self.coef
        s = np.asarray(s, dtype=float)
        return np.where(s > B, 1.0, 0.0) if A == 0.0 else np.clip((s - B) / (2.0 * A), 0.0, 1.0)

    def t_star(self):
        """Minimizer of phi over [0,1]."""
        return float(self._maximizer(0.0))

    def psi_star(self, s):
        """sup_t s t - psi(t), attained at t = _maximizer(s)."""
        s = np.asarray(s, dtype=float)
        t = self._maximizer(s)
        out = s * t - self.phi(t)
        return out if np.ndim(out) else float(out)

    def h_rho(self, rho, t):
        """h_rho(t) = rho|t| - psi*(rho|t|); takes values in [0, 1]."""
        if rho <= 0:
            raise ValueError("rho must be positive")
        s = rho * np.abs(np.asarray(t, dtype=float))
        out = s - self.psi_star(s)
        return out if out.ndim else float(out)

    def w_update(self, rho, beta_abs):
        """argmin_{0<=w<=1} phi(w) - rho*w*beta_abs, componentwise: in exact
        arithmetic _maximizer(rho |beta|), but each family keeps its own
        expression, whose rounding the fits depend on."""
        if rho <= 0:
            raise ValueError("rho must be positive")
        b = np.abs(np.asarray(beta_abs, dtype=float))
        a = self.a
        if self.kind == "capped-l1":
            out = np.where(rho * b > 1.0, 1.0, 0.0)
        elif self.kind == "scad":
            out = np.clip(((a + 1.0) * rho * b - 2.0) / (2.0 * (a - 1.0)), 0.0, 1.0)
        else:
            out = np.clip(2.0 * rho * b / a**2 + 1.0 - 2.0 / a, 0.0, 1.0)
        return out if out.ndim else float(out)

    def t_zero(self):
        """Smallest t0 in [t*, 1) with 1/(1-t*) in the subdifferential of phi."""
        return float(self._maximizer(1.0 / (1.0 - self.t_star())))

    def exact_penalty_threshold(self, nu, spectral_norm, tau):
        """Penalty level above which the coupled penalized problem is exact.

        rho_bar = phi'_-(1) (1-t*) max(tau, 1-tau) nu ||X|| / (1 - t0),
        with phi'_-(1) = 2A + B.
        """
        if nu <= 0 or spectral_norm <= 0:
            raise ValueError("nu and spectral_norm must be positive")
        if not 0.0 < tau < 1.0:
            raise ValueError("tau must be in (0,1)")
        A, B, _ = self.coef
        tau_bar = max(tau, 1.0 - tau)
        num = (2.0 * A + B) * (1.0 - self.t_star()) * tau_bar * nu * spectral_norm
        return num / (1.0 - self.t_zero())
