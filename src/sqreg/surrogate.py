"""Surrogate family for the zero-norm: phi, its conjugate, the DC penalty
h_rho(t) = rho|t| - psi*(rho|t|), closed-form weight updates, and the exact
penalty threshold.

Three families are supported, selected by name:

- ``capped-l1``: phi(t) = t; h gives the capped-l1 penalty.
- ``scad``: phi(t) = (a-1)/(a+1) t^2 + 2/(a+1) t with a > 1; h reduces to SCAD.
- ``mcp``: phi(t) = a^2/4 t^2 - a^2/2 t + a t + (a-2)^2/4 with a > 2;
  h reduces to MCP.
"""

import numpy as np
from dataclasses import dataclass

KINDS = ("capped-l1", "scad", "mcp")


@dataclass(frozen=True)
class SurrogateFamily:
    kind: str
    a: float = float("nan")

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown surrogate kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "scad" and not self.a > 1.0:
            raise ValueError("scad family needs a > 1")
        if self.kind == "mcp" and not self.a > 2.0:
            raise ValueError("mcp family needs a > 2")
        if self.kind != "capped-l1" and not np.isfinite(self.a * self.a):
            raise ValueError(f"{self.kind} family needs a finite a whose square is finite, got {self.a!r}")

    # ---- phi and its restriction psi ------------------------------------

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "capped-l1":
            out = t.copy()
        elif self.kind == "scad":
            a = self.a
            out = (a - 1.0) / (a + 1.0) * t**2 + 2.0 / (a + 1.0) * t
        else:
            a = self.a
            out = a**2 / 4.0 * t**2 - a**2 / 2.0 * t + a * t + (a - 2.0) ** 2 / 4.0
        return out if out.ndim else float(out)

    def psi(self, t):
        """phi restricted to [0,1], +inf outside."""
        t = np.asarray(t, dtype=float)
        out = np.where((t >= 0.0) & (t <= 1.0), self.phi(np.clip(t, 0.0, 1.0)), np.inf)
        return out if out.ndim else float(out)

    def t_star(self):
        """Minimizer of phi over [0,1]."""
        if self.kind == "mcp":
            return 1.0 - 2.0 / self.a
        return 0.0

    # ---- conjugate of psi -------------------------------------------------

    def psi_star(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "capped-l1":
            out = np.where(s <= 1.0, 0.0, s - 1.0)
        elif self.kind == "scad":
            a = self.a
            lo, hi = 2.0 / (a + 1.0), 2.0 * a / (a + 1.0)
            mid = ((a + 1.0) * s - 2.0) ** 2 / (4.0 * (a**2 - 1.0))
            out = np.where(s <= lo, 0.0, np.where(s <= hi, mid, s - 1.0))
        else:
            a = self.a
            lo, hi = a - a**2 / 2.0, a
            c = (a - 2.0) ** 2 / 4.0
            mid = (a * (a - 2.0) / 2.0 + s) ** 2 / a**2 - c
            out = np.where(s <= lo, -c, np.where(s <= hi, mid, s - 1.0))
        return out if out.ndim else float(out)

    # ---- DC penalty -------------------------------------------------------

    def h_rho(self, rho, t):
        """h_rho(t) = rho|t| - psi*(rho|t|); takes values in [0, 1]."""
        if rho <= 0:
            raise ValueError("rho must be positive")
        s = rho * np.abs(np.asarray(t, dtype=float))
        out = s - self.psi_star(s)
        return out if out.ndim else float(out)

    # ---- weight update ----------------------------------------------------

    def w_update(self, rho, beta_abs):
        """argmin_{0<=w<=1} phi(w) - rho*w*beta_abs, componentwise.

        capped-l1: 0/1 step at rho*|beta| = 1 (tie broken to 0).
        scad: the clipped affine form ((a+1) rho |beta| - 2) / (2(a-1)).
        mcp: clipped stationary point of its quadratic.
        """
        if rho <= 0:
            raise ValueError("rho must be positive")
        b = np.abs(np.asarray(beta_abs, dtype=float))
        if self.kind == "capped-l1":
            out = np.where(rho * b > 1.0, 1.0, 0.0)
        elif self.kind == "scad":
            a = self.a
            out = np.clip(((a + 1.0) * rho * b - 2.0) / (2.0 * (a - 1.0)), 0.0, 1.0)
        else:
            a = self.a
            out = np.clip(2.0 * rho * b / a**2 + 1.0 - 2.0 / a, 0.0, 1.0)
        return out if out.ndim else float(out)

    # ---- exact penalty threshold -------------------------------------------

    def t_zero(self):
        """Smallest t0 in [t*, 1) with 1/(1-t*) in the subdifferential of phi."""
        if self.kind == "capped-l1":
            return 0.0
        if self.kind == "scad":
            # phi'(t) = 2(a-1)/(a+1) t + 2/(a+1) = 1  (t* = 0)
            return 0.5
        # mcp: phi'(t) = a^2/2 t + a - a^2/2 = 1/(1-t*) = a/2
        return 1.0 - 1.0 / self.a

    def phi_left_deriv_at_one(self):
        if self.kind == "capped-l1":
            return 1.0
        if self.kind == "scad":
            return 2.0 * self.a / (self.a + 1.0)
        return self.a

    def exact_penalty_threshold(self, nu, spectral_norm, tau):
        """Penalty level above which the coupled penalized problem is exact.

        rho_bar = phi'_-(1) (1-t*) max(tau, 1-tau) nu ||X|| / (1 - t0).
        """
        if nu <= 0 or spectral_norm <= 0:
            raise ValueError("nu and spectral_norm must be positive")
        if not 0.0 < tau < 1.0:
            raise ValueError("tau must be in (0,1)")
        tau_bar = max(tau, 1.0 - tau)
        num = self.phi_left_deriv_at_one() * (1.0 - self.t_star()) * tau_bar * nu * spectral_norm
        return num / (1.0 - self.t_zero())


def capped_l1():
    return SurrogateFamily("capped-l1")


def scad(a=3.7):
    return SurrogateFamily("scad", a)


def mcp(a=3.7):
    return SurrogateFamily("mcp", a)


def from_name(name, a=None):
    """Build a family from its CLI name; ``a`` shapes scad and mcp (3.7 when
    None) and must be None for capped-l1, which has no shape parameter."""
    if name == "capped-l1":
        if a is not None:
            raise ValueError("the capped-l1 surrogate takes no --a")
        return capped_l1()
    a = 3.7 if a is None else a
    if name == "scad":
        return scad(a)
    if name == "mcp":
        return mcp(a)
    raise ValueError(f"unknown surrogate {name!r}")
