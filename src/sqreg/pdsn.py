"""Proximal dual semismooth Newton solver for the weighted-l1 regularized
check-loss subproblem

    min_beta  f_tau(y - X beta) + sum_i omega_i |beta_i| - <delta, beta - anchor>.

The outer loop is a proximal point algorithm whose j-th step minimizes the
objective plus (gamma1/2)||beta - beta^j||^2 + (gamma2/2)||X(beta - beta^j)||^2.
Each step is solved by a semismooth Newton method on the smooth convex dual
Psi, whose gradient Phi is assembled from the two proximal maps.
"""

import time

import numpy as np
from dataclasses import dataclass, field

from .problem import check_loss
from .prox import (
    clarke_jacobian_check_loss_prox,
    clarke_jacobian_weighted_l1_prox,
    prox_check_loss,
    prox_weighted_l1,
)
from .report import SolverReport

# Reference configuration. The proximal weights start at gamma_1 = gamma_2 =
# max(min(0.1, R0), GAMMA_FLOOR) with R0 the initial KKT residual and shrink
# together by SHRINK per accepted PPA step down to GAMMA_FLOOR. The PPA tolerance starts at EPS_PPA_0
# and drops tenfold per step to eps_ppa_floor; each inner Newton solve stops
# at NEWTON_TOL_FACTOR times it.
GAMMA_FLOOR = 1e-8
SHRINK = 5.0 / 7.0
EPS_PPA_0 = 1e-6
NEWTON_TOL_FACTOR = 0.1
WOLFE_C1 = 1e-4  # strong-Wolfe sufficient decrease
WOLFE_C2 = 0.9   # strong-Wolfe curvature
MAX_ZOOM = 50    # line-search zoom steps
CG_TOL = 1e-9    # relative residual of the CG Newton solve


class SolverError(RuntimeError):
    """A subproblem solver failed numerically (not a non-convergence)."""


@dataclass
class SubproblemSpec:
    """One weighted-l1 subproblem: data, weights, inexactness shift, anchor."""

    problem: object
    weights: np.ndarray
    delta: np.ndarray = None
    anchor: np.ndarray = None

    def __post_init__(self):
        p = self.problem.p
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (p,):
            raise ValueError("weights must have length p")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        self.weights = w
        self.delta = np.zeros(p) if self.delta is None else np.asarray(self.delta, float)
        self.anchor = np.zeros(p) if self.anchor is None else np.asarray(self.anchor, float)

    def objective(self, beta):
        """Subproblem objective at beta."""
        pr = self.problem
        val = check_loss(pr.response - pr.design @ beta, pr.tau)
        val += float(np.sum(self.weights * np.abs(beta)))
        val -= float(self.delta @ (beta - self.anchor))
        return val


@dataclass
class PdsnConfig:
    eps_ppa_floor: float = 1e-8
    newton_mu: float = 1e-5  # regularization mu I of the Newton matrix
    max_ppa_iters: int = 100
    max_newton_iters: int = 100
    dense_solve_max_n: int = 2000  # above this, use Jacobi-preconditioned CG

    def __post_init__(self):
        if self.eps_ppa_floor <= 0 or self.newton_mu <= 0:
            raise ValueError("tolerances and mu must be positive")
        if self.max_ppa_iters < 1 or self.max_newton_iters < 1:
            raise ValueError("iteration caps must be >= 1")


@dataclass
class PdsnState:
    beta: np.ndarray
    z: np.ndarray
    u: np.ndarray
    err_ppa: float
    trace: list = field(default_factory=list)


def kkt_residual(problem, beta, z, u, weights, delta=None):
    """Relative KKT residual at (beta, z, u) of

        min f_tau(z) + sum_i weights_i |beta_i| - <delta, beta>  s.t.  X beta + z = y.

    Zero exactly when u is a check-loss subgradient at z, X^T u + delta is a
    weighted-l1 subgradient at beta, and y - X beta - z = 0. The weighted-l1
    block uses the Moreau-complement form beta - P_1 h(beta + X^T u + delta).
    ``delta=None`` is a zero shift, as in the stage residual of the coupled
    penalized problem.
    """
    v = beta + problem.design.T @ u
    if delta is not None:
        v = v + delta
    b1 = z - prox_check_loss(z + u, 1.0, problem.tau, problem.n)
    b2 = beta - prox_weighted_l1(v, weights, 1.0)
    b3 = problem.response - problem.design @ beta - z
    num = np.sqrt(np.sum(b1**2) + np.sum(b2**2) + np.sum(b3**2))
    return float(num / (1.0 + np.linalg.norm(problem.response)))


class _DualWork:
    """Dual pieces of one PPA step: anchors (beta^j, z^j) and gammas fixed."""

    def __init__(self, spec, beta_anchor, gamma1, gamma2):
        pr = spec.problem
        self.X = pr.design
        self.y = pr.response
        self.n, self.p = pr.n, pr.p
        self.tau = pr.tau
        self.omega = spec.weights
        self.delta = spec.delta
        self.bj = np.asarray(beta_anchor, dtype=float)
        self.zj = self.y - self.X @ self.bj
        self.g1 = float(gamma1)
        self.g2 = float(gamma2)
        self.const = float(spec.delta @ (self.bj - spec.anchor))
        self.hi2 = self.tau / (self.n * self.g2)
        self.lo2 = (self.tau - 1.0) / (self.n * self.g2)
        self.thr1 = self.omega / self.g1
        self.neg_thr1 = -self.thr1
        # x - 0.0 == x bit for bit, so an all-(+0.0) shift is skipped
        self.zero_delta = not (np.any(self.delta) or np.any(np.signbit(self.delta)))
        # the prox arguments and images at the last evaluated point (see
        # value), and scratch buffers
        self.q1, self.pb, self._xd, self._cb = (np.empty(self.p) for _ in range(4))
        self.q2, self.pz, self._cz = (np.empty(self.n) for _ in range(3))
        self._le = np.empty(self.n, dtype=bool)

    def value(self, u, Xtu):
        """Psi(u), leaving the prox arguments q1 = beta^j - (X^T u - delta)/g1,
        q2 = z^j - u/g2 and the images pz = q2 - clip(q2, lo, hi),
        pb = q1 - clip(q1, -thr, thr) (box-projection identities) in the
        buffers ``self.q1``, ``self.q2``, ``self.pz``, ``self.pb``, which the
        next call overwrites.

        The clips are maximum-then-minimum, the order np.clip applies them.
        The dual minimum equals minus the regularized primal minimum.
        """
        g1, g2 = self.g1, self.g2
        q2, cz, pz, q1, cb, pb = self.q2, self._cz, self.pz, self.q1, self._cb, self.pb
        xd = Xtu if self.zero_delta else np.subtract(Xtu, self.delta, out=self._xd)
        np.subtract(self.bj, np.divide(xd, g1, out=q1), out=q1)
        np.subtract(self.zj, np.divide(u, g2, out=q2), out=q2)
        np.minimum(np.maximum(q2, self.lo2, out=cz), self.hi2, out=cz)
        np.subtract(q2, cz, out=pz)
        np.minimum(np.maximum(q1, self.neg_thr1, out=cb), self.thr1, out=cb)
        np.subtract(q1, cb, out=pb)
        cz2, cb2 = float(cz @ cz), float(cb @ cb)
        # cz and cb are free again: they hold tau - (pz <= 0) and |pb|
        wz = np.subtract(self.tau, np.less_equal(pz, 0, out=self._le), out=cz)
        env_f = float(wz @ pz) / self.n + 0.5 * g2 * cz2
        env_h = float(self.omega @ np.abs(pb, out=cb)) + 0.5 * g1 * cb2
        quad = 0.5 * float(u @ u) / g2 + 0.5 * float(xd @ xd) / g1
        return quad - env_f - env_h + self.const

    def dir_deriv(self, d, Xtd):
        """<grad Psi, d> at the last evaluated point:
        <Phi, d> = <y - pz, d> - <pb, X^T d>."""
        ypz = np.subtract(self.y, self.pz, out=self._cz)
        return float(ypz @ d - self.pb @ Xtd)

    def value_dir_deriv(self, u, Xtu, d, Xtd):
        """(Psi(u), <grad Psi(u), d>) without forming the full gradient."""
        return self.value(u, Xtu), self.dir_deriv(d, Xtd)

    def along(self, u, Xtu, d, Xtd):
        """The line-search evaluator a -> (Psi(u + a d), <grad Psi(u + a d), d>).

        Bit-identical to value_dir_deriv(u + a*d, Xtu + a*Xtd, d, Xtd), with
        the trial point formed in buffers of this evaluator.
        """
        ua = np.empty_like(u)
        Xtua = np.empty_like(Xtu)

        def ev(a):
            np.add(u, np.multiply(d, a, out=ua), out=ua)
            np.add(Xtu, np.multiply(Xtd, a, out=Xtua), out=Xtua)
            return self.value_dir_deriv(ua, Xtua, d, Xtd)

        return ev

    def gradient_here(self):
        """(Phi, beta image) at the last evaluated point, in new arrays:
        Phi = y - P f_tau(q2) - X P h(q1) with the beta image
        P h(q1) = sign(q1) max(|q1| - thr, 0). That is sign(q1) |pb|, bit for
        bit prox_weighted_l1(q1) (pb alone can differ in the sign of zeros)."""
        pb = np.sign(self.q1) * np.abs(self.pb)
        return self.y - self.pz - self.X @ pb, pb

    def gradient(self, u, Xtu):
        """(Phi(u), beta image at u); see gradient_here."""
        self.value(u, Xtu)
        return self.gradient_here()

    def active_gram(self, mask, cache):
        """X_J X_J^T over the active columns, from the cheaper side; the full
        Gram X X^T that the complement side needs is built on first use and
        kept in ``cache``."""
        n_active = int(mask.sum())
        if self.p - n_active < n_active:
            if "gram" not in cache:
                cache["gram"] = self.X @ self.X.T
            gram = cache["gram"]
            Xc = self.X[:, ~mask]
            return gram - Xc @ Xc.T if Xc.shape[1] else gram.copy()
        if n_active:
            Xa = self.X[:, mask]
            return Xa @ Xa.T
        return np.zeros((self.n, self.n))

    def newton_matrix_solve(self, q1, q2, rhs, cfg, cache=None):
        """Solve (gamma2^{-1} U + gamma1^{-1} X V X^T + mu I) d = rhs.

        U, V are 0/1 diagonal Clarke elements at the current prox arguments
        and mu = cfg.newton_mu. The unscaled active Gram X_J X_J^T is kept in
        ``cache`` across calls and rank-updated when the active set changes
        by a few columns; the scaled matrix W is assembled in a buffer kept
        there too.
        """
        udiag = clarke_jacobian_check_loss_prox(q2, self.g2, self.tau, self.n)
        vdiag = clarke_jacobian_weighted_l1_prox(q1, self.omega, self.g1)
        dvec = udiag / self.g2 + cfg.newton_mu
        mask = vdiag > 0.0
        if self.n > cfg.dense_solve_max_n:
            from scipy.sparse.linalg import LinearOperator, cg  # deferred: a slow import

            Xa = self.X[:, mask]

            def matvec(v):
                return dvec * v + (Xa @ (Xa.T @ v)) / self.g1

            op = LinearOperator((self.n, self.n), matvec=matvec)
            jacobi = dvec + np.sum(Xa**2, axis=1) / self.g1
            pre = LinearOperator((self.n, self.n), matvec=lambda v: v / jacobi)
            sol, info = cg(op, rhs, rtol=CG_TOL, atol=0.0, M=pre, maxiter=10 * self.n)
            if info != 0:
                raise SolverError("conjugate gradient failed on the Newton system")
            return sol
        cache = {} if cache is None else cache
        if cache.get("mask") is None:
            W0 = self.active_gram(mask, cache)
        else:
            W0 = cache["W0"]
            changed = mask ^ cache["mask"]
            n_changed = int(changed.sum())
            if n_changed:
                # refresh periodically to limit rank-update rounding drift
                cache["updates"] = cache.get("updates", 0) + n_changed
                if n_changed > max(16, self.n // 4) or cache["updates"] > 8 * self.n:
                    W0 = self.active_gram(mask, cache)
                    cache["updates"] = 0
                else:
                    added = changed & mask
                    removed = changed & ~mask
                    if added.any():
                        Xa = self.X[:, added]
                        W0 += Xa @ Xa.T
                    if removed.any():
                        Xr = self.X[:, removed]
                        W0 -= Xr @ Xr.T
        cache["mask"] = mask
        cache["W0"] = W0
        if "W" not in cache:
            cache["W"] = np.empty_like(W0)
        W = np.divide(W0, self.g1, out=cache["W"])
        W.flat[:: self.n + 1] += dvec
        return np.linalg.solve(W, rhs)


def _strong_wolfe(work, u, Xtu, d, Xtd, psi0, dpsi0):
    """Strong-Wolfe step along d by bracketing + safeguarded bisection.

    The zoom trial point is the secant root of the directional derivative
    (piecewise linear here, so usually exact), clipped away from the bracket
    ends; bisection is the fallback. Returns (alpha, psi, evals, ok). When ok,
    alpha is the last point evaluated, so ``work`` still holds its prox
    arguments and images; the best-bisection fallback (not ok) may return an
    earlier one.
    """

    along = work.along(u, Xtu, d, Xtd)

    def ev(a):
        psi_a, dpsi_a = along(a)
        if not np.isfinite(psi_a):
            raise FloatingPointError("non-finite dual value in line search")
        return psi_a, dpsi_a

    evals = 0
    a_prev, psi_prev, dpsi_prev = 0.0, psi0, dpsi0
    a = 1.0
    c1, c2 = WOLFE_C1, WOLFE_C2
    bracket = None
    for _ in range(30):
        psi_a, dpsi_a = ev(a)
        evals += 1
        if psi_a > psi0 + c1 * a * dpsi0 or (a_prev > 0.0 and psi_a >= psi_prev):
            bracket = (a_prev, psi_prev, dpsi_prev, a, psi_a, dpsi_a)
            break
        if abs(dpsi_a) <= c2 * abs(dpsi0):
            return a, psi_a, evals, True
        if dpsi_a >= 0.0:
            bracket = (a, psi_a, dpsi_a, a_prev, psi_prev, dpsi_prev)
            break
        # still descending: extrapolate toward the secant root of the
        # (piecewise linear) derivative, growing at least 2x and at most 100x
        step = a - a_prev
        slope = dpsi_a - dpsi_prev
        target = a + step * dpsi_a / -slope if slope > 0.0 else np.inf
        a_prev, psi_prev, dpsi_prev = a, psi_a, dpsi_a
        a = min(max(2.0 * a, target), 100.0 * a)
    else:
        return a_prev, psi_prev, evals, a_prev > 0.0
    lo, psi_lo, dlo, hi, psi_hi, dhi = bracket
    best_a, best_psi = lo, psi_lo
    for _ in range(MAX_ZOOM):
        span = hi - lo
        denom = dhi - dlo
        a = lo - dlo * span / denom if abs(denom) > 0.0 else 0.5 * (lo + hi)
        left, right = (lo, hi) if span > 0 else (hi, lo)
        margin = 0.05 * abs(span)
        if not (left + margin <= a <= right - margin):
            a = 0.5 * (lo + hi)
        psi_a, dpsi_a = ev(a)
        evals += 1
        if psi_a > psi0 + c1 * a * dpsi0 or psi_a >= psi_lo:
            hi, psi_hi, dhi = a, psi_a, dpsi_a
        else:
            if abs(dpsi_a) <= c2 * abs(dpsi0):
                return a, psi_a, evals, True
            if dpsi_a * (hi - lo) >= 0.0:
                hi, psi_hi, dhi = lo, psi_lo, dlo
            lo, psi_lo, dlo = a, psi_a, dpsi_a
            best_a, best_psi = a, psi_a
        if abs(hi - lo) < 1e-16:
            break
    return best_a, best_psi, evals, False


def _newton_solve(work, u0, tol, cfg, cache=None):
    """Semismooth Newton on Phi(u) = 0; returns (u, info dict)."""
    u = np.asarray(u0, dtype=float).copy()
    Xtu = work.X.T @ u
    ynorm1 = 1.0 + np.linalg.norm(work.y)
    warn = []
    psi_trace = []
    psi = work.value(u, Xtu)
    phi, pb = work.gradient_here()
    iters = 0
    cache = {} if cache is None else cache
    for iters in range(cfg.max_newton_iters):
        res = np.linalg.norm(phi) / ynorm1
        if res <= tol:
            break
        # work holds the prox arguments and images at u
        d = work.newton_matrix_solve(work.q1, work.q2, -phi, cfg, cache)
        Xtd = work.X.T @ d
        dpsi0 = work.dir_deriv(d, Xtd)
        psi_trace.append(psi)
        if dpsi0 >= 0.0:  # numerically flat; nothing left to gain
            break
        alpha, psi_a, _, ok = _strong_wolfe(work, u, Xtu, d, Xtd, psi, dpsi0)
        if not ok and alpha == 0.0:
            warn.append("line search made no progress")
            break
        u = u + alpha * d
        Xtu = Xtu + alpha * Xtd
        if ok:  # the search evaluated u last: work holds its images
            psi = psi_a
        else:
            warn.append("line search returned best bisection point")
            psi = work.value(u, Xtu)
        phi, pb = work.gradient_here()
    else:
        iters = cfg.max_newton_iters
        warn.append("newton iteration cap reached")
    res = np.linalg.norm(phi) / ynorm1
    psi_trace.append(psi)
    return u, {
        "iters": iters,
        "phi_rel": float(res),
        "beta_image": pb,
        "warnings": warn,
        "psi_trace": psi_trace,
    }


def ppa_solve(spec, cfg=None, u0=None):
    """Solve the weighted-l1 subproblem; returns (PdsnState, SolverReport).

    Parameters
    ----------
    spec : SubproblemSpec with the data, weights, shift and warm-start anchor.
    cfg : PdsnConfig; the gamma and eps schedules are the module constants
        (gamma_{1,0} = gamma_{2,0} = min(0.1, R0), shrink 5/7, floor 1e-8,
        eps schedule 1e-6 -> max(eps_ppa_floor, eps/10)).
    u0 : optional warm-start multiplier in the KKT orientation
        (u in the subgradient of f_tau at z).
    """
    cfg = cfg or PdsnConfig()
    pr = spec.problem
    t0 = time.perf_counter()
    X, y = pr.design, pr.response
    beta = np.asarray(spec.anchor, dtype=float).copy()
    z = y - X @ beta
    u_kkt = np.zeros(pr.n) if u0 is None else np.asarray(u0, dtype=float).copy()
    err = kkt_residual(pr, beta, z, u_kkt, spec.weights, spec.delta)
    gamma = max(min(0.1, err), GAMMA_FLOOR)  # gamma_1 = gamma_2 throughout
    eps = EPS_PPA_0
    u_psi = -u_kkt
    total_newton = 0
    warnings = []
    converged = err <= min(eps, cfg.eps_ppa_floor)
    ppa_iters = 0
    last_phi_rel = float("nan")
    cache = {}  # Newton-matrix state shared by the PPA steps
    cur_obj = spec.objective(beta)
    trace = [cur_obj]
    stalls = 0
    while not converged and ppa_iters < cfg.max_ppa_iters:
        work = _DualWork(spec, beta, gamma, gamma)
        u_psi, info = _newton_solve(work, u_psi, NEWTON_TOL_FACTOR * eps, cfg, cache)
        total_newton += info["iters"]
        last_phi_rel = info["phi_rel"]
        warnings.extend(info["warnings"])
        ppa_iters += 1
        beta_new = info["beta_image"]
        # accept only if the proximally regularized objective did not increase
        # (beyond numerical slack); an overly inexact inner solve otherwise
        # derails the anchors
        new_obj = spec.objective(beta_new)
        reg = new_obj + 0.5 * gamma * float(np.sum((beta_new - beta) ** 2))
        reg += 0.5 * gamma * float(np.sum((X @ (beta_new - beta)) ** 2))
        if reg > cur_obj + 1e-6 * (1.0 + abs(cur_obj)):
            stalls += 1
            warnings.append("inner solve rejected (insufficient decrease)")
            if stalls >= 3:
                break
            continue  # retry from the same anchors with the warm dual
        stalls = 0
        beta = beta_new
        cur_obj = new_obj
        z = y - X @ beta
        u_kkt = -u_psi
        err = kkt_residual(pr, beta, z, u_kkt, spec.weights, spec.delta)
        trace.append(cur_obj)
        if err <= eps:
            converged = True
            break
        eps = max(cfg.eps_ppa_floor, 0.1 * eps)
        gamma = max(GAMMA_FLOOR, SHRINK * gamma)
    state = PdsnState(beta=beta, z=z, u=u_kkt, err_ppa=err, trace=trace)
    report = SolverReport(
        converged=bool(converged),
        iterations=ppa_iters,
        objective=spec.objective(beta),
        residuals={"err_ppa": err, "phi_rel": last_phi_rel if np.isfinite(last_phi_rel) else 0.0},
        wall_ms=(time.perf_counter() - t0) * 1e3,
        solver="pdsn",
        inner_iterations=total_newton,
        warnings=warnings,
    )
    return state, report
