"""Proximal dual semismooth Newton solver for the weighted-l1 regularized
check-loss subproblem

    min_beta  f_tau(y - X beta) + sum_i omega_i |beta_i|.

The outer loop is a proximal point algorithm whose j-th step minimizes the
objective plus (gamma/2)(||beta - beta^j||^2 + ||X(beta - beta^j)||^2).
Each step is solved by a semismooth Newton method on the smooth convex dual
Psi, whose gradient Phi is assembled from the two proximal maps.
"""

import math
import time

import numpy as np
from dataclasses import dataclass

from . import _openblas
from .problem import check_loss
from .prox import box_residual, prox_check_loss, prox_weighted_l1
from .report import SolverError, SolverReport, SolveState

# Reference configuration. The proximal weight starts at gamma =
# max(min(0.1, R0), GAMMA_FLOOR) with R0 the initial KKT residual and shrinks
# by SHRINK per accepted PPA step down to GAMMA_FLOOR. The PPA tolerance
# starts at EPS_PPA_0 and drops tenfold per step to EPS_PPA_FLOOR; each inner
# Newton solve stops at NEWTON_TOL_FACTOR times it. A solve makes at most MAX_PPA_ITERS PPA steps
# of at most MAX_NEWTON_ITERS Newton steps each.
GAMMA_FLOOR = 1e-8
SHRINK = 5.0 / 7.0
EPS_PPA_0 = 1e-6
EPS_PPA_FLOOR = 1e-8
NEWTON_TOL_FACTOR = 0.1
MAX_PPA_ITERS = 100
MAX_NEWTON_ITERS = 100
WOLFE_C1 = 1e-4  # strong-Wolfe sufficient decrease
WOLFE_C2 = 0.9   # strong-Wolfe curvature
MAX_ZOOM = 50    # line-search zoom steps
NEWTON_MU = 1e-5  # regularization mu I of the Newton matrix


@dataclass
class SubproblemSpec:
    """One weighted-l1 subproblem: data, weights (finite and nonnegative)
    and the solvers' finite start point ``anchor`` (default 0)."""

    problem: object
    weights: np.ndarray
    anchor: np.ndarray = None

    def __post_init__(self):
        p = self.problem.p
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (p,):
            raise ValueError("weights must have length p")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("weights must be finite and nonnegative")
        self.weights = w
        anchor = np.zeros(p) if self.anchor is None else np.asarray(self.anchor, float)
        if anchor.shape != (p,) or not np.all(np.isfinite(anchor)):
            raise ValueError("anchor must be a finite vector of length p")
        self.anchor = anchor

    def objective(self, beta, z=None):
        """Subproblem objective f_tau(z) + sum_i omega_i |beta_i|, with the
        check loss taken at z = y - X beta unless z is given (ADMM's split
        variable)."""
        pr = self.problem
        if z is None:
            z = pr.response - pr.design @ beta
        return check_loss(z, pr.tau) + float(np.sum(self.weights * np.abs(beta)))


def kkt_residual(problem, beta, u, weights):
    """Relative KKT residual at (beta, u) of

        min f_tau(y - X beta) + sum_i weights_i |beta_i|.

    Zero exactly when u is a check-loss subgradient at z = y - X beta and
    X^T u is a weighted-l1 subgradient at beta. The weighted-l1 block uses
    the Moreau-complement form beta - P_1 h(beta + X^T u).
    """
    z = problem.response - problem.design @ beta
    v = beta + problem.design.T @ u
    b1 = z - prox_check_loss(z + u, 1.0, problem.tau, problem.n)
    b2 = beta - prox_weighted_l1(v, weights, 1.0)
    num = np.sqrt(np.sum(b1**2) + np.sum(b2**2))
    return float(num / (1.0 + np.linalg.norm(problem.response)))


class _DualWork:
    """Dual workspace of one PPA solve: the data, the current PPA step's
    anchors (beta^j, z^j) and proximal weight gamma (see anchor), buffers,
    and the Newton matrix state that newton_direction keeps across Newton
    and PPA steps.

    The two prox arguments are evaluated as one stacked (n+p) vector, the z
    block first, then the beta block: q = anchor - (u; X^T u) / gamma,
    clipped to [lower, upper] elementwise. ``q2, q1``, ``pz, pb`` and
    ``zj, bj`` are the blocks of the stacked buffers.
    """

    def __init__(self, spec, beta_anchor, gamma):
        pr = spec.problem
        self.X = pr.design
        self.y = pr.response
        self.n, self.p = pr.n, pr.p
        self.tau = pr.tau
        self.omega = spec.weights
        # stacked: the anchors (z^j; beta^j) and clip bounds of the prox
        # arguments, and the prox arguments q, their clips and images
        # q - clip at the last evaluated point (see value)
        m = self.n + self.p
        self._anc, self._lo, self._hi, self._q, self._c, self._img = (
            np.empty(m) for _ in range(6))
        self._le = np.empty(self.n, dtype=bool)
        self._bind_blocks()
        # Newton matrix: the active mask J of the last solve, the unscaled
        # active Gram W0 = X_J X_J^T, the count of columns updated since W0
        # was built, the column-major buffer lu with the LU factors (pivots
        # piv) of the matrix last factored, and that matrix's gamma lu_gamma
        # and diagonal diag; diag is None when W0 changed after it
        self.mask = self.W0 = self.lu = self.piv = self.lu_gamma = self.diag = None
        self.updates = 0
        self.anchor(beta_anchor, gamma)

    def _bind_blocks(self):
        """Bind the block views of the stacked buffers as attributes, so that
        an evaluation looks up no slices."""
        n = self.n
        self.zj, self.bj = self._anc[:n], self._anc[n:]
        self.q2, self.q1 = self._q[:n], self._q[n:]
        self._cz, self._cb = self._c[:n], self._c[n:]
        self.pz, self.pb = self._img[:n], self._img[n:]

    def __setstate__(self, state):
        # a copy has buffers of its own: its views must be of those
        self.__dict__.update(state)
        self._bind_blocks()

    def anchor(self, beta_anchor, gamma):
        """Start a PPA step with weight gamma at beta^j = beta_anchor,
        z^j = y - X beta^j."""
        n = self.n
        self.bj[:] = beta_anchor
        np.subtract(self.y, self.X @ self.bj, out=self.zj)
        self.g = float(gamma)
        self.hi2 = self.tau / (self.n * self.g)
        self.lo2 = (self.tau - 1.0) / (self.n * self.g)
        self._lo[:n], self._hi[:n] = self.lo2, self.hi2
        # a finite weight so large that omega/g overflows gets the clip
        # bound inf, which keeps its coefficient at 0 as the weight does
        with np.errstate(over="ignore"):
            np.divide(self.omega, self.g, out=self._hi[n:])
        np.negative(self._hi[n:], out=self._lo[n:])

    def value(self, v):
        """Psi at the stacked dual point v = (u; X^T u), leaving the prox
        arguments q1 = beta^j - X^T u/g, q2 = z^j - u/g and their images
        pz = P f_tau(q2), pb = P h(q1) (``box_residual`` over the stacked
        bounds) in the buffers ``self.q1``, ``self.q2``, ``self.pz``,
        ``self.pb``, which the next call overwrites.

        The dual minimum equals minus the regularized primal minimum.
        """
        q, c, cz, cb, pz = self._q, self._c, self._cz, self._cb, self.pz
        u, Xtu = v[:self.n], v[self.n:]
        np.subtract(self._anc, np.divide(v, self.g, out=q), out=q)
        box_residual(q, self._lo, self._hi, clip=c, out=self._img)
        cz2, cb2 = float(cz.dot(cz)), float(cb.dot(cb))
        # cz and cb are free again: they hold tau - (pz <= 0) and |pb|
        wz = np.subtract(self.tau, np.less_equal(pz, 0, out=self._le), out=cz)
        env_f = float(wz.dot(pz)) / self.n + 0.5 * self.g * cz2
        env_h = float(self.omega.dot(np.abs(self.pb, out=cb))) + 0.5 * self.g * cb2
        quad = 0.5 * float(u.dot(u)) / self.g + 0.5 * float(Xtu.dot(Xtu)) / self.g
        return quad - env_f - env_h

    def dir_deriv(self, dv):
        """<grad Psi, d> at the last evaluated point, along the stacked
        direction dv = (d; X^T d): <Phi, d> = <y - pz, d> - <pb, X^T d>."""
        ypz = np.subtract(self.y, self.pz, out=self._cz)
        return float(ypz.dot(dv[:self.n]) - self.pb.dot(dv[self.n:]))

    def along(self, v, dv):
        """The line-search evaluator a -> (Psi(v + a dv), <grad Psi(v + a dv), d>)
        on the stacked point v and direction dv, with the trial point formed
        in a buffer of this evaluator. A non-finite Psi raises SolverError.
        """
        trial = np.empty_like(v)

        def ev(a):
            psi = self.value(np.add(v, np.multiply(dv, a, out=trial), out=trial))
            if not math.isfinite(psi):
                raise SolverError("non-finite dual value in line search")
            return psi, self.dir_deriv(dv)

        return ev

    def gradient_here(self):
        """(Phi, beta image) at the last evaluated point, in new arrays:
        Phi = y - pz - X pb with the beta image pb = P h(q1)."""
        pb = self.pb.copy()
        return self.y - self.pz - self.X @ pb, pb

    def newton_direction(self, rhs):
        """Solve (gamma^{-1} (U + X V X^T) + mu I) d = rhs.

        U, V are the 0/1 diagonal Clarke elements of the two prox maps at the
        prox arguments q2, q1 that value left: U = (pz != 0), 1 where q2 lies
        strictly outside [lo2, hi2], and V = (pb != 0), 1 where |q1| >
        omega/g. mu = NEWTON_MU.

        The solve is a dense LU, for every n. It keeps W0 = X_J X_J^T across
        calls and rank-updates it when the active set J changes by a few
        columns, rebuilding it after many. It keeps the LU factors of the
        last matrix it factored, W0 / gamma with diag(W0 / gamma) + dvec on
        its diagonal, and factors anew only when W0, gamma or a bit of that
        diagonal changed. Each entry gets the floating-point operations of a
        fresh assembly, and dgetrf + dgetrs of numpy's OpenBLAS give
        np.linalg.solve's bits. Without that library, np.linalg.solve solves
        the assembled matrix. A singular matrix raises SolverError.
        """
        dvec = (self.pz != 0.0) / self.g + NEWTON_MU
        mask = self.pb != 0.0
        n = self.n
        rebuild = self.mask is None
        if rebuild:
            self.lu = np.empty((n, n), order="F")
            self.piv = np.empty(n, dtype=np.int64)
        else:
            changed = mask ^ self.mask
            n_changed = int(changed.sum())
            if n_changed:
                # refresh periodically to limit rank-update rounding drift
                self.updates += n_changed
                self.diag = None
                rebuild = n_changed > max(16, n // 4) or self.updates > 8 * n
                if not rebuild:
                    added = changed & mask
                    removed = changed & ~mask
                    if added.any():
                        Xa = self.X[:, added]
                        self.W0 += Xa @ Xa.T
                    if removed.any():
                        Xr = self.X[:, removed]
                        self.W0 -= Xr @ Xr.T
        if rebuild:
            Xa = self.X[:, mask]
            self.W0 = Xa @ Xa.T
            self.updates = 0
        self.mask = mask
        # the diagonal's entries are > 0 or +0.0, so == compares their bits
        diag = self.W0.diagonal() / self.g + dvec
        if self.diag is None or self.lu_gamma != self.g or not np.array_equal(diag, self.diag):
            # W0 is exactly symmetric: its transpose, read contiguously,
            # fills the column-major buffer with the same values
            np.divide(self.W0.T, self.g, out=self.lu)
            self.lu.flat[:: n + 1] = diag
            if _openblas.dgetrf is not None and _openblas.lu_factor(self.lu, self.piv):
                raise SolverError("singular Newton matrix")
            self.lu_gamma, self.diag = self.g, diag
        if _openblas.dgetrf is None:
            try:
                return np.linalg.solve(self.lu, rhs)
            except np.linalg.LinAlgError:
                raise SolverError("singular Newton matrix") from None
        return _openblas.lu_solve(self.lu, self.piv, rhs)


def _strong_wolfe(ev, psi0, dpsi0):
    """Strong-Wolfe step of the evaluator ev: a -> (psi(a), psi'(a)) by
    bracketing + safeguarded bisection, from psi(0) = psi0, psi'(0) = dpsi0.

    The zoom trial point is the secant root of the directional derivative
    (piecewise linear here, so usually exact), clipped away from the bracket
    ends; bisection is the fallback. Returns (alpha, psi, ok). When ok,
    alpha is the last point evaluated; the best-bisection fallback (not ok)
    may return an earlier one.
    """
    a_prev, psi_prev, dpsi_prev = 0.0, psi0, dpsi0
    a = 1.0
    c1, c2 = WOLFE_C1, WOLFE_C2
    bracket = None
    for _ in range(30):
        psi_a, dpsi_a = ev(a)
        if psi_a > psi0 + c1 * a * dpsi0 or (a_prev > 0.0 and psi_a >= psi_prev):
            bracket = (a_prev, psi_prev, dpsi_prev, a, dpsi_a)
            break
        if abs(dpsi_a) <= c2 * abs(dpsi0):
            return a, psi_a, True
        if dpsi_a >= 0.0:
            bracket = (a, psi_a, dpsi_a, a_prev, dpsi_prev)
            break
        # still descending: extrapolate toward the secant root of the
        # (piecewise linear) derivative, growing at least 2x and at most 100x
        step = a - a_prev
        slope = dpsi_a - dpsi_prev
        target = a + step * dpsi_a / -slope if slope > 0.0 else np.inf
        a_prev, psi_prev, dpsi_prev = a, psi_a, dpsi_a
        a = min(max(2.0 * a, target), 100.0 * a)
    else:
        return a_prev, psi_prev, a_prev > 0.0
    lo, psi_lo, dlo, hi, dhi = bracket
    for _ in range(MAX_ZOOM):
        span = hi - lo
        denom = dhi - dlo
        a = lo - dlo * span / denom if abs(denom) > 0.0 else 0.5 * (lo + hi)
        left, right = (lo, hi) if span > 0 else (hi, lo)
        margin = 0.05 * abs(span)
        if not (left + margin <= a <= right - margin):
            a = 0.5 * (lo + hi)
        psi_a, dpsi_a = ev(a)
        if psi_a > psi0 + c1 * a * dpsi0 or psi_a >= psi_lo:
            hi, dhi = a, dpsi_a
        else:
            if abs(dpsi_a) <= c2 * abs(dpsi0):
                return a, psi_a, True
            if dpsi_a * (hi - lo) >= 0.0:
                hi, dhi = lo, dlo
            lo, psi_lo, dlo = a, psi_a, dpsi_a
        if abs(hi - lo) < 1e-16:
            break
    return lo, psi_lo, False


def _newton_solve(work, u0, tol):
    """Semismooth Newton on Phi(u) = 0; returns (u, info dict). The iterate
    and the direction are stacked as v = (u; X^T u) and dv = (d; X^T d)."""
    u = np.asarray(u0, dtype=float)
    v = np.concatenate((u, work.X.T @ u))
    ynorm1 = 1.0 + np.linalg.norm(work.y)
    warn = []
    psi = work.value(v)
    phi, pb = work.gradient_here()
    iters = 0
    for iters in range(MAX_NEWTON_ITERS):
        res = np.linalg.norm(phi) / ynorm1
        if res <= tol:
            break
        # work holds the prox arguments and images at v
        d = work.newton_direction(-phi)
        dv = np.concatenate((d, work.X.T @ d))
        dpsi0 = work.dir_deriv(dv)
        if dpsi0 >= 0.0:  # numerically flat; nothing left to gain
            break
        alpha, psi_a, ok = _strong_wolfe(work.along(v, dv), psi, dpsi0)
        if not ok and alpha == 0.0:
            warn.append("line search made no progress")
            break
        v = v + alpha * dv
        if ok:  # the search evaluated v last: work holds its images
            psi = psi_a
        else:
            warn.append("line search returned best bisection point")
            psi = work.value(v)
        phi, pb = work.gradient_here()
    else:
        iters = MAX_NEWTON_ITERS
        warn.append("newton iteration cap reached")
    res = np.linalg.norm(phi) / ynorm1
    return v[:work.n].copy(), {"iters": iters, "phi_rel": float(res), "beta_image": pb, "warnings": warn}


def ppa_solve(spec, u0=None):
    """Solve the weighted-l1 subproblem; returns (SolveState, SolverReport).

    Parameters
    ----------
    spec : SubproblemSpec with the data, weights and warm-start anchor.
    u0 : optional warm-start multiplier in the KKT orientation
        (u in the subgradient of f_tau at z = y - X beta), as SolveState.u
        holds it.

    The gamma and eps schedules and the iteration caps are the module
    constants (gamma_0 = min(0.1, R0), shrink 5/7, floor 1e-8, eps schedule
    1e-6 -> max(EPS_PPA_FLOOR, eps/10)).

    Zero certificate: with u0_i = tau/n for y_i > 0 and (tau - 1)/n
    otherwise (the check-loss subgradient at z = y, tie rule of
    ``check_loss``), beta = 0 is optimal exactly when |X^T u0| <= weights.
    Then the solve starts at (0, u0), whatever the anchor and the warm start,
    and reports converged after 0 PPA steps; no dual workspace is built.
    """
    pr = spec.problem
    t0 = time.perf_counter()
    X = pr.design
    u_zero = np.where(pr.response > 0, pr.tau, pr.tau - 1.0) / pr.n
    if np.all(np.abs(X.T @ u_zero) <= spec.weights):
        beta, u_kkt = np.zeros(pr.p), u_zero
    else:
        beta = np.asarray(spec.anchor, dtype=float).copy()
        u_kkt = np.zeros(pr.n) if u0 is None else np.asarray(u0, dtype=float).copy()
    err = kkt_residual(pr, beta, u_kkt, spec.weights)
    gamma = max(min(0.1, err), GAMMA_FLOOR)
    eps = EPS_PPA_0
    u_psi = -u_kkt
    total_newton = 0
    warnings = []
    converged = err <= min(eps, EPS_PPA_FLOOR)
    ppa_iters = 0
    last_phi_rel = 0.0
    cur_obj = spec.objective(beta)
    stalls = 0
    work = None if converged else _DualWork(spec, beta, gamma)
    while not converged and ppa_iters < MAX_PPA_ITERS:
        u_psi, info = _newton_solve(work, u_psi, NEWTON_TOL_FACTOR * eps)
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
        u_kkt = -u_psi
        err = kkt_residual(pr, beta, u_kkt, spec.weights)
        if err <= eps:
            converged = True
            break
        eps = max(EPS_PPA_FLOOR, 0.1 * eps)
        gamma = max(GAMMA_FLOOR, SHRINK * gamma)
        work.anchor(beta, gamma)
    report = SolverReport(
        converged=bool(converged),
        iterations=ppa_iters,
        objective=cur_obj,
        residuals={"err_ppa": err, "phi_rel": last_phi_rel},
        wall_ms=(time.perf_counter() - t0) * 1e3,
        inner_iterations=total_newton,
        warnings=warnings,
    )
    return SolveState(beta=beta, u=u_kkt), report
