"""Semi-proximal ADMM baseline for the weighted-l1 regularized check loss.

Splitting  min f_tau(z) + ||omega o beta||_1  s.t.  X beta + z = y,
with the semidefinite proximal term (1/2)||beta - beta^j||^2_{gamma I - sigma X^T X},
gamma = sigma ||X^T X||, which makes the beta-update a soft threshold of a
gradient step. Stopping combines primal/dual infeasibility and the duality
gap between the split objective and the box-constrained dual.
"""

import time

import numpy as np
from dataclasses import dataclass

from .problem import check_loss, matrix_norms
from .prox import prox_check_loss, prox_weighted_l1
from .report import SolverReport


STEP = 1.618  # multiplier step length, in (1, (sqrt(5)+1)/2)
# sigma adaptation: every ADAPT_EVERY iterations sigma is multiplied by
# ADAPT_FACTOR when eps_pinf/eps_dinf > ADAPT_HIGH and divided by it when the
# ratio is < ADAPT_LOW
ADAPT_EVERY = 50
ADAPT_FACTOR = 1.5
ADAPT_LOW = 0.1
ADAPT_HIGH = 10.0


@dataclass
class AdmmConfig:
    sigma0: float = 1.0
    j_max: int = 3000
    eps_admm: float = 1e-6
    sigma_adapt: bool = True
    record_trace: bool = False
    tail_average: int = 0  # >0: report the ergodic mean of the last K betas
                           # when the iteration cap is reached (oscillation damping)

    def __post_init__(self):
        if self.sigma0 <= 0 or self.eps_admm <= 0 or self.j_max < 1:
            raise ValueError("invalid ADMM configuration")


@dataclass
class AdmmState:
    beta: np.ndarray
    z: np.ndarray
    u: np.ndarray
    sigma: float
    eps_pinf: float
    eps_dinf: float
    eps_gap: float
    trace: list = None


def admm_beta_update(beta, s, spec, sigma, gamma_prox):
    """Closed-form minimizer of the beta block with the semi-proximal term.

    Soft threshold of the gradient step beta - (sigma/gamma) X^T s at
    omega/gamma, where s = X beta + z - y + u/sigma.
    """
    return prox_weighted_l1(beta - (sigma / gamma_prox) * (spec.problem.design.T @ s),
                            spec.weights, gamma_prox)


def admm_z_update(Xb_new, u, spec, sigma):
    """Exact minimizer of the z block: P_{sigma^{-1}} f_tau (y - X beta - u/sigma),
    with Xb_new = X beta at the updated beta."""
    pr = spec.problem
    return prox_check_loss(pr.response - Xb_new - u / sigma, sigma, pr.tau, pr.n)


def _split_objective(beta, z, spec):
    pr = spec.problem
    return check_loss(z, pr.tau) + float(np.sum(spec.weights * np.abs(beta)))


def _box_multiplier(u, tau, n):
    """-u clipped into the check-loss subgradient box [(tau-1)/n, tau/n]."""
    return np.clip(-u, (tau - 1.0) / n, tau / n)


def dual_box_value(u, spec):
    """Feasible dual value (max sense): clip -u into the check-loss subgradient
    box, scale down so |X^T v| <= omega, and return <v, y>.

    Strictly dual-feasible, so it lower-bounds the primal optimum (used by the
    weak-duality checks)."""
    pr = spec.problem
    v = _box_multiplier(u, pr.tau, pr.n)
    xv = np.abs(pr.design.T @ v)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(xv > spec.weights, spec.weights / xv, 1.0)
    v = v * float(np.min(ratios, initial=1.0))
    return float(v @ pr.response)


def admm_solve(spec, cfg=None, z0=None, u0=None):
    """Run the semi-proximal ADMM; returns (AdmmState, SolverReport).

    Non-convergence at j_max is flagged in the report, not raised.
    """
    cfg = cfg or AdmmConfig()
    pr = spec.problem
    t0 = time.perf_counter()
    X, y = pr.design, pr.response
    n = pr.n
    xtx_norm = matrix_norms(X).spectral ** 2
    sigma = cfg.sigma0
    gamma = sigma * xtx_norm
    beta = np.asarray(spec.anchor, dtype=float).copy()
    z = (y - X @ beta) if z0 is None else np.asarray(z0, dtype=float).copy()
    u = np.zeros(n) if u0 is None else np.asarray(u0, dtype=float).copy()
    ynorm1 = 1.0 + np.linalg.norm(y)
    eps_pinf = eps_dinf = eps_gap = np.inf
    converged = False
    trace = []
    j = 0
    Xb = X @ beta
    dinf_scale = (1.0 / STEP - 1.0) ** 2
    avg_from = cfg.j_max - cfg.tail_average if cfg.tail_average > 0 else cfg.j_max + 1
    beta_acc = None
    acc_count = 0
    for j in range(1, cfg.j_max + 1):
        s = Xb + z - y + u / sigma
        beta_new = admm_beta_update(beta, s, spec, sigma, gamma)
        Xb_new = X @ beta_new
        z_new = admm_z_update(Xb_new, u, spec, sigma)
        du = STEP * sigma * (Xb_new + z_new - y)
        u_new = u + du
        du2 = du @ du  # np.linalg.norm(du) is sqrt(du @ du)
        eps_pinf = float(np.sqrt(du2) / (STEP * sigma * ynorm1))
        zeta = X.T @ (du - sigma * s + u) - gamma * (beta_new - beta)
        eps_dinf = float(np.sqrt(zeta @ zeta + dinf_scale * du2) / ynorm1)
        beta, z, u, Xb = beta_new, z_new, u_new, Xb_new
        if j > avg_from:
            beta_acc = beta.copy() if beta_acc is None else beta_acc + beta
            acc_count += 1
        # the gap can only stop the loop once both infeasibilities are small;
        # it is also reported at the cap and traced on request
        infeas = max(eps_pinf, eps_dinf)
        if infeas <= cfg.eps_admm or j == cfg.j_max or cfg.record_trace:
            w_prim = _split_objective(beta, z, spec)
            # dual objective at the box-clipped multiplier, min form
            w_dual_min = -float(_box_multiplier(u, pr.tau, n) @ y)
            gap_sum = w_prim + w_dual_min
            eps_gap = float(abs(gap_sum) / max(1.0, 0.5 * gap_sum))
            if cfg.record_trace:
                trace.append((w_prim, -w_dual_min, eps_pinf, eps_dinf, eps_gap))
            if max(infeas, eps_gap) <= cfg.eps_admm:
                converged = True
                break
        if cfg.sigma_adapt and j % ADAPT_EVERY == 0 and eps_dinf > 0:
            ratio = eps_pinf / eps_dinf
            if ratio > ADAPT_HIGH:
                sigma *= ADAPT_FACTOR
                gamma = sigma * xtx_norm
            elif ratio < ADAPT_LOW:
                sigma /= ADAPT_FACTOR
                gamma = sigma * xtx_norm
    if not np.all(np.isfinite(beta)) or not np.all(np.isfinite(u)):
        raise FloatingPointError("ADMM produced non-finite iterates")
    if not converged and acc_count > 0:
        beta = beta_acc / acc_count  # ergodic output at the iteration cap
        z = admm_z_update(X @ beta, u, spec, sigma)
    state = AdmmState(beta=beta, z=z, u=u, sigma=sigma,
                      eps_pinf=eps_pinf, eps_dinf=eps_dinf, eps_gap=eps_gap)
    report = SolverReport(
        converged=converged,
        iterations=j,
        objective=spec.objective(beta),
        residuals={"eps_pinf": eps_pinf, "eps_dinf": eps_dinf, "eps_gap": eps_gap},
        wall_ms=(time.perf_counter() - t0) * 1e3,
        solver="admm",
        inner_iterations=j,
        warnings=[] if converged else ["iteration cap reached"],
        extras={"w_prim": w_prim, "w_dual": -w_dual_min},
    )
    if cfg.record_trace:
        state.trace = trace
    return state, report
