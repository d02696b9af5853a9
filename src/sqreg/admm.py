"""Semi-proximal ADMM baseline for the weighted-l1 regularized check loss.

Splitting  min f_tau(z) + ||omega o beta||_1  s.t.  X beta + z = y,
with the semidefinite proximal term (1/2)||beta - beta^j||^2_{gamma I - sigma X^T X},
gamma = sigma ||X^T X||, which makes the beta-update a soft threshold of a
gradient step. Stopping combines primal/dual infeasibility and the duality
gap between the split objective and the feasible box dual value.
"""

import time

import numpy as np

# bound for perfbench's problem.matrix_norms layer wrapper; the solve reads
# the problem's cached norms
from .problem import matrix_norms  # noqa: F401
from .prox import prox_check_loss, prox_weighted_l1
from .report import SolverError, SolverReport, SolveState


# Reference configuration. sigma starts at SIGMA0; the loop stops once
# eps_pinf, eps_dinf and eps_gap are all <= EPS_ADMM, or after MAX_ITERS
# iterations. At that cap, TAIL_AVERAGE > 0 reports the ergodic mean of the
# last TAIL_AVERAGE betas (oscillation damping) instead of the last one.
# Every ADAPT_EVERY iterations sigma is multiplied by ADAPT_FACTOR when
# eps_pinf/eps_dinf > ADAPT_HIGH and divided by it when the ratio is
# < ADAPT_LOW; ADAPT_EVERY > MAX_ITERS keeps sigma at SIGMA0.
SIGMA0 = 1.0
MAX_ITERS = 3000
EPS_ADMM = 1e-6
TAIL_AVERAGE = 0
STEP = 1.618  # multiplier step length, in (1, (sqrt(5)+1)/2)
ADAPT_EVERY = 50
ADAPT_FACTOR = 1.5
ADAPT_LOW = 0.1
ADAPT_HIGH = 10.0


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
    return prox_check_loss(pr.response - Xb_new - u / sigma, sigma, spec.tau, pr.n)


def dual_box_value(u, spec):
    """Feasible dual value (max sense) at a multiplier u in the KKT
    orientation, as SolveState.u holds it: clip u into the check-loss
    subgradient box, scale down so |X^T v| <= omega, and return <v, y>.

    Dual-feasible, so it lower-bounds the primal optimum; admm_solve's gap
    is the objective minus it. The scale divides only where |X^T v| > omega,
    where the ratio is below 1, so a huge weight cannot overflow it."""
    pr = spec.problem
    v = np.clip(u, (spec.tau - 1.0) / pr.n, spec.tau / pr.n)
    xv = np.abs(pr.design.T @ v)
    over = xv > spec.weights
    v = v * float(np.min(spec.weights[over] / xv[over], initial=1.0))
    return float(v @ pr.response)


def admm_solve(spec, u0=None):
    """Run the semi-proximal ADMM; returns (SolveState, SolverReport).

    u0 and the returned SolveState.u are the multiplier in the KKT
    orientation, as for ``ppa_solve``. The loop runs on the sPADMM
    multiplier -u (-u lies in the f_tau subgradient at z), from
    beta = spec.anchor and z = y - X beta. Non-convergence at MAX_ITERS is
    flagged in the report, not raised.
    """
    pr = spec.problem
    t0 = time.perf_counter()
    X, y = pr.design, pr.response
    n = pr.n
    xtx_norm = pr.norms.spectral ** 2
    sigma = SIGMA0
    gamma = sigma * xtx_norm
    beta = np.asarray(spec.anchor, dtype=float).copy()
    z = y - X @ beta
    u = np.zeros(n) if u0 is None else -np.asarray(u0, dtype=float)
    ynorm1 = 1.0 + np.linalg.norm(y)
    eps_pinf = eps_dinf = eps_gap = np.inf
    converged = False
    j = 0
    Xb = X @ beta
    dinf_scale = (1.0 / STEP - 1.0) ** 2
    avg_from = MAX_ITERS - TAIL_AVERAGE if TAIL_AVERAGE > 0 else MAX_ITERS + 1
    beta_acc = None
    acc_count = 0
    for j in range(1, MAX_ITERS + 1):
        s = Xb + z - y + u / sigma
        beta_new = admm_beta_update(beta, s, spec, sigma, gamma)
        Xb_new = X @ beta_new
        z_new = admm_z_update(Xb_new, u, spec, sigma)
        du = STEP * sigma * (Xb_new + z_new - y)
        u_new = u + du
        du2 = du @ du  # np.linalg.norm(du) is sqrt(du @ du)
        eps_pinf = float(np.sqrt(du2) / (STEP * sigma * ynorm1))
        # eps_dinf costs a third product with X; it is read only where the
        # stop test can pass (eps_pinf small), where sigma adapts, and at the
        # cap, where it is reported. Elsewhere its last value stands, and
        # max(eps_pinf, eps_dinf) > EPS_ADMM whatever that value is.
        if eps_pinf <= EPS_ADMM or j % ADAPT_EVERY == 0 or j == MAX_ITERS:
            zeta = X.T @ (du - sigma * s + u) - gamma * (beta_new - beta)
            eps_dinf = float(np.sqrt(zeta @ zeta + dinf_scale * du2) / ynorm1)
        beta, z, u, Xb = beta_new, z_new, u_new, Xb_new
        if j > avg_from:
            beta_acc = beta.copy() if beta_acc is None else beta_acc + beta
            acc_count += 1
        # the gap can only stop the loop once both infeasibilities are small;
        # it is also reported at the cap
        infeas = max(eps_pinf, eps_dinf)
        if infeas <= EPS_ADMM or j == MAX_ITERS:
            gap = spec.objective(beta, z) - dual_box_value(-u, spec)
            eps_gap = float(abs(gap) / max(1.0, 0.5 * gap))
            if max(infeas, eps_gap) <= EPS_ADMM:
                converged = True
                break
        if j % ADAPT_EVERY == 0 and eps_dinf > 0:
            ratio = eps_pinf / eps_dinf
            if ratio > ADAPT_HIGH:
                sigma *= ADAPT_FACTOR
                gamma = sigma * xtx_norm
            elif ratio < ADAPT_LOW:
                sigma /= ADAPT_FACTOR
                gamma = sigma * xtx_norm
    if not np.all(np.isfinite(beta)) or not np.all(np.isfinite(u)):
        raise SolverError("ADMM produced non-finite iterates")
    if not converged and acc_count > 0:
        beta = beta_acc / acc_count  # ergodic output at the iteration cap
    report = SolverReport(
        converged=converged,
        iterations=j,
        objective=spec.objective(beta),
        residuals={"eps_pinf": eps_pinf, "eps_dinf": eps_dinf, "eps_gap": eps_gap},
        wall_ms=(time.perf_counter() - t0) * 1e3,
        inner_iterations=j,
        warnings=[] if converged else ["iteration cap reached"],
    )
    return SolveState(beta=beta, u=-u), report
