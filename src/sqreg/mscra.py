"""Multi-stage convex relaxation driver.

Each stage solves the weighted-l1 check-loss subproblem with weights
lambda (1 - w^{k-1}) (zero for an intercept column), updates the penalty
level rho_k on its schedule, recomputes the weights w^k in closed form, and
measures the stage KKT residual of the coupled penalized problem. Stages stop
when the nonzero count and the residual stabilize.
"""

import numpy as np
from dataclasses import dataclass, field

from .admm import admm_solve
from .pdsn import SubproblemSpec, ppa_solve
from .pdsn import kkt_residual as stage_kkt_residual
from .problem import matrix_norms, nonzero_count
from .report import SolverError
from .surrogate import SurrogateFamily

RHO_CAP = 1e8       # stages 2-3 keep rho_k <= RHO_CAP / ||beta||_inf
RHO_GROWTH = 1.25   # stages 2-3 grow rho_k by at most this factor
# A fit runs at most MAX_STAGES stages; once the nonzero count is stable it
# stops at Err_k <= STAGE_TOL or at |Err_k - Err_{k-2}| <= ERR_CHANGE_TOL
# (see mscra_fit).
MAX_STAGES = 10
STAGE_TOL = 1e-5
ERR_CHANGE_TOL = 1e-6


@dataclass
class MscraConfig:
    """Driver configuration: the penalty level ``lam`` is required. The
    stage-0 weights are w^0 = 0, so stage 1 is the plain weighted-l1 fit
    with weights lambda.
    """

    tau: float = 0.5
    lam: float = None
    surrogate: SurrogateFamily = field(default_factory=lambda: SurrogateFamily("scad"))
    solver: str = "pdsn"

    def __post_init__(self):
        if self.lam is None or not 0.0 < self.lam < float("inf"):
            raise ValueError("lambda must be positive and finite")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must be in (0,1)")
        if self.solver not in ("pdsn", "admm"):
            raise ValueError("solver must be 'pdsn' or 'admm'")


@dataclass
class StageState:
    k: int
    beta: np.ndarray
    w: np.ndarray
    rho: float
    err_k: float
    nnz: int
    solver_report: object
    stop_reason: str = ""
    converged: bool = False  # the fit's verdict, set on its final stage

    def record(self):
        """The per-stage JSON record."""
        return {
            "k": self.k,
            "nnz": self.nnz,
            "err_k": float(self.err_k),
            "rho": float(self.rho),
            "solver_iters": int(self.solver_report.inner_iterations),
            "wall_ms": float(self.solver_report.wall_ms),
        }


def rho_schedule(k, beta, prev_rho):
    """Stage-k penalty level.

    Stage 1: max(1, 1/(3 ||beta||_inf)); stages 2-3: min(RHO_GROWTH*prev,
    RHO_CAP/||beta||_inf) floored at prev to keep rho nondecreasing; constant
    afterwards. Returns (rho, degenerate_flag); a zero stage-1 fit gives
    rho = 1 with the flag set.
    """
    bmax = float(np.max(np.abs(beta))) if np.size(beta) else 0.0
    if k == 1:
        if bmax == 0.0:
            return 1.0, True
        return max(1.0, 1.0 / (3.0 * bmax)), False
    if k in (2, 3):
        raw = RHO_GROWTH * prev_rho if bmax == 0.0 else min(RHO_GROWTH * prev_rho, RHO_CAP / bmax)
        return max(prev_rho, raw), False
    return prev_rho, False


def lambda_grid(problem, gamma_min, gamma_max, count):
    """Nondecreasing grid lambda_i = max(0.01, gamma_i ||X||_1 / n) with
    gamma_i linear from gamma_min to gamma_max; every lambda_i is finite."""
    if not 0.0 < gamma_min <= gamma_max < float("inf"):
        raise ValueError("need 0 < gamma_min <= gamma_max < inf")
    if count < 1:
        raise ValueError("count must be >= 1")
    scale = matrix_norms(problem.design).col_sum / problem.n
    gammas = np.linspace(gamma_min, gamma_max, count) if count > 1 else np.array([gamma_min])
    with np.errstate(over="ignore"):
        lams = np.maximum(0.01, gammas * scale)
    if not np.all(np.isfinite(lams)):
        raise ValueError("lambda grid overflows: gamma_max ||X||_1 / n is not finite")
    return lams


def mscra_fit(problem, cfg):
    """Run the multi-stage relaxation; returns (final StageState, history).

    Stage weights fed to the solver are lambda (1 - w^{k-1}), zero for an
    intercept column; the configured solver is warm started at the previous
    stage's beta and multiplier u. A solver's SolverError is raised again
    naming the stage. Termination: nonzero count stable over 4 stages with
    Err_k <= STAGE_TOL; or stable over 3 stages with
    |Err_k - Err_{k-2}| <= ERR_CHANGE_TOL; or MAX_STAGES. The final state's
    ``converged`` is the verdict: a stop rule ended the fit, not MAX_STAGES,
    its Err_k <= STAGE_TOL, and every stage's solver converged.
    """
    problem = problem.with_tau(cfg.tau)

    def stage_weights(w):
        omega = cfg.lam * (1.0 - w)
        if problem.intercept_column:
            omega[0] = 0.0
        return omega

    omega = stage_weights(np.zeros(problem.p))
    beta = np.zeros(problem.p)
    rho = 1.0
    u = None
    history = []
    reason = "max_stages"
    for k in range(1, MAX_STAGES + 1):
        spec = SubproblemSpec(problem=problem, weights=omega, anchor=beta)
        try:
            state, report = (ppa_solve if cfg.solver == "pdsn" else admm_solve)(spec, u0=u)
        except SolverError as exc:
            raise SolverError(f"stage {k} solver failed: {exc}") from exc
        beta, u = state.beta, state.u
        rho, degenerate = rho_schedule(k, beta, rho)
        w = np.asarray(cfg.surrogate.w_update(rho, np.abs(beta)), dtype=float)
        omega = stage_weights(w)  # the next stage's weights
        err_k = stage_kkt_residual(problem, beta, u, omega)
        stage = StageState(k=k, beta=beta, w=w, rho=rho, err_k=err_k, nnz=nonzero_count(beta),
                           solver_report=report)
        history.append(stage)
        if degenerate:
            stage.solver_report.warnings.append("degenerate stage-1 fit (beta = 0)")
        if k >= 4 and len({s.nnz for s in history[-4:]}) == 1 and err_k <= STAGE_TOL:
            reason = "stable_nnz_and_kkt"
            break
        if (k >= 3 and len({s.nnz for s in history[-3:]}) == 1
                and abs(err_k - history[-3].err_k) <= ERR_CHANGE_TOL):
            reason = "stable_nnz_and_err_change"
            break
    final = history[-1]
    final.stop_reason = reason
    final.converged = (reason != "max_stages" and final.err_k <= STAGE_TOL
                       and all(s.solver_report.converged for s in history))
    return final, history
