import numpy as np
import pytest

from sqreg import (
    MscraConfig,
    QuantileProblem,
    SubproblemSpec,
    SurrogateFamily,
    SyntheticSpec,
    admm_solve,
    check_loss,
    generate,
    kkt_residual,
    lambda_grid,
    mscra_fit,
    ppa_solve,
    rho_schedule,
    selection_metrics,
    support_mask,
)
from sqreg import mscra, pdsn
from sqreg.admm import dual_box_value
from sqreg.mscra import stage_kkt_residual

from conftest import make_problem, make_subproblem


def run_stages(monkeypatch, count):
    """Cap fits at ``count`` stages, with the stop rules' tolerances at 0."""
    monkeypatch.setattr(mscra, "MAX_STAGES", count)
    monkeypatch.setattr(mscra, "STAGE_TOL", 0.0)
    monkeypatch.setattr(mscra, "ERR_CHANGE_TOL", 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        MscraConfig()
    with pytest.raises(TypeError):  # lam is the one way to set lambda
        MscraConfig(nu=4.0)
    for kwargs in ({"lam": 0.0}, {"lam": -1.0}, {"lam": float("nan")}, {"lam": float("inf")}):
        with pytest.raises(ValueError, match="must be positive"):
            MscraConfig(**kwargs)


def test_single_stage_is_plain_l1_fit(monkeypatch):
    monkeypatch.setattr(mscra, "MAX_STAGES", 1)
    problem, _ = make_problem(1, 40, 20, sparsity=4, noise=0.2)
    lam = 0.1
    cfg = MscraConfig(tau=0.5, lam=lam)
    final, history = mscra_fit(problem, cfg)
    spec = SubproblemSpec(problem=problem, weights=np.full(20, lam))
    state, report = ppa_solve(spec)
    assert np.allclose(final.beta, state.beta, atol=1e-7)


def test_huge_lambda_gives_zero():
    problem, _ = make_problem(2, 30, 15, sparsity=3, noise=0.2)
    final, history = mscra_fit(problem, MscraConfig(tau=0.5, lam=50.0))
    assert final.nnz == 0
    assert np.all(final.beta == 0.0)
    assert history[0].solver_report.warnings  # degenerate stage-1 fit flagged


def test_stage1_weights_are_lambda(monkeypatch):
    problem, _ = make_problem(3, 20, 10, sparsity=2)
    seen = {}
    import sqreg.mscra as M

    orig = M.ppa_solve

    def spy(spec, u0=None):
        seen.setdefault("w", []).append(spec.weights.copy())
        return orig(spec, u0=u0)

    monkeypatch.setattr(M, "ppa_solve", spy)
    monkeypatch.setattr(M, "MAX_STAGES", 2)
    mscra_fit(problem, MscraConfig(tau=0.5, lam=0.2))
    assert np.allclose(seen["w"][0], 0.2)  # w0 = 0 so stage-1 weights are lambda e


def test_rho_schedule_values():
    assert rho_schedule(1, np.array([0.1]), 1.0) == (pytest.approx(10.0 / 3.0), False)
    assert rho_schedule(1, np.array([2.0]), 1.0) == (1.0, False)
    assert rho_schedule(2, np.array([1.0]), 2.0) == (pytest.approx(2.5), False)
    assert rho_schedule(1, np.zeros(3), 1.0) == (1.0, True)
    # floor keeps rho nondecreasing when the cap binds
    rho, _ = rho_schedule(2, np.array([1e12]), 5.0)
    assert rho == 5.0
    assert rho_schedule(7, np.array([0.4]), 3.3) == (3.3, False)


def test_rho_monotone_and_frozen_after_stage3(monkeypatch):
    run_stages(monkeypatch, 8)
    problem, _ = make_problem(4, 50, 25, sparsity=4, noise=0.3)
    final, history = mscra_fit(problem, MscraConfig(tau=0.5, lam=0.08))
    rhos = [s.rho for s in history]
    assert all(rhos[i + 1] >= rhos[i] for i in range(len(rhos) - 1))
    if len(rhos) > 4:
        assert all(r == rhos[3] for r in rhos[3:])


def test_w_stationarity_inclusion():
    # rho_k |beta_i| must lie in the psi subdifferential at w_i: Fenchel equality
    problem, _ = make_problem(5, 60, 30, sparsity=5, noise=0.2)
    fam = SurrogateFamily("scad", 3.7)
    cfg = MscraConfig(tau=0.5, lam=0.07, surrogate=fam)
    final, history = mscra_fit(problem, cfg)
    for st in history:
        s = st.rho * np.abs(st.beta)
        gap = fam.psi(st.w) + fam.psi_star(s) - s * st.w
        assert np.max(np.abs(gap)) < 1e-8


def test_stage_kkt_residual_constructed_zero():
    n = 3
    tau = 0.3
    X = np.eye(n)
    beta = np.array([2.0, 1.0, 3.0])
    z = np.array([1.0, 2.0, 0.5])
    y = beta + z
    pr = QuantileProblem(X, y, tau=tau)
    u = np.full(n, tau / n)
    w = np.full(n, tau / n)  # weights equal to X^T u at positive beta
    assert stage_kkt_residual(pr, beta, u, w) <= 1e-14
    # Lipschitz response to a multiplier perturbation
    eps = 1e-3
    r = stage_kkt_residual(pr, beta, u + eps, w)
    assert r <= 2 * eps * np.sqrt(n) / (1 + np.linalg.norm(y)) + 1e-12


def test_stage_kkt_after_solve():
    problem, _ = make_problem(6, 40, 20, sparsity=3, noise=0.2)
    final, history = mscra_fit(problem, MscraConfig(tau=0.5, lam=0.1))
    assert final.err_k <= 1e-5


@pytest.mark.parametrize("solve", [ppa_solve, admm_solve])
def test_solvers_share_the_multiplier_contract(solve):
    # both solvers return u in the KKT orientation, so (beta, u) is a KKT
    # pair of the subproblem, and both take it back as a warm start in that
    # orientation; with -u the residual here is 0.068
    spec, _ = make_subproblem(8, 25, 10, lam=0.3)
    state, report = solve(spec)
    assert report.converged
    assert kkt_residual(spec.problem, state.beta, state.u, spec.weights) <= 1e-5
    assert dual_box_value(state.u, spec) == pytest.approx(report.objective, rel=1e-5)
    warm = SubproblemSpec(problem=spec.problem, weights=spec.weights, anchor=state.beta)
    warm_state, warm_report = solve(warm, u0=state.u)
    assert warm_report.converged and warm_report.iterations < report.iterations


def test_admm_driven_fit_selects_pdsn_support():
    problem, _ = make_problem(1, 40, 20, sparsity=4, noise=0.2)
    pdsn_fit, _ = mscra_fit(problem, MscraConfig(tau=0.5, lam=0.1))
    admm_fit, history = mscra_fit(problem, MscraConfig(tau=0.5, lam=0.1, solver="admm"))
    # every ADMM stage solve after the first stops at the iteration cap, so
    # the ADMM-driven fit is not converged, though it finds the support
    assert pdsn_fit.converged and not admm_fit.converged
    assert np.array_equal(support_mask(admm_fit.beta), support_mask(pdsn_fit.beta))
    assert np.max(np.abs(admm_fit.beta - pdsn_fit.beta)) <= 1e-4


def test_lambda_grid():
    problem, _ = make_problem(7, 25, 10)
    g = lambda_grid(problem, 0.05, 0.05, 4)
    assert np.all(g == g[0])
    g2 = lambda_grid(problem, 0.02, 0.25, 50)
    assert len(g2) == 50
    assert np.all(np.diff(g2) >= 0)
    from sqreg import matrix_norms

    scale = matrix_norms(problem.design).col_sum / problem.n
    assert g2[0] == pytest.approx(max(0.01, 0.02 * scale))
    assert g2[-1] == pytest.approx(max(0.01, 0.25 * scale))
    tiny = QuantileProblem(np.full((4, 2), 1e-6), np.zeros(4), tau=0.5)
    assert np.all(lambda_grid(tiny, 0.02, 0.25, 5) == 0.01)
    # a grid with a non-finite lambda is an input error, not a solver failure
    big = QuantileProblem(np.full((2, 3), 10.0), np.ones(2), tau=0.5)
    assert lambda_grid(big, 0.1, 1e307, 3)[-1] == 1e308
    for gamma_max in (float("inf"), 1e308):  # 1e308 * ||X||_1 / n overflows
        with pytest.raises(ValueError):
            lambda_grid(big, 0.1, gamma_max, 3)


def test_mm_monotone_small(monkeypatch):
    # frozen rho + exact inner solves: Theta_{nu,rho} nonincreasing over stages
    monkeypatch.setattr(pdsn, "EPS_PPA_FLOOR", 1e-10)
    run_stages(monkeypatch, 6)
    rho = 1.0
    monkeypatch.setattr(mscra, "rho_schedule", lambda k, beta, prev_rho: (rho, False))
    problem, _ = make_problem(9, 30, 60, sparsity=4, noise=0.3)
    fam = SurrogateFamily("scad", 3.7)
    lam = 0.12
    cfg = MscraConfig(tau=0.5, lam=lam, surrogate=fam)
    final, history = mscra_fit(problem, cfg)
    nu = 1.0 / lam

    def theta(beta):
        return check_loss(problem.response - problem.design @ beta, 0.5) + np.sum(fam.h_rho(rho, beta)) / nu

    vals = [theta(st.beta) for st in history]
    assert all(vals[i + 1] <= vals[i] + 1e-8 for i in range(len(vals) - 1))


def test_support_recovery_band():
    """Pilot-calibrated recovery band: fixed 16-entry pattern, identity
    covariance, (n, p) = (200, 300), lambda = 25/n; both solver paths give
    FP+FN <= 1 on all ten seeds, asserted at the looser <= 2 on >= 8."""
    n, p = 200, 300
    lam = 25.0 / n
    hits = 0
    for seed in range(10):
        ds = generate(SyntheticSpec(n=n, p=p, beta_pattern="fixed16",
                                    covariance="identity", noise="laplace", seed=seed))
        final, _ = mscra_fit(ds.problem, MscraConfig(tau=0.5, lam=lam))
        m = selection_metrics(final.beta, ds)
        hits += (m["fp"] + m["fn"]) <= 2
    assert hits >= 8


def test_tau_symmetry_under_symmetric_noise():
    # paired datasets, Laplace noise: l2 errors at tau and 1-tau agree
    # within two pooled standard errors over ten seeds
    l2 = {0.3: [], 0.7: []}
    for seed in range(10):
        ds = generate(SyntheticSpec(n=200, p=100, beta_pattern="fixed16",
                                    covariance="identity", noise="laplace", seed=31000 + seed))
        for tau in (0.3, 0.7):
            final, _ = mscra_fit(ds.problem, MscraConfig(tau=tau, lam=25.0 / 200))
            l2[tau].append(selection_metrics(final.beta, ds)["l2_error"])
    a, b = np.array(l2[0.3]), np.array(l2[0.7])
    pooled_se = np.sqrt(a.var(ddof=1) / 10 + b.var(ddof=1) / 10)
    assert abs(a.mean() - b.mean()) <= 2 * pooled_se


def test_intercept_unpenalized():
    rng = np.random.default_rng(10)
    n, p = 60, 8
    X = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 1))])
    y = 5.0 + X[:, 1] - 2 * X[:, 2] + 0.1 * rng.standard_normal(n)
    pr = QuantileProblem(X, y, tau=0.5, intercept_column=True)
    final, _ = mscra_fit(pr, MscraConfig(tau=0.5, lam=0.3))
    assert abs(final.beta[0]) > 1.0  # intercept survives heavy penalization
    # the same data with column 0 as an ordinary, penalized covariate
    penalized, _ = mscra_fit(QuantileProblem(X, y, tau=0.5), MscraConfig(tau=0.5, lam=0.3))
    assert abs(penalized.beta[0]) < abs(final.beta[0]) + 1e-9


def test_zero_response_gives_zero_fit():
    rng = np.random.default_rng(14)
    pr = QuantileProblem(rng.standard_normal((20, 8)), np.zeros(20), tau=0.5)
    final, _ = mscra_fit(pr, MscraConfig(tau=0.5, lam=0.1))
    assert np.all(final.beta == 0.0)
    assert final.err_k <= 1e-10


def test_extreme_quantile_levels():
    problem, _ = make_problem(15, 60, 20, sparsity=3, noise=0.1)
    for tau in (0.05, 0.95):
        final, hist = mscra_fit(problem, MscraConfig(tau=tau, lam=0.08))
        assert np.all(np.isfinite(final.beta))
        assert final.err_k <= 1e-5


def test_single_feature_problem():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((40, 1))
    y = 1.7 * x[:, 0] + 0.05 * rng.standard_normal(40)
    pr = QuantileProblem(x, y, tau=0.5)
    final, _ = mscra_fit(pr, MscraConfig(tau=0.5, lam=0.05))
    assert final.beta[0] == pytest.approx(1.7, abs=0.1)


def test_stage_records():
    problem, _ = make_problem(11, 30, 12, sparsity=2)
    final, history = mscra_fit(problem, MscraConfig(tau=0.5, lam=0.15))
    rec = history[0].record()
    assert set(rec) == {"k", "nnz", "err_k", "rho", "solver_iters", "wall_ms"}
    assert rec["k"] == 1 and rec["wall_ms"] >= 0.0
