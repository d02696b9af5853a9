import numpy as np
import pytest

from sqreg import (
    AdmmConfig,
    QuantileProblem,
    SubproblemSpec,
    admm_solve,
    check_loss,
    matrix_norms,
    ppa_solve,
    prox_check_loss,
)
from sqreg.admm import admm_beta_update, admm_z_update, dual_box_value

from conftest import make_problem, make_subproblem


def beta_block_objective(beta_var, beta, z, u, spec, sigma, gamma):
    """The beta-block objective including the semi-proximal term."""
    pr = spec.problem
    r = pr.design @ beta_var + z - pr.response
    val = np.sum(spec.weights * np.abs(beta_var)) + u @ (pr.design @ beta_var) + 0.5 * sigma * (r @ r)
    diff = beta_var - beta
    quad = gamma * (diff @ diff) - sigma * np.sum((pr.design @ diff) ** 2)
    return float(val + 0.5 * quad)


def beta_update(beta, z, u, spec, sigma, gamma):
    """The beta step from (beta, z, u), with s = X beta + z - y + u/sigma."""
    pr = spec.problem
    return admm_beta_update(beta, pr.design @ beta + z - pr.response + u / sigma, spec, sigma, gamma)


def test_beta_update_zero_weights(rng):
    spec, _ = make_subproblem(1, 8, 5, lam=0.0)
    sigma = 1.0
    gamma = sigma * matrix_norms(spec.problem.design).spectral ** 2
    beta = rng.standard_normal(5)
    z = rng.standard_normal(8)
    u = rng.standard_normal(8)
    out = beta_update(beta, z, u, spec, sigma, gamma)
    grad = spec.problem.design.T @ (spec.problem.design @ beta + z - spec.problem.response + u / sigma)
    assert np.allclose(out, beta - sigma / gamma * grad)


def test_beta_update_total_shrinkage(rng):
    spec, _ = make_subproblem(2, 8, 5, lam=1e6)
    beta = rng.standard_normal(5)
    out = beta_update(beta, rng.standard_normal(8), rng.standard_normal(8), spec, 1.0, 50.0)
    assert np.all(out == 0.0)


def test_beta_update_is_block_minimizer(rng):
    # 1-d instance: grid-min oracle of the beta-block objective
    pr = QuantileProblem(np.array([[1.3]]), np.array([0.7]), tau=0.4)
    spec = SubproblemSpec(problem=pr, weights=np.array([0.3]))
    sigma = 1.2
    gamma = sigma * 1.3**2
    beta = np.array([0.4])
    z = np.array([-0.2])
    u = np.array([0.5])
    out = beta_update(beta, z, u, spec, sigma, gamma)
    coarse_grid = np.linspace(-3.0, 3.0, 6001)
    vals = [beta_block_objective(np.array([t]), beta, z, u, spec, sigma, gamma) for t in coarse_grid]
    coarse = coarse_grid[int(np.argmin(vals))]
    fine_grid = np.linspace(coarse - 0.01, coarse + 0.01, 20001)
    fvals = [beta_block_objective(np.array([t]), beta, z, u, spec, sigma, gamma) for t in fine_grid]
    oracle = fine_grid[int(np.argmin(fvals))]
    assert out[0] == pytest.approx(oracle, abs=1e-6)


def test_z_update(rng):
    spec, _ = make_subproblem(3, 6, 4, lam=0.1)
    z = admm_z_update(spec.problem.design @ np.zeros(4), np.zeros(6), spec, 2.0)
    expect = prox_check_loss(spec.problem.response, 2.0, spec.problem.tau, 6)
    assert np.allclose(z, expect)


def test_admm_feasible_unpenalized():
    rng = np.random.default_rng(4)
    n, p = 12, 24
    X = rng.standard_normal((n, p))
    y = X @ rng.standard_normal(p)
    pr = QuantileProblem(X, y, tau=0.5)
    spec = SubproblemSpec(problem=pr, weights=np.zeros(p))
    state, report = admm_solve(spec, AdmmConfig(j_max=5000))
    assert report.objective <= 1e-5


def test_admm_matches_pdsn(rng):
    for seed in range(4):
        spec, _ = make_subproblem(50 + seed, 60, 30, lam=0.08)
        astate, arep = admm_solve(spec, AdmmConfig(j_max=20000, eps_admm=1e-8))
        pstate, prep = ppa_solve(spec)
        rel = abs(arep.objective - prep.objective) / max(abs(arep.objective), abs(prep.objective))
        assert rel <= 1e-5


def test_admm_gap_decreases_small_instance():
    spec, _ = make_subproblem(8, 25, 10, lam=0.3)
    state, report = admm_solve(spec, AdmmConfig(j_max=3000, record_trace=True))
    gaps = [t[4] for t in state.trace]
    assert min(gaps) <= 1e-6


def test_weak_duality_along_iterates():
    spec, _ = make_subproblem(9, 20, 8, lam=0.2)
    cfg = AdmmConfig(j_max=400, record_trace=True)
    state, report = admm_solve(spec, cfg)
    # rerun manually to check the feasible dual value at a few iterates
    for u in (np.zeros(20), state.u, -state.u):
        lower = dual_box_value(u, spec)
        assert lower <= report.extras["w_prim"] + 1e-8


def test_primal_feasibility_trend():
    # windowed monotone trend (not per-step): most 100-iteration window means
    # decrease and the overall level drops by orders of magnitude
    for seed in (8, 20):
        spec, _ = make_subproblem(seed, 25 if seed == 8 else 50, 10, lam=0.3)
        state, report = admm_solve(spec, AdmmConfig(j_max=5000, record_trace=True))
        pinf = np.array([t[2] for t in state.trace])
        w = 100
        means = [pinf[i : i + w].mean() for i in range(0, len(pinf) - w + 1, w)]
        dec = sum(means[i + 1] <= means[i] * 1.05 for i in range(len(means) - 1))
        assert dec / (len(means) - 1) >= 0.7
        assert means[-1] <= means[0] / 10.0


def test_sigma_adapt_agreement():
    for seed in (11, 12):
        spec, _ = make_subproblem(seed, 30, 15, lam=0.1)
        s_on, r_on = admm_solve(spec, AdmmConfig(j_max=8000, sigma_adapt=True))
        s_off, r_off = admm_solve(spec, AdmmConfig(j_max=8000, sigma_adapt=False))
        rel = abs(r_on.objective - r_off.objective) / max(1e-12, abs(r_off.objective))
        assert rel <= 1e-5


def test_admm_config_validation():
    with pytest.raises(ValueError):
        AdmmConfig(sigma0=0.0)


def test_zeta_zero_at_fixed_point():
    # at an exact fixed point the dual-infeasibility block vanishes;
    # run a converged instance and confirm the last measures are tiny
    spec, _ = make_subproblem(13, 15, 6, lam=0.3)
    state, report = admm_solve(spec, AdmmConfig(j_max=50000, eps_admm=1e-9))
    assert report.converged
    assert max(state.eps_pinf, state.eps_dinf) <= 1e-9


def _admm_solve_reference(spec, cfg, z0=None, u0=None):
    """The admm_solve loop that computed the duality gap on every iteration,
    kept as the oracle of the loop that computes it only when it can stop
    the loop, at the cap and for the trace."""
    from sqreg.admm import (ADAPT_EVERY, ADAPT_FACTOR, ADAPT_HIGH, ADAPT_LOW, STEP,
                            AdmmState, _box_multiplier, _split_objective)
    from sqreg.report import SolverReport

    pr = spec.problem
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
        eps_pinf = float(np.linalg.norm(du) / (STEP * sigma * ynorm1))
        zeta = X.T @ (du - sigma * s + u) - gamma * (beta_new - beta)
        eps_dinf = float(np.sqrt(zeta @ zeta + dinf_scale * (du @ du)) / ynorm1)
        beta, z, u, Xb = beta_new, z_new, u_new, Xb_new
        if j > avg_from:
            beta_acc = beta.copy() if beta_acc is None else beta_acc + beta
            acc_count += 1
        w_prim = _split_objective(beta, z, spec)
        w_dual_min = -float(_box_multiplier(u, pr.tau, n) @ y)
        gap_sum = w_prim + w_dual_min
        eps_gap = float(abs(gap_sum) / max(1.0, 0.5 * gap_sum))
        if cfg.record_trace:
            trace.append((w_prim, -w_dual_min, eps_pinf, eps_dinf, eps_gap))
        if max(eps_pinf, eps_dinf, eps_gap) <= cfg.eps_admm:
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
    if not converged and acc_count > 0:
        beta = beta_acc / acc_count
        z = admm_z_update(X @ beta, u, spec, sigma)
    state = AdmmState(beta=beta, z=z, u=u, sigma=sigma,
                      eps_pinf=eps_pinf, eps_dinf=eps_dinf, eps_gap=eps_gap)
    report = SolverReport(
        converged=converged, iterations=j, objective=spec.objective(beta),
        residuals={"eps_pinf": eps_pinf, "eps_dinf": eps_dinf, "eps_gap": eps_gap},
        wall_ms=0.0, solver="admm", inner_iterations=j,
        warnings=[] if converged else ["iteration cap reached"],
        extras={"w_prim": w_prim, "w_dual": -w_dual_min},
    )
    if cfg.record_trace:
        state.trace = trace
    return state, report


def _as_hex(obj):
    """obj with every float (also inside arrays, lists and dicts) as float.hex."""
    if isinstance(obj, dict):
        return {k: _as_hex(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_as_hex(v) for v in (obj.tolist() if isinstance(obj, np.ndarray) else obj)]
    if isinstance(obj, float):
        return obj.hex()
    return obj


def _sigma_moves(state):
    """(raises, cuts) of sigma read from a traced run's checkpoints."""
    checks = [state.trace[j - 1] for j in range(50, len(state.trace) + 1, 50)]
    ratios = [t[2] / t[3] for t in checks if t[3] > 0]
    return sum(r > 10.0 for r in ratios), sum(r < 0.1 for r in ratios)


def test_admm_loop_matches_reference_loop():
    converging, _ = make_subproblem(8, 25, 10, lam=0.3)
    adapting, _ = make_subproblem(14, 20, 8, lam=0.2)  # sigma is raised once and cut 7 times
    warm, _ = admm_solve(converging, AdmmConfig(j_max=100))
    cases = [
        (converging, AdmmConfig(), None, None),
        (converging, AdmmConfig(record_trace=True), None, None),
        (converging, AdmmConfig(), warm.z, warm.u),
        (adapting, AdmmConfig(j_max=600), None, None),
        (adapting, AdmmConfig(j_max=600, record_trace=True), None, None),
        (adapting, AdmmConfig(j_max=600, tail_average=50), None, None),
        (adapting, AdmmConfig(j_max=600, tail_average=50, record_trace=True, sigma_adapt=False), None, None),
    ]
    outcomes = []
    for spec, cfg, z0, u0 in cases:
        state, report = admm_solve(spec, cfg, z0=z0, u0=u0)
        ref_state, ref_report = _admm_solve_reference(spec, cfg, z0=z0, u0=u0)
        assert _as_hex(vars(state)) == _as_hex(vars(ref_state))
        got, want = dict(vars(report)), dict(vars(ref_report))
        got.pop("wall_ms"), want.pop("wall_ms")
        assert _as_hex(got) == _as_hex(want)
        outcomes.append((report.converged, report.iterations))
        if cfg.record_trace and spec is adapting and cfg.sigma_adapt:
            assert _sigma_moves(state) == (1, 7)
    # the cases cover convergence before the cap (cold and warm) and the cap
    assert outcomes[0][0] and outcomes[0][1] < 3000 and outcomes[2][0]
    assert not any(c for c, _ in outcomes[3:])
