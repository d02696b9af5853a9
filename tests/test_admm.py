import warnings

import numpy as np
import pytest

from sqreg import (
    QuantileProblem,
    SubproblemSpec,
    admm_solve,
    check_loss,
    matrix_norms,
    ppa_solve,
    prox_check_loss,
)
from sqreg import admm
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
    pr = QuantileProblem(np.array([[1.3]]), np.array([0.7]))
    spec = SubproblemSpec(problem=pr, weights=np.array([0.3]), tau=0.4)
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
    expect = prox_check_loss(spec.problem.response, 2.0, spec.tau, 6)
    assert np.allclose(z, expect)


def test_admm_feasible_unpenalized(monkeypatch):
    monkeypatch.setattr(admm, "MAX_ITERS", 5000)
    rng = np.random.default_rng(4)
    n, p = 12, 24
    X = rng.standard_normal((n, p))
    y = X @ rng.standard_normal(p)
    pr = QuantileProblem(X, y)
    spec = SubproblemSpec(problem=pr, weights=np.zeros(p))
    state, report = admm_solve(spec)
    assert report.objective <= 1e-5


def test_admm_matches_pdsn(monkeypatch):
    monkeypatch.setattr(admm, "MAX_ITERS", 20000)
    monkeypatch.setattr(admm, "EPS_ADMM", 1e-8)
    for seed in range(4):
        spec, _ = make_subproblem(50 + seed, 60, 30, lam=0.08)
        astate, arep = admm_solve(spec)
        pstate, prep = ppa_solve(spec)
        rel = abs(arep.objective - prep.objective) / max(abs(arep.objective), abs(prep.objective))
        assert rel <= 1e-5


def test_admm_gap_decreases_small_instance():
    spec, _ = make_subproblem(8, 25, 10, lam=0.3)
    state, report = admm_solve(spec)
    assert report.converged and report.residuals["eps_gap"] <= 1e-6


def test_admm_reads_the_problems_cached_norms(monkeypatch):
    # two solves on one problem run the power iteration once and give the
    # bits of a solve on a fresh copy of the problem
    import sqreg.problem as sqreg_problem

    calls = []
    spectral_norm = sqreg_problem._spectral_norm
    monkeypatch.setattr(sqreg_problem, "_spectral_norm", lambda A: calls.append(A.shape) or spectral_norm(A))
    spec, _ = make_subproblem(8, 25, 10, lam=0.3)
    first, _ = admm_solve(spec)
    second, _ = admm_solve(spec)
    assert calls == [(25, 10)]
    fresh, _ = admm_solve(make_subproblem(8, 25, 10, lam=0.3)[0])
    assert len(calls) == 2
    for state in (first, second):
        assert state.beta.tobytes() == fresh.beta.tobytes()
        assert state.u.tobytes() == fresh.u.tobytes()


def test_weak_duality_along_iterates(monkeypatch):
    monkeypatch.setattr(admm, "MAX_ITERS", 400)
    spec, _ = make_subproblem(9, 20, 8, lam=0.2)
    state, report = admm_solve(spec)
    # the feasible dual value at a few multipliers lower-bounds the primal
    for u in (np.zeros(20), state.u, -state.u):
        lower = dual_box_value(u, spec)
        assert lower <= report.objective + 1e-8


def test_dual_box_value_huge_weights_without_overflow():
    # weights / |X^T v| would overflow where |X^T v| is tiny; only the
    # entries with |X^T v| > weights are divided
    pr = QuantileProblem(np.array([[1e-10, 1.0], [2e-10, -1.0]]), np.array([1.0, -2.0]))
    spec = SubproblemSpec(problem=pr, weights=np.array([1e308, 0.1]))
    u = np.array([0.25, -0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = dual_box_value(u, spec)
    # v = u, |X^T v| = (2.5e-11, 0.5): only the second column scales v, by 0.2
    assert value == pytest.approx(0.2 * (0.25 * 1.0 + 0.25 * 2.0))


def _recording_z_update(monkeypatch):
    """Calls of admm_z_update inside admm_solve (one per iteration) as
    (sigma, X beta + z - y), recorded in the returned list."""
    calls = []

    def recording(Xb_new, u, spec, sigma):
        z = admm_z_update(Xb_new, u, spec, sigma)
        calls.append((sigma, Xb_new + z - spec.problem.response))
        return z

    monkeypatch.setattr(admm, "admm_z_update", recording)
    return calls


def test_primal_feasibility_trend(monkeypatch):
    # windowed monotone trend (not per-step): most 100-iteration window means
    # decrease and the overall level drops by orders of magnitude
    calls = _recording_z_update(monkeypatch)
    monkeypatch.setattr(admm, "MAX_ITERS", 5000)
    for seed in (8, 20):
        spec, _ = make_subproblem(seed, 25 if seed == 8 else 50, 10, lam=0.3)
        calls.clear()
        state, report = admm_solve(spec)
        ynorm1 = 1.0 + np.linalg.norm(spec.problem.response)
        pinf = np.array([np.linalg.norm(r) / ynorm1 for _, r in calls])
        w = 100
        means = [pinf[i : i + w].mean() for i in range(0, len(pinf) - w + 1, w)]
        dec = sum(means[i + 1] <= means[i] * 1.05 for i in range(len(means) - 1))
        assert dec / (len(means) - 1) >= 0.7
        assert means[-1] <= means[0] / 10.0


def test_sigma_adapt_agreement(monkeypatch):
    monkeypatch.setattr(admm, "MAX_ITERS", 8000)
    for seed in (11, 12):
        spec, _ = make_subproblem(seed, 30, 15, lam=0.1)
        s_on, r_on = admm_solve(spec)
        with monkeypatch.context() as m:
            m.setattr(admm, "ADAPT_EVERY", 8001)  # beyond the cap: sigma stays SIGMA0
            s_off, r_off = admm_solve(spec)
        rel = abs(r_on.objective - r_off.objective) / max(1e-12, abs(r_off.objective))
        assert rel <= 1e-5


def test_zeta_zero_at_fixed_point(monkeypatch):
    # at an exact fixed point the dual-infeasibility block vanishes;
    # run a converged instance and confirm the last measures are tiny
    monkeypatch.setattr(admm, "MAX_ITERS", 50000)
    monkeypatch.setattr(admm, "EPS_ADMM", 1e-9)
    spec, _ = make_subproblem(13, 15, 6, lam=0.3)
    state, report = admm_solve(spec)
    assert report.converged
    assert max(report.residuals["eps_pinf"], report.residuals["eps_dinf"]) <= 1e-9


def _admm_solve_reference(spec, u0, residuals):
    """The admm_solve loop that computed the dual infeasibility and the
    duality gap on every iteration, kept as the oracle of the loop that
    computes each only on the iterations that read it. Reads the module
    constants as they are set when it is called. u0 and the returned u are
    in the KKT orientation. Each iteration's (eps_pinf, eps_dinf) is
    appended to the list ``residuals``."""
    from sqreg.admm import (ADAPT_EVERY, ADAPT_FACTOR, ADAPT_HIGH, ADAPT_LOW, EPS_ADMM,
                            MAX_ITERS, SIGMA0, STEP, TAIL_AVERAGE)
    from sqreg.report import SolveState, SolverReport

    pr = spec.problem
    X, y = pr.design, pr.response
    n = pr.n
    xtx_norm = matrix_norms(X).spectral ** 2
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
        eps_pinf = float(np.linalg.norm(du) / (STEP * sigma * ynorm1))
        zeta = X.T @ (du - sigma * s + u) - gamma * (beta_new - beta)
        eps_dinf = float(np.sqrt(zeta @ zeta + dinf_scale * (du @ du)) / ynorm1)
        residuals.append((eps_pinf, eps_dinf))
        beta, z, u, Xb = beta_new, z_new, u_new, Xb_new
        if j > avg_from:
            beta_acc = beta.copy() if beta_acc is None else beta_acc + beta
            acc_count += 1
        gap = spec.objective(beta, z) - dual_box_value(-u, spec)
        eps_gap = float(abs(gap) / max(1.0, 0.5 * gap))
        if max(eps_pinf, eps_dinf, eps_gap) <= EPS_ADMM:
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
    if not converged and acc_count > 0:
        beta = beta_acc / acc_count
    state = SolveState(beta=beta, u=-u)
    report = SolverReport(
        converged=converged, iterations=j, objective=spec.objective(beta),
        residuals={"eps_pinf": eps_pinf, "eps_dinf": eps_dinf, "eps_gap": eps_gap},
        wall_ms=0.0, inner_iterations=j,
        warnings=[] if converged else ["iteration cap reached"],
    )
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


def _sigma_moves(calls):
    """(raises, cuts) of sigma between consecutive admm_z_update calls."""
    sigmas = [sigma for sigma, _ in calls]
    pairs = list(zip(sigmas, sigmas[1:]))
    return sum(b > a for a, b in pairs), sum(b < a for a, b in pairs)


def test_admm_loop_matches_reference_loop(monkeypatch):
    converging, _ = make_subproblem(8, 25, 10, lam=0.3)
    adapting, _ = make_subproblem(14, 20, 8, lam=0.2)  # sigma is raised once and cut 7 times
    # p > n: after sigma first adapts, isolated iterations have
    # eps_pinf <= EPS_ADMM < eps_dinf (137, 230 and 1447), so eps_dinf is
    # computed there between iterations that keep its last value; its cap,
    # 1490, is off the ADAPT_EVERY grid, so the reported eps_dinf is
    # computed there for the report alone
    wide, _ = make_subproblem(24, 15, 30, lam=0.2)
    with monkeypatch.context() as m:
        m.setattr(admm, "MAX_ITERS", 100)
        warm, _ = admm_solve(converging)
    # each case's settings of the sqreg.admm constants; ADAPT_EVERY beyond
    # the cap turns sigma adaptation off
    cases = [
        (converging, {}, None),
        (converging, {}, warm.u),
        (adapting, {"MAX_ITERS": 600}, None),
        (adapting, {"MAX_ITERS": 600, "TAIL_AVERAGE": 50}, None),
        (adapting, {"MAX_ITERS": 600, "TAIL_AVERAGE": 50, "ADAPT_EVERY": 601}, None),
        (wide, {"MAX_ITERS": 1490}, None),
    ]
    calls = _recording_z_update(monkeypatch)
    outcomes = []
    for spec, settings, u0 in cases:
        calls.clear()
        with monkeypatch.context() as m:
            for name, value in settings.items():
                m.setattr(admm, name, value)
            state, report = admm_solve(spec, u0=u0)
            residuals = []
            ref_state, ref_report = _admm_solve_reference(spec, u0, residuals)
        assert _as_hex(vars(state)) == _as_hex(vars(ref_state))
        got, want = dict(vars(report)), dict(vars(ref_report))
        got.pop("wall_ms"), want.pop("wall_ms")
        assert _as_hex(got) == _as_hex(want)
        outcomes.append((report.converged, report.iterations))
        if spec is adapting and "ADAPT_EVERY" not in settings:
            assert _sigma_moves(calls) == (1, 7)
        if spec is wide:
            # the stop test reads a fresh eps_dinf that keeps the loop going
            assert any(pinf <= admm.EPS_ADMM < dinf
                       for pinf, dinf in residuals[admm.ADAPT_EVERY:-1])
    # the cases cover convergence before the cap (cold and warm) and the cap
    assert outcomes[0][0] and outcomes[0][1] < 3000 and outcomes[1][0]
    assert not any(c for c, _ in outcomes[2:])
