import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from sqreg import (
    PdsnConfig,
    QuantileProblem,
    SubproblemSpec,
    check_loss,
    clarke_jacobian_check_loss_prox,
    clarke_jacobian_weighted_l1_prox,
    kkt_residual,
    ppa_solve,
    prox_check_loss,
    prox_weighted_l1,
)
from sqreg import pdsn
from sqreg.pdsn import _DualWork, _newton_solve, _strong_wolfe

from conftest import make_problem, make_subproblem


def make_work(spec, beta=None, gamma1=0.05, gamma2=0.05):
    """Dual pieces of the PPA step anchored at beta (default 0)."""
    beta = np.zeros(spec.problem.p) if beta is None else beta
    return _DualWork(spec, beta, gamma1, gamma2)


def psi(work, u):
    return work.value(u, work.X.T @ u)


def phi(work, u):
    return work.gradient(u, work.X.T @ u)[0]


def lp_oracle(problem, weights):
    """Optimum of the weighted-l1 check-loss objective via the equivalent LP."""
    X, y, tau, n, p = problem.design, problem.response, problem.tau, problem.n, problem.p
    c = np.concatenate([weights, weights, np.full(n, tau / n), np.full(n, (1 - tau) / n)])
    A_eq = np.hstack([X, -X, np.eye(n), -np.eye(n)])
    res = linprog(c, A_eq=A_eq, b_eq=y, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def test_dual_gradient_finite_difference(rng):
    for seed in range(3):
        spec, _ = make_subproblem(seed, 12, 25, lam=0.15)
        work = make_work(spec, gamma1=0.07, gamma2=0.04)
        for _ in range(4):
            u = 0.05 * rng.standard_normal(12)
            grad = phi(work, u)
            h = 1e-6
            for i in range(12):
                e = np.zeros(12)
                e[i] = h
                fd = (psi(work, u + e) - psi(work, u - e)) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))


def test_dual_gradient_fd_with_delta(rng):
    # the identity grad Psi = Phi must hold for nonzero inexactness shifts too
    spec, _ = make_subproblem(7, 10, 18, lam=0.2)
    spec.delta = 0.03 * rng.standard_normal(18)
    spec.anchor = 0.1 * rng.standard_normal(18)
    work = make_work(spec, beta=spec.anchor.copy())
    u = 0.02 * rng.standard_normal(10)
    grad = phi(work, u)
    h = 1e-6
    fd = np.array([(psi(work, u + h * e) - psi(work, u - h * e)) / (2 * h) for e in np.eye(10)])
    assert np.max(np.abs(fd - grad)) <= 1e-5 * max(1.0, np.max(np.abs(grad)))


def test_dual_residual_trivial_instance():
    # n=p=1, X=1, y=0, weights 0, anchors 0: Phi(0) = 0
    pr = QuantileProblem(np.array([[1.0]]), np.array([0.0]), tau=0.5)
    spec = SubproblemSpec(problem=pr, weights=np.zeros(1))
    work = make_work(spec, gamma1=1.0, gamma2=1.0)
    assert phi(work, np.zeros(1))[0] == pytest.approx(0.0, abs=1e-15)


def test_dual_objective_convex(rng):
    spec, _ = make_subproblem(11, 9, 14, lam=0.1)
    work = make_work(spec)
    for _ in range(30):
        u1 = rng.standard_normal(9)
        u2 = rng.standard_normal(9)
        mid = psi(work, 0.5 * (u1 + u2))
        assert mid <= 0.5 * psi(work, u1) + 0.5 * psi(work, u2) + 1e-10


def _value_dir_deriv_fresh(work, u, Xtu, d, Xtd):
    """(Psi(u), <grad Psi(u), d>) in fresh arrays through np.clip, the form
    the buffered evaluator replaced."""
    g1, g2 = work.g1, work.g2
    xd = Xtu - work.delta
    q1, q2 = work.bj - xd / g1, work.zj - u / g2
    cz = np.clip(q2, work.lo2, work.hi2)
    pz = q2 - cz
    cb = np.clip(q1, -work.thr1, work.thr1)
    pb = q1 - cb
    env_f = float((work.tau - (pz <= 0)) @ pz) / work.n + 0.5 * g2 * float(cz @ cz)
    env_h = float(work.omega @ np.abs(pb)) + 0.5 * g1 * float(cb @ cb)
    quad = 0.5 * float(u @ u) / g2 + 0.5 * float(xd @ xd) / g1
    return quad - env_f - env_h + work.const, float((work.y - pz) @ d - pb @ Xtd)


@pytest.mark.parametrize("with_delta", [False, True])
def test_line_evaluator_bit_identical(rng, with_delta):
    n, p = 30, 60
    X = rng.standard_normal((n, p))
    X[:, 3] = 0.0  # with omega_3 = 0 and anchor -0.0: q1_3 = -0.0 meets a zero clip bound
    y = X[:, :4] @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 * rng.standard_normal(n)
    weights = np.full(p, 0.05)
    weights[[0, 3]] = 0.0
    delta = 0.01 * rng.standard_normal(p) if with_delta else None
    spec = SubproblemSpec(problem=QuantileProblem(X, y, tau=0.3), weights=weights, delta=delta,
                          anchor=0.1 * rng.standard_normal(p))
    beta = 0.2 * rng.standard_normal(p)
    beta[3] = -0.0
    work = make_work(spec, beta, gamma1=0.07, gamma2=0.04)
    u, d = 0.05 * rng.standard_normal(n), rng.standard_normal(n)
    Xtu, Xtd = X.T @ u, X.T @ d
    hexes = lambda pair: tuple(float(v).hex() for v in pair)
    assert hexes(work.value_dir_deriv(u, Xtu, d, Xtd)) == hexes(_value_dir_deriv_fresh(work, u, Xtu, d, Xtd))
    ev = work.along(u, Xtu, d, Xtd)
    # a1, a2, a1: a repeat must not see state left by the call before it
    for a in (0.37, 2.5, 0.37, 1.0, 1e-3):
        ua, Xtua = u + a * d, Xtu + a * Xtd
        want = hexes(_value_dir_deriv_fresh(work, ua, Xtua, d, Xtd))
        assert hexes(ev(a)) == want
        assert hexes(work.value_dir_deriv(ua, Xtua, d, Xtd)) == want
        assert float(work.value(ua, Xtua)).hex() == want[0]


def test_newton_matrix_structure(rng):
    spec, _ = make_subproblem(3, 8, 15, lam=0.12)
    work = make_work(spec)
    u = 0.1 * rng.standard_normal(8)
    work.value(u, work.X.T @ u)  # leaves the prox arguments in work.q1, work.q2
    q1, q2 = work.q1, work.q2
    # dense reference W = gamma2^{-1} U + gamma1^{-1} X V X^T + mu I, mu = 1e-5
    U = clarke_jacobian_check_loss_prox(q2, work.g2, work.tau, work.n)
    V = clarke_jacobian_weighted_l1_prox(q1, work.omega, work.g1)
    W = (work.X * V) @ work.X.T / work.g1 + np.diag(U / work.g2 + 1e-5)
    assert np.allclose(W, W.T)
    assert np.linalg.eigvalsh(W).min() >= 1e-5 - 1e-12
    # dense reference vs structured assembly used by the solver
    rhs = rng.standard_normal(8)
    d = work.newton_matrix_solve(q1, q2, rhs, PdsnConfig(newton_mu=1e-5))
    assert np.allclose(W @ d, rhs, atol=1e-8)


def test_newton_matrix_empty_active_set():
    pr = QuantileProblem(np.eye(3), np.array([5.0, -4.0, 3.0]), tau=0.5)
    spec = SubproblemSpec(problem=pr, weights=np.full(3, 1e3))
    work = make_work(spec, gamma1=1.0, gamma2=1.0)
    work.value(np.zeros(3), np.zeros(3))
    q1, q2 = work.q1, work.q2
    rhs = np.array([1.0, -2.0, 3.0])
    # V = 0 (huge weights), U = I (large residuals): W = (1/g2 + mu) I
    d = work.newton_matrix_solve(q1, q2, rhs, PdsnConfig(newton_mu=1e-5))
    assert np.allclose(d, rhs / (1.0 + 1e-5))


def test_newton_fast_on_smooth_instance():
    # all prox arguments far from kinks: Phi is affine, Newton needs ~1 step
    rng = np.random.default_rng(5)
    n, p = 6, 4
    X = rng.standard_normal((n, p))
    y = 10.0 + rng.standard_normal(n)
    pr = QuantileProblem(X, y, tau=0.5)
    spec = SubproblemSpec(problem=pr, weights=np.full(p, 1e-4))
    work = make_work(spec, gamma1=1.0, gamma2=1.0)
    u, info = _newton_solve(work, np.zeros(n), 1e-9, PdsnConfig(newton_mu=1e-12))
    assert info["iters"] <= 3
    assert np.linalg.norm(phi(work, u)) / (1 + np.linalg.norm(y)) <= 1e-9


def test_newton_residual_and_gap(rng):
    spec, _ = make_subproblem(21, 10, 20, lam=0.15)
    work = make_work(spec, gamma1=0.05, gamma2=0.05)
    u, _ = _newton_solve(work, np.zeros(10), 1e-10, PdsnConfig())
    res = np.linalg.norm(phi(work, u))
    res /= 1.0 + np.linalg.norm(spec.problem.response)
    assert res <= 1e-8
    # primal-dual gap of the regularized subproblem at the recovered primal
    _, pb = work.gradient(u, work.X.T @ u)
    reg_primal = spec.objective(pb)
    reg_primal += 0.5 * work.g1 * np.sum((pb - work.bj) ** 2)
    reg_primal += 0.5 * work.g2 * np.sum((work.X @ (pb - work.bj)) ** 2)
    gap = reg_primal + psi(work, u)
    assert abs(gap) <= 1e-7


def test_newton_monotone_psi(rng):
    # Psi decreases along the recorded trace on many seeded instances
    for seed in range(20):
        spec, _ = make_subproblem(100 + seed, 10, 20, lam=0.1)
        work = _DualWork(spec, np.zeros(20), 0.05, 0.05)
        _, info = _newton_solve(work, np.zeros(10), 1e-9, PdsnConfig())
        tr = info["psi_trace"]
        assert all(tr[i + 1] <= tr[i] + 1e-10 for i in range(len(tr) - 1))


def test_ppa_interpolating_fit():
    # zero weights, y in range(X), p >= n: check loss goes to 0
    rng = np.random.default_rng(2)
    n, p = 10, 20
    X = rng.standard_normal((n, p))
    y = X @ rng.standard_normal(p)
    pr = QuantileProblem(X, y, tau=0.5)
    spec = SubproblemSpec(problem=pr, weights=np.zeros(p))
    state, report = ppa_solve(spec)
    assert report.converged
    assert check_loss(y - X @ state.beta, 0.5) <= 1e-7


def test_ppa_matches_lp_oracle():
    for seed in (0, 1, 2):
        problem, _ = make_problem(seed, 40, 15, sparsity=4, noise=0.2)
        weights = np.full(15, 0.08)
        spec = SubproblemSpec(problem=problem, weights=weights)
        state, report = ppa_solve(spec)
        opt = lp_oracle(problem, weights)
        assert report.objective == pytest.approx(opt, rel=1e-6)


def test_ppa_larger_instance_lp_oracle():
    problem, _ = make_problem(9, 200, 50, sparsity=6, noise=0.3)
    weights = np.full(50, 0.05)
    spec = SubproblemSpec(problem=problem, weights=weights)
    state, report = ppa_solve(spec)
    opt = lp_oracle(problem, weights)
    assert report.objective == pytest.approx(opt, rel=1e-6)
    assert state.err_ppa <= 1e-8


def test_ppa_objective_monotone_trace():
    spec, _ = make_subproblem(31, 30, 60, lam=0.1)
    state, report = ppa_solve(spec)
    tr = state.trace
    assert all(tr[i + 1] <= tr[i] + 1e-9 for i in range(len(tr) - 1))


def test_kkt_residual_zero_at_constructed_point():
    # diagonal instance with hand-built KKT triple
    n = 4
    tau = 0.4
    X = np.eye(n)
    beta = np.array([1.0, 2.0, 0.5, 3.0])
    z = np.array([1.0, 0.5, 2.0, 1.5])
    y = X @ beta + z
    pr = QuantileProblem(X, y, tau=tau)
    u = np.full(n, tau / n)  # z > 0 componentwise
    weights = np.full(n, tau / n)  # X^T u = omega at beta > 0
    assert kkt_residual(pr, beta, z, u, weights) <= 1e-14
    # perturbation moves it away from zero
    assert kkt_residual(pr, beta + 0.1, z, u, weights) > 1e-3


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), tau=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1),
       with_delta=st.booleans())
def test_kkt_residual_zero_at_random_kkt_triples(n, tau, seed, with_delta):
    # diagonal design, random signs of z and beta (zeros included), random
    # weights and shift: u is built in the check-loss subgradient at z and
    # the weights so that X^T u + delta is a weighted-l1 subgradient at beta
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    X = np.diag(d)
    z_sign = rng.choice([-1.0, 0.0, 1.0], n)
    z = z_sign * rng.uniform(0.1, 5.0, n)
    lo, hi = (tau - 1.0) / n, tau / n
    u = np.where(z_sign > 0, hi, np.where(z_sign < 0, lo, rng.uniform(lo, hi, n)))
    delta = rng.uniform(-0.2, 0.2, n) if with_delta else None
    g = d * u if delta is None else d * u + delta
    active = rng.random(n) < 0.5
    beta = np.where(active, np.sign(g) * rng.uniform(0.1, 5.0, n), 0.0)
    weights = np.abs(g) + np.where(active, 0.0, rng.uniform(0.0, 0.3, n))
    pr = QuantileProblem(X, X @ beta + z, tau=tau)
    res = kkt_residual(pr, beta, z, u, weights, delta)
    assert res <= 1e-12
    if delta is None:  # both call shapes agree on a zero shift
        assert kkt_residual(pr, beta, z, u, weights, np.zeros(n)) == res
    e = np.zeros(n)
    e[rng.integers(n)] = rng.uniform(0.05, 1.0)
    assert kkt_residual(pr, beta + e, z, u, weights, delta) > 1e-6
    assert kkt_residual(pr, beta, z + e, u, weights, delta) > 1e-6


def test_cg_branch_matches_dense():
    # lowering the dense threshold forces the Jacobi-preconditioned CG path
    spec, _ = make_subproblem(42, 30, 60, lam=0.1)
    s_cg, r_cg = ppa_solve(spec, PdsnConfig(dense_solve_max_n=10))
    s_dn, r_dn = ppa_solve(spec, PdsnConfig())
    assert abs(r_cg.objective - r_dn.objective) <= 1e-7
    assert s_cg.err_ppa <= 1e-8


def test_ppa_asymmetric_tau_lp_oracle():
    problem, _ = make_problem(5, 50, 20, tau=0.75)
    weights = np.full(20, 0.07)
    spec = SubproblemSpec(problem=problem, weights=weights)
    state, report = ppa_solve(spec)
    assert report.objective == pytest.approx(lp_oracle(problem, weights), rel=1e-6)


def test_ppa_reports_nonconvergence_gracefully():
    spec, _ = make_subproblem(77, 30, 80, lam=0.02)
    cfg = PdsnConfig(max_newton_iters=5, max_ppa_iters=4)
    state, report = ppa_solve(spec, cfg)
    assert not report.converged
    assert np.all(np.isfinite(state.beta))
    assert report.objective < spec.objective(np.zeros(80)) + 1e-9


def _newton_solve_reference(work, u0, tol, cfg, cache):
    """The _newton_solve loop that rebuilt Phi and the prox images after every
    step and evaluated Psi again at alpha = 0, kept as the oracle of the loop
    that takes them from the line search's last evaluation."""
    def gradient(u, Xtu):
        q1 = work.bj - (Xtu - work.delta) / work.g1
        q2 = work.zj - u / work.g2
        pz = prox_check_loss(q2, work.g2, work.tau, work.n)
        pb = prox_weighted_l1(q1, work.omega, work.g1)
        return work.y - pz - work.X @ pb, pb, q1, q2

    u = np.asarray(u0, dtype=float).copy()
    Xtu = work.X.T @ u
    ynorm1 = 1.0 + np.linalg.norm(work.y)
    warn, psi_trace = [], []
    phi, pb, q1, q2 = gradient(u, Xtu)
    iters = 0
    for iters in range(cfg.max_newton_iters):
        if np.linalg.norm(phi) / ynorm1 <= tol:
            break
        d = work.newton_matrix_solve(q1, q2, -phi, cfg, cache)
        Xtd = work.X.T @ d
        psi0, dpsi0 = _value_dir_deriv_fresh(work, u, Xtu, d, Xtd)
        psi_trace.append(psi0)
        if dpsi0 >= 0.0:
            break
        alpha, _, _, ok = _strong_wolfe(work, u, Xtu, d, Xtd, psi0, dpsi0)
        if not ok and alpha == 0.0:
            warn.append("line search made no progress")
            break
        if not ok:
            warn.append("line search returned best bisection point")
        u = u + alpha * d
        Xtu = Xtu + alpha * Xtd
        phi, pb, q1, q2 = gradient(u, Xtu)
    else:
        iters = cfg.max_newton_iters
        warn.append("newton iteration cap reached")
    psi_trace.append(_value_dir_deriv_fresh(work, u, Xtu, np.zeros_like(u), np.zeros_like(Xtu))[0])
    return u, {"iters": iters, "phi_rel": float(np.linalg.norm(phi) / ynorm1),
               "beta_image": pb, "warnings": warn, "psi_trace": psi_trace}


def test_newton_solve_matches_reference_loop(rng, monkeypatch):
    # every _newton_solve call of whole PPA solves, replayed against the
    # oracle from the same arguments and Newton-matrix cache
    calls = []

    def recording(work, u0, tol, cfg, cache=None):
        calls.append((work, np.array(u0), tol, cfg, copy.deepcopy(cache)))
        return _newton_solve(work, u0, tol, cfg, cache)

    monkeypatch.setattr(pdsn, "_newton_solve", recording)
    shifted, _ = make_subproblem(7, 30, 60, lam=0.05)
    shifted.delta = 0.01 * rng.standard_normal(60)
    shifted.anchor = 0.1 * rng.standard_normal(60)
    capped, _ = make_subproblem(77, 30, 80, lam=0.02)
    runs = [
        (make_subproblem(3, 30, 80, lam=0.02)[0], PdsnConfig()),  # a best-bisection step
        (make_subproblem(0, 30, 60, lam=0.1)[0], PdsnConfig()),   # one more, and a step with no progress
        (shifted, PdsnConfig()),
        (capped, PdsnConfig(max_newton_iters=5, max_ppa_iters=4)),
    ]
    for spec, cfg in runs:
        ppa_solve(spec, cfg)
    warnings = []
    for work, u0, tol, cfg, cache in calls:
        u, info = _newton_solve(work, u0, tol, cfg, copy.deepcopy(cache))
        u_ref, ref = _newton_solve_reference(work, u0, tol, cfg, copy.deepcopy(cache))
        # beta_image too: the sign of its zeros is prox_weighted_l1's
        for got, want in ((u, u_ref), (info["beta_image"], ref["beta_image"]),
                          (info["psi_trace"], ref["psi_trace"]), ([info["phi_rel"]], [ref["phi_rel"]])):
            assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
        assert (info["iters"], info["warnings"]) == (ref["iters"], ref["warnings"])
        warnings += info["warnings"]
    assert any(not np.all(work.delta == 0.0) for work, *_ in calls)
    for kind in ("best bisection point", "no progress", "newton iteration cap"):
        assert any(kind in w for w in warnings), kind
