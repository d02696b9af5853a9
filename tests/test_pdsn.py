import copy
import glob
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from sqreg import (
    QuantileProblem,
    SubproblemSpec,
    SyntheticSpec,
    check_loss,
    generate,
    kkt_residual,
    lambda_grid,
    ppa_solve,
    prox_check_loss,
    prox_weighted_l1,
)
from sqreg import _openblas, pdsn
from sqreg.pdsn import _DualWork, _newton_solve, _strong_wolfe

from conftest import make_problem, make_subproblem


def make_work(spec, beta=None, gamma=0.05):
    """Dual pieces of the PPA step anchored at beta (default 0)."""
    beta = np.zeros(spec.problem.p) if beta is None else beta
    return _DualWork(spec, beta, gamma)


def stack(work, u):
    """The stacked dual point (u; X^T u) the workspace evaluates."""
    return np.concatenate((u, work.X.T @ u))


def psi(work, u):
    return work.value(stack(work, u))


def phi(work, u):
    work.value(stack(work, u))
    return work.gradient_here()[0]


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
        anchor = None if seed == 0 else 0.1 * rng.standard_normal(25)  # PPA anchors away from 0 too
        works = [make_work(spec, beta=anchor, gamma=gamma) for gamma in (0.07, 0.04)]
        for _ in range(4):
            u = 0.05 * rng.standard_normal(12)
            for work in works:
                grad = phi(work, u)
                h = 1e-6
                for i in range(12):
                    e = np.zeros(12)
                    e[i] = h
                    fd = (psi(work, u + e) - psi(work, u - e)) / (2 * h)
                    assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))


def test_dual_residual_trivial_instance():
    # n=p=1, X=1, y=0, weights 0, anchors 0: Phi(0) = 0
    pr = QuantileProblem(np.array([[1.0]]), np.array([0.0]), tau=0.5)
    spec = SubproblemSpec(problem=pr, weights=np.zeros(1))
    work = make_work(spec, gamma=1.0)
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
    g = work.g
    q1, q2 = work.bj - Xtu / g, work.zj - u / g
    cz = np.clip(q2, work.lo2, work.hi2)
    pz = q2 - cz
    thr1 = work.omega / g
    cb = np.clip(q1, -thr1, thr1)
    pb = q1 - cb
    env_f = float((work.tau - (pz <= 0)) @ pz) / work.n + 0.5 * g * float(cz @ cz)
    env_h = float(work.omega @ np.abs(pb)) + 0.5 * g * float(cb @ cb)
    quad = 0.5 * float(u @ u) / g + 0.5 * float(Xtu @ Xtu) / g
    return quad - env_f - env_h, float((work.y - pz) @ d - pb @ Xtd)


def test_line_evaluator_bit_identical(rng):
    n, p = 30, 60
    X = rng.standard_normal((n, p))
    X[:, 3] = 0.0  # with omega_3 = 0 and anchor -0.0: q1_3 = -0.0 meets a zero clip bound
    y = X[:, :4] @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 * rng.standard_normal(n)
    weights = np.full(p, 0.05)
    weights[[0, 3]] = 0.0
    spec = SubproblemSpec(problem=QuantileProblem(X, y, tau=0.3), weights=weights)
    beta = 0.2 * rng.standard_normal(p)
    beta[3] = -0.0
    u, d = 0.05 * rng.standard_normal(n), rng.standard_normal(n)
    v, dv = np.concatenate((u, X.T @ u)), np.concatenate((d, X.T @ d))
    hexes = lambda pair: tuple(float(x).hex() for x in pair)
    for gamma in (0.07, 0.04):
        work = make_work(spec, beta, gamma=gamma)
        ev = work.along(v, dv)
        # a1, a2, a1: a repeat must not see state left by the call before it
        for a in (0.0, 0.37, 2.5, 0.37, 1.0, 1e-3):
            va = v + a * dv
            want = hexes(_value_dir_deriv_fresh(work, va[:n], va[n:], d, dv[n:]))
            assert hexes(ev(a)) == want
            assert float(work.value(va)).hex() == want[0]
            assert float(work.dir_deriv(dv)).hex() == want[1]
        # a non-finite dual value stops the search
        with np.errstate(invalid="ignore"), pytest.raises(pdsn.SolverError):
            ev(np.inf)


def test_dual_work_copy_evaluates_alike(rng):
    # a copy's prox arguments and images are views of its own stacked
    # buffers: it evaluates as the original does and leaves the original be
    spec, _ = make_subproblem(5, 12, 25, lam=0.1)
    work = make_work(spec, 0.1 * rng.standard_normal(25), gamma=0.07)
    twin = copy.deepcopy(work)
    v, dv = stack(work, 0.05 * rng.standard_normal(12)), stack(work, rng.standard_normal(12))
    hexes = lambda values: [float(x).hex() for x in values]
    want = hexes([work.value(v), work.dir_deriv(dv), *work.q1, *work.pz])
    pb = work.pb.copy()
    got = hexes([twin.value(v), twin.dir_deriv(dv), *twin.q1, *twin.pz])
    assert got == want
    assert np.array_equal(work.pb, pb)
    for w in (work, twin):
        assert np.shares_memory(w.q1, w._q) and np.shares_memory(w.pz, w._img)
    assert hexes(twin.along(v, dv)(0.3)) == hexes(work.along(v, dv)(0.3))


def test_newton_matrix_structure(rng):
    spec, _ = make_subproblem(3, 8, 15, lam=0.12)
    work = make_work(spec)
    u = 0.1 * rng.standard_normal(8)
    work.value(stack(work, u))  # leaves the prox arguments in work.q1, work.q2
    q1, q2 = work.q1, work.q2
    # dense reference W = gamma^{-1} (U + X V X^T) + mu I, mu = 1e-5, with
    # the Clarke elements U = 1 outside the check-loss kinks and V = 1 where
    # |gamma q1| > omega
    hi, lo = work.tau / (work.n * work.g), (work.tau - 1.0) / (work.n * work.g)
    U = np.where((q2 > hi) | (q2 < lo), 1.0, 0.0)
    V = np.where(np.abs(work.g * q1) > work.omega, 1.0, 0.0)
    W = (work.X * V) @ work.X.T / work.g + np.diag(U / work.g + 1e-5)
    assert np.allclose(W, W.T)
    assert np.linalg.eigvalsh(W).min() >= 1e-5 - 1e-12
    # dense reference vs structured assembly used by the solver
    rhs = rng.standard_normal(8)
    d = work.newton_direction(rhs)
    assert np.allclose(W @ d, rhs, atol=1e-8)


def test_newton_matrix_empty_active_set():
    pr = QuantileProblem(np.eye(3), np.array([5.0, -4.0, 3.0]), tau=0.5)
    spec = SubproblemSpec(problem=pr, weights=np.full(3, 1e3))
    work = make_work(spec, gamma=1.0)
    work.value(np.zeros(6))
    rhs = np.array([1.0, -2.0, 3.0])
    # V = 0 (huge weights), U = I (large residuals): W = (1/g + mu) I
    d = work.newton_direction(rhs)
    assert np.allclose(d, rhs / (1.0 + 1e-5))


def test_newton_matrix_rank_update(monkeypatch):
    # the unscaled active Gram W0 that one PPA solve keeps across its Newton
    # and PPA steps equals a fresh X_J X_J^T after every direction; a step
    # whose active set J is unchanged leaves it untouched, and a step that
    # changes a few columns updates it in place. Built or updated, W0 is
    # exactly symmetric, which lets newton_direction read it transposed
    seen = {"kept": 0, "updated": 0, "built": 0}
    newton_direction = _DualWork.newton_direction

    def checked(work, rhs):
        mask, held = work.mask, work.W0
        before = None if held is None else held.copy()
        d = newton_direction(work, rhs)
        Xa = work.X[:, work.mask]
        fresh = Xa @ Xa.T
        assert np.linalg.norm(work.W0 - fresh) <= 1e-10 * np.linalg.norm(fresh)
        assert np.array_equal(work.W0, work.W0.T)
        if mask is not None and np.array_equal(mask, work.mask):
            assert work.W0 is held and np.array_equal(work.W0, before)
            seen["kept"] += 1
        elif mask is not None and work.W0 is held:
            seen["updated"] += 1
        else:
            seen["built"] += 1
        return d

    monkeypatch.setattr(_DualWork, "newton_direction", checked)
    for seed in (3, 7):
        spec, _ = make_subproblem(seed, 30, 60, lam=0.05)
        ppa_solve(spec)
    assert all(count >= 1 for count in seen.values()), seen


def _replay_newton_directions(specs):
    """Run ppa_solve on each spec and check every newton_direction call, and
    the same call on a deep copy of the workspace taken just before it,
    against the fresh assembly W = W0 / gamma (a new C-ordered matrix) with
    dvec added to its diagonal, solved by np.linalg.solve, by float hex.
    Returns the counts of the calls, of the copies checked, of the calls
    that reused the factors of the call before, and of the calls whose
    active set J was empty, unchanged with gamma changed (a new PPA step),
    rank-updated or rebuilt."""
    newton_direction = _DualWork.newton_direction
    seen = {"calls": 0, "empty": 0, "gamma only": 0, "rank update": 0, "rebuild": 0,
            "copied": 0, "factors reused": 0}
    last_gamma = {}

    def hexes(v):
        return [float(x).hex() for x in v]

    def checked(work, rhs):
        mask, held, diag = work.mask, work.W0, work.diag
        factors = None if work.lu is None else work.lu.copy(order="F")
        seen["calls"] += 1
        twin = copy.deepcopy(work) if seen["calls"] % 3 == 0 else None
        d = newton_direction(work, rhs)
        fresh = np.ascontiguousarray(work.W0 / work.g)
        fresh.flat[:: work.n + 1] += (work.pz != 0.0) / work.g + pdsn.NEWTON_MU
        want = hexes(np.linalg.solve(fresh, rhs))
        assert hexes(d) == want
        assert work.lu.flags.f_contiguous
        if diag is not None and work.diag is diag:  # no new factorization
            assert np.array_equal(work.lu, factors)
            seen["factors reused"] += 1
        if twin is not None:
            assert hexes(newton_direction(twin, rhs)) == want
            for mine, its in ((work.lu, twin.lu), (work.piv, twin.piv)):
                assert not np.shares_memory(mine, its)
            assert twin.lu.flags.f_contiguous and np.array_equal(twin.lu, work.lu)
            seen["copied"] += 1
        seen["empty"] += not work.mask.any()
        if mask is not None:
            if np.array_equal(mask, work.mask):
                seen["gamma only"] += work.g != last_gamma[id(work)]
            else:
                seen["rank update" if work.W0 is held else "rebuild"] += 1
        last_gamma[id(work)] = work.g
        return d

    with mock.patch.object(_DualWork, "newton_direction", checked):
        for spec in specs:
            ppa_solve(spec)
    return seen


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), p=st.integers(2, 80),
       lam=st.floats(0.005, 0.3), tau=st.floats(0.1, 0.9))
def test_newton_direction_matches_fresh_assembly(seed, n, p, lam, tau):
    # the LU factors kept across steps give the bits of np.linalg.solve on a
    # fresh W0 / gamma with dvec on its diagonal
    spec, _ = make_subproblem(seed, n, p, lam=lam, tau=tau)
    _replay_newton_directions([spec])


def test_newton_direction_replay_covers_the_cache():
    # the replay above meets every way the kept factors go stale or stay
    # valid: gamma shrinking over an unchanged J, J rank-updated and rebuilt,
    # an empty J (the first step from beta = 0), a matrix equal to the last
    # one factored, and copied workspaces
    specs = [make_subproblem(seed, 30, 80, lam=0.02)[0] for seed in (3, 77)]
    specs.append(make_subproblem(9, 200, 50, lam=0.05)[0])
    seen = _replay_newton_directions(specs)
    assert all(count >= 1 for count in seen.values()), seen


def test_newton_direction_on_tall_data(monkeypatch):
    # n = 2100 > p: every direction is the dense LU's, with the bits of
    # np.linalg.solve, as for the small systems above. Three capped Newton
    # steps of a fit's stage-1 subproblem at the default lambda: on the
    # third, a Jacobi-preconditioned CG solve stalls at its 10 n iteration
    # cap
    problem = generate(SyntheticSpec(n=2100, p=300, beta_pattern="fixed16", seed=2)).problem
    lam = lambda_grid(problem, 0.1, 0.1, 1)[0]
    monkeypatch.setattr(pdsn, "MAX_NEWTON_ITERS", 3)
    monkeypatch.setattr(pdsn, "MAX_PPA_ITERS", 1)
    seen = _replay_newton_directions([SubproblemSpec(problem=problem,
                                                     weights=np.full(problem.p, lam))])
    assert seen["calls"] == 3, seen


def test_newton_factors_refresh_when_the_diagonal_hides_a_change():
    # entries of X_J X_J^T / gamma far below mu vanish in the diagonal's
    # rounding, not off it: a new gamma, or a column added to J, leaves every
    # diagonal bit as it was and still changes the matrix. The kept factors
    # must then be refreshed to those of the new matrix
    if _openblas.dgetrf is None:
        pytest.skip("this numpy ships no libscipy_openblas64_")

    def direction(work, u):
        work.value(stack(work, u))
        d = work.newton_direction(np.array([1.0, -2.0, 0.5]))
        fresh = np.asfortranarray(work.W0 / work.g)
        fresh.flat[:: work.n + 1] += (work.pz != 0.0) / work.g + pdsn.NEWTON_MU
        piv = np.empty(work.n, dtype=np.int64)
        assert _openblas.lu_factor(fresh, piv) == 0
        assert np.array_equal(work.lu, fresh) and np.array_equal(work.piv, piv)
        return work.diag.copy()

    beta = np.array([1.0, 0.0])  # J = {0} at u = 0, weights 0
    # a new gamma: the one active column is tiny
    X = np.array([[1e-12, 0.0], [1e-12, 0.0], [0.0, 0.0]])
    pr = QuantileProblem(X, X @ beta, tau=0.5)  # z^j = 0: every residual in the box
    work = make_work(SubproblemSpec(problem=pr, weights=np.zeros(2)), beta, gamma=0.1)
    diag = direction(work, np.zeros(3))
    work.anchor(beta, 0.05)
    assert np.array_equal(direction(work, np.zeros(3)), diag)
    # a rank update: column 1, tiny, joins J where W0 was 0
    X = np.array([[1.0, 0.0], [0.0, 1e-12], [0.0, 1e-12]])
    pr = QuantileProblem(X, X @ beta, tau=0.5)
    work = make_work(SubproblemSpec(problem=pr, weights=np.zeros(2)), beta, gamma=0.1)
    diag = direction(work, np.zeros(3))
    W0 = work.W0
    assert np.array_equal(direction(work, np.array([0.0, 0.01, 0.01])), diag)
    assert work.W0 is W0 and work.mask.all()


def test_newton_direction_without_numpy_openblas(monkeypatch):
    # without numpy's bundled OpenBLAS, np.linalg.solve solves the assembled
    # matrix at every step: the same direction bits, and the same solve
    specs = [make_subproblem(seed, 30, 80, lam=0.02)[0] for seed in (3, 77)]
    with_lapack = [ppa_solve(spec)[0] for spec in specs]
    monkeypatch.setattr(_openblas, "dgetrf", None)
    monkeypatch.setattr(_openblas, "dgetrs", None)
    seen = _replay_newton_directions(specs)
    assert seen["factors reused"] >= 1, seen
    for spec, want in zip(specs, with_lapack):
        got = ppa_solve(spec)[0]
        for a, b in ((got.beta, want.beta), (got.u, want.u)):
            assert [float(v).hex() for v in a] == [float(v).hex() for v in b]


def test_numpy_openblas_lu_is_bound():
    # a numpy that ships its OpenBLAS must get the Newton LU through it: a
    # missed binding would fall back to np.linalg.solve without a sign
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    if not glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")):
        pytest.skip("this numpy ships no libscipy_openblas64_")
    for handle in (_openblas.set_num_threads, _openblas.dgetrf, _openblas.dgetrs):
        assert handle is not None
    # no pointer reaches LAPACK unless the arrays have the layout it reads
    a, piv = np.asfortranarray(np.diag([2.0, 4.0, 8.0])), np.empty(3, dtype=np.int64)
    with pytest.raises(ValueError):
        _openblas.lu_factor(np.ascontiguousarray(a), piv)
    assert _openblas.lu_factor(a, piv) == 0
    assert np.array_equal(_openblas.lu_solve(a, piv, [2.0, 4.0, 8.0]), np.ones(3))
    with pytest.raises(ValueError):
        _openblas.lu_solve(a, piv, np.ones(4))


def test_newton_fast_on_smooth_instance(monkeypatch):
    # all prox arguments far from kinks: Phi is affine, Newton needs ~1 step
    monkeypatch.setattr(pdsn, "NEWTON_MU", 1e-12)
    rng = np.random.default_rng(5)
    n, p = 6, 4
    X = rng.standard_normal((n, p))
    y = 10.0 + rng.standard_normal(n)
    pr = QuantileProblem(X, y, tau=0.5)
    spec = SubproblemSpec(problem=pr, weights=np.full(p, 1e-4))
    work = make_work(spec, gamma=1.0)
    u, info = _newton_solve(work, np.zeros(n), 1e-9)
    assert info["iters"] <= 3
    assert np.linalg.norm(phi(work, u)) / (1 + np.linalg.norm(y)) <= 1e-9


def test_newton_residual_and_gap(rng):
    spec, _ = make_subproblem(21, 10, 20, lam=0.15)
    work = make_work(spec, gamma=0.05)
    u, _ = _newton_solve(work, np.zeros(10), 1e-10)
    res = np.linalg.norm(phi(work, u))
    res /= 1.0 + np.linalg.norm(spec.problem.response)
    assert res <= 1e-8
    # primal-dual gap of the regularized subproblem at the recovered primal
    work.value(stack(work, u))
    _, pb = work.gradient_here()
    reg_primal = spec.objective(pb)
    reg_primal += 0.5 * work.g * np.sum((pb - work.bj) ** 2)
    reg_primal += 0.5 * work.g * np.sum((work.X @ (pb - work.bj)) ** 2)
    gap = reg_primal + psi(work, u)
    assert abs(gap) <= 1e-7


def test_newton_monotone_psi(monkeypatch):
    # Psi decreases on every Newton step of many seeded instances: each line
    # search starts where the last one ended and returns a lower value
    psis = []

    def recording(ev, psi0, dpsi0):
        alpha, psi_a, ok = _strong_wolfe(ev, psi0, dpsi0)
        psis.extend((psi0, psi_a))
        return alpha, psi_a, ok

    monkeypatch.setattr(pdsn, "_strong_wolfe", recording)
    steps = 0
    for seed in range(20):
        spec, _ = make_subproblem(100 + seed, 10, 20, lam=0.1)
        work = _DualWork(spec, np.zeros(20), 0.05)
        psis.clear()
        _newton_solve(work, np.zeros(10), 1e-9)
        assert all(psis[i + 1] <= psis[i] + 1e-10 for i in range(len(psis) - 1))
        steps += len(psis) // 2
    assert steps >= 20


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
    assert report.residuals["err_ppa"] <= 1e-8


def test_ppa_objective_monotone_trace(monkeypatch):
    # the KKT residual is measured at the start and at every accepted PPA
    # iterate: the objective there never increases
    spec, _ = make_subproblem(31, 30, 60, lam=0.1)
    tr = []

    def recording(problem, beta, u, weights):
        tr.append(spec.objective(beta))
        return kkt_residual(problem, beta, u, weights)

    monkeypatch.setattr(pdsn, "kkt_residual", recording)
    state, report = ppa_solve(spec)
    assert len(tr) >= 3
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
    assert kkt_residual(pr, beta, u, weights) <= 1e-14
    # with its signs flipped, beta leaves the optimal set: X^T u is no
    # weighted-l1 subgradient there (beta + 0.1 still has one, and is optimal)
    assert kkt_residual(pr, -beta, u, weights) > 1e-3


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), tau=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
def test_kkt_residual_zero_at_random_kkt_triples(n, tau, seed):
    # diagonal design, random signs of z and beta (zeros included), random
    # weights: u is built in the check-loss subgradient at z and the weights
    # so that X^T u is a weighted-l1 subgradient at beta
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    X = np.diag(d)
    z_sign = rng.choice([-1.0, 0.0, 1.0], n)
    z = z_sign * rng.uniform(0.1, 5.0, n)
    lo, hi = (tau - 1.0) / n, tau / n
    u = np.where(z_sign > 0, hi, np.where(z_sign < 0, lo, rng.uniform(lo, hi, n)))
    g = d * u
    active = rng.random(n) < 0.5
    beta = np.where(active, np.sign(g) * rng.uniform(0.1, 5.0, n), 0.0)
    weights = np.abs(g) + np.where(active, 0.0, rng.uniform(0.0, 0.3, n))
    pr = QuantileProblem(X, X @ beta + z, tau=tau)
    assert kkt_residual(pr, beta, u, weights) <= 1e-12
    # one u_i pushed 1/n past the far end of [lo, hi]: it leaves the
    # check-loss subgradient by at least half the interval's width
    i = rng.integers(n)
    e = np.zeros(n)
    e[i] = 1.0 / n if u[i] >= 0.5 * (lo + hi) else -1.0 / n
    assert kkt_residual(pr, beta, u + e, weights) > 1e-6


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), p=st.integers(1, 8), tau=st.floats(0.05, 0.95),
       seed=st.integers(0, 2**32 - 1))
def test_ppa_zero_certificate(n, p, tau, seed):
    # beta = 0 is optimal exactly when |X^T u0| <= omega, u0 the check-loss
    # subgradient at z = y with the tie rule of check_loss; a certified
    # subproblem returns beta = 0 at once, whatever the anchor and warm start
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))

    def zero_gradient(y):  # |X^T u0|
        return np.abs(X.T @ (np.where(y > 0, tau, tau - 1.0) / n))

    y = rng.standard_normal(n) * (rng.random(n) < 0.8)  # zeros too: u0_i = (tau - 1)/n
    pr = QuantileProblem(X, y, tau=tau)
    g = zero_gradient(y)
    weights = g + np.where(rng.random(p) < 0.5, 0.0, rng.uniform(0.0, 0.3, p))
    spec = SubproblemSpec(problem=pr, weights=weights, anchor=rng.standard_normal(p))
    state, report = ppa_solve(spec, u0=rng.standard_normal(n))
    assert np.all(state.beta == 0.0)
    assert (report.iterations, report.inner_iterations, report.converged) == (0, 0, True)
    assert kkt_residual(pr, state.beta, state.u, weights) <= 1e-12
    # half those weights: no response is 0, so u0 is the only subgradient
    # at z = y and beta = 0 is not optimal once some |X^T u0|_j > 0
    y = np.where(y == 0.0, 1.0, y)
    pr = QuantileProblem(X, y, tau=tau)
    g = zero_gradient(y)
    assume(np.max(g) > 1e-3)
    state, report = ppa_solve(SubproblemSpec(problem=pr, weights=0.5 * g))
    assert report.iterations >= 1
    assert np.any(state.beta != 0.0)


def _bad_spec(case):
    problem, _ = make_problem(3, 20, 30)
    weights, anchor = np.full(30, 0.05), None
    if case == "nan weight":
        weights[2] = np.nan
    elif case == "+inf weights":
        weights[[0, 7, 11, 19, 28]] = np.inf
    elif case == "non-finite anchor":
        anchor = np.zeros(30)
        anchor[[1, 4]] = np.inf, np.nan
    else:
        anchor = np.zeros(29)
    return dict(problem=problem, weights=weights, anchor=anchor)


@pytest.mark.parametrize("case", ["nan weight", "+inf weights", "non-finite anchor",
                                  "anchor of length p - 1"])
def test_spec_rejects_bad_input(case):
    # rejected where the spec is made, not as a solver failure after
    # RuntimeWarnings: an +inf weight's zero image would make inf * 0 = NaN
    # in the dual value and the objective
    with pytest.raises(ValueError):
        SubproblemSpec(**_bad_spec(case))


def test_ppa_asymmetric_tau_lp_oracle():
    problem, _ = make_problem(5, 50, 20, tau=0.75)
    weights = np.full(20, 0.07)
    spec = SubproblemSpec(problem=problem, weights=weights)
    state, report = ppa_solve(spec)
    assert report.objective == pytest.approx(lp_oracle(problem, weights), rel=1e-6)


def test_ppa_reports_nonconvergence_gracefully(monkeypatch):
    spec, _ = make_subproblem(77, 30, 80, lam=0.02)
    monkeypatch.setattr(pdsn, "MAX_NEWTON_ITERS", 5)
    monkeypatch.setattr(pdsn, "MAX_PPA_ITERS", 4)
    state, report = ppa_solve(spec)
    assert not report.converged
    assert np.all(np.isfinite(state.beta))
    assert report.objective < spec.objective(np.zeros(80)) + 1e-9


def _newton_solve_reference(work, u0, tol, max_iters):
    """The _newton_solve loop that rebuilt Phi and the prox images after every
    step and evaluated Psi again at alpha = 0, kept as the oracle of the loop
    that takes them from the line search's last evaluation."""
    def gradient(u, Xtu):
        q1 = work.bj - Xtu / work.g
        q2 = work.zj - u / work.g
        pz = prox_check_loss(q2, work.g, work.tau, work.n)
        pb = prox_weighted_l1(q1, work.omega, work.g)
        return work.y - pz - work.X @ pb, pb, (q1, q2, pz)

    u = np.asarray(u0, dtype=float).copy()
    Xtu = work.X.T @ u
    ynorm1 = 1.0 + np.linalg.norm(work.y)
    warn = []
    phi, pb, (q1, q2, pz) = gradient(u, Xtu)
    iters = 0
    for iters in range(max_iters):
        if np.linalg.norm(phi) / ynorm1 <= tol:
            break
        work.q1[:], work.q2[:], work.pz[:], work.pb[:] = q1, q2, pz, pb  # the Newton matrix at u
        d = work.newton_direction(-phi)
        Xtd = work.X.T @ d
        psi0, dpsi0 = _value_dir_deriv_fresh(work, u, Xtu, d, Xtd)
        if dpsi0 >= 0.0:
            break
        ev = work.along(np.concatenate((u, Xtu)), np.concatenate((d, Xtd)))
        alpha, _, ok = _strong_wolfe(ev, psi0, dpsi0)
        if not ok and alpha == 0.0:
            warn.append("line search made no progress")
            break
        if not ok:
            warn.append("line search returned best bisection point")
        u = u + alpha * d
        Xtu = Xtu + alpha * Xtd
        phi, pb, (q1, q2, pz) = gradient(u, Xtu)
    else:
        iters = max_iters
        warn.append("newton iteration cap reached")
    return u, {"iters": iters, "phi_rel": float(np.linalg.norm(phi) / ynorm1),
               "beta_image": pb, "warnings": warn}


def test_newton_solve_matches_reference_loop(rng, monkeypatch):
    # every _newton_solve call of whole PPA solves, replayed against the
    # oracle from the same arguments, workspace (anchors, Newton matrix) and
    # Newton iteration cap
    calls = []

    def recording(work, u0, tol):
        calls.append((copy.deepcopy(work), np.array(u0), tol, pdsn.MAX_NEWTON_ITERS))
        return _newton_solve(work, u0, tol)

    monkeypatch.setattr(pdsn, "_newton_solve", recording)
    anchored, _ = make_subproblem(7, 30, 60, lam=0.05)
    anchored.anchor = 0.1 * rng.standard_normal(60)
    capped, _ = make_subproblem(77, 30, 80, lam=0.02)
    runs = [  # spec, Newton and PPA iteration caps
        (make_subproblem(3, 30, 80, lam=0.02)[0], 100, 100),  # a best-bisection step
        (make_subproblem(0, 30, 60, lam=0.1)[0], 100, 100),   # one more, and a step with no progress
        (anchored, 100, 100),  # a PPA start away from 0
        (capped, 5, 4),
    ]
    for spec, newton_cap, ppa_cap in runs:
        with monkeypatch.context() as m:
            m.setattr(pdsn, "MAX_NEWTON_ITERS", newton_cap)
            m.setattr(pdsn, "MAX_PPA_ITERS", ppa_cap)
            ppa_solve(spec)
    warnings = []
    for work, u0, tol, newton_cap in calls:
        with monkeypatch.context() as m:
            m.setattr(pdsn, "MAX_NEWTON_ITERS", newton_cap)
            u, info = _newton_solve(copy.deepcopy(work), u0, tol)
        u_ref, ref = _newton_solve_reference(copy.deepcopy(work), u0, tol, newton_cap)
        # beta_image too: the sign of its zeros is prox_weighted_l1's
        for got, want in ((u, u_ref), (info["beta_image"], ref["beta_image"]),
                          ([info["phi_rel"]], [ref["phi_rel"]])):
            assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
        assert (info["iters"], info["warnings"]) == (ref["iters"], ref["warnings"])
        warnings += info["warnings"]
    for kind in ("best bisection point", "no progress", "newton iteration cap"):
        assert any(kind in w for w in warnings), kind
