import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqreg import QuantileProblem, SubproblemSpec, prox_check_loss, prox_weighted_l1
from sqreg.pdsn import _DualWork


def golden_min(obj, lo, hi, iters=110):
    """Vectorized golden-section minimizer of elementwise-convex obj.

    Runs in extended precision: in plain double the bracket stalls near
    sqrt(eps) because the objective differences underflow, which is exactly
    the 1e-8 scale the comparison cares about.
    """
    invphi = (np.sqrt(np.longdouble(5.0)) - 1.0) / 2.0
    a = np.asarray(lo, np.longdouble).copy()
    b = np.asarray(hi, np.longdouble).copy()
    for _ in range(iters):
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        take = obj(c) < obj(d)
        b = np.where(take, d, b)
        a = np.where(take, a, c)
    return (0.5 * (a + b)).astype(float)


def wl1_objective(z, omega, gamma):
    return lambda t: omega * np.abs(t) + 0.5 * gamma * (t - z) ** 2


def chk_objective(z, gamma, tau, n):
    return lambda t: (tau - (t <= 0)) * t / n + 0.5 * gamma * (t - z) ** 2


def moreau_env_weighted_l1(z, omega, gamma):
    """Envelope min_t  sum_i omega_i|t_i| + (gamma/2)||t - z||^2, at the prox."""
    p = prox_weighted_l1(z, omega, gamma)
    return float(np.sum(omega * np.abs(p)) + 0.5 * gamma * np.sum((p - z) ** 2))


def moreau_env_check_loss(z, gamma, tau, n):
    """Envelope min_t  (1/n) sum_i theta_tau(t_i) + (gamma/2)||t - z||^2, at the prox."""
    p = prox_check_loss(z, gamma, tau, n)
    return float(np.sum((tau - (p <= 0)) * p) / n + 0.5 * gamma * np.sum((p - z) ** 2))


def newton_pattern(q2, q1, omega, gamma, tau):
    """The 0/1 diagonals (U, V) of the Newton matrix, (pz != 0, pb != 0),
    after the dual workspace evaluates at the prox arguments q2 (check loss)
    and q1 (weighted l1) with proximal weight gamma. The anchors are 0, so
    value at u = -gamma q2, X^T u = -gamma q1 leaves q2 and q1 as they are
    when gamma is a power of two."""
    q2, q1 = np.asarray(q2, float), np.asarray(q1, float)
    pr = QuantileProblem(np.ones((q2.size, q1.size)), np.zeros(q2.size), tau=tau)
    work = _DualWork(SubproblemSpec(problem=pr, weights=omega), np.zeros(q1.size), gamma)
    work.value(-gamma * q2, -gamma * q1)
    assert np.array_equal(work.q2, q2) and np.array_equal(work.q1, q1)
    return work.pz != 0.0, work.pb != 0.0


def test_prox_weighted_l1_values():
    out = prox_weighted_l1(np.array([3.0, 1.0]), np.array([1.0, 2.0]), 1.0)
    assert np.array_equal(out, [2.0, 0.0])
    z = np.array([0.4, -1.7])
    assert np.array_equal(prox_weighted_l1(z, np.zeros(2), 2.0), z)
    assert prox_weighted_l1(np.array([-0.7]), np.array([0.5]), 2.0)[0] == pytest.approx(-0.45)


def test_prox_check_loss_values():
    assert prox_check_loss(np.array([0.2]), 1.0, 0.5, 1)[0] == 0.0
    assert prox_check_loss(np.array([2.0]), 1.0, 0.5, 1)[0] == pytest.approx(1.5)
    # lower branch keeps the sign of the minimizer (z - (tau-1)/(n gamma))
    assert prox_check_loss(np.array([-2.0]), 1.0, 0.5, 1)[0] == pytest.approx(-1.5)


def test_prox_oracle_equivalence(rng):
    m = 10_000
    z = rng.uniform(-3.0, 3.0, m)
    omega = rng.uniform(0.0, 2.0, m)
    gamma = rng.uniform(0.1, 5.0, m)
    # oracle: independent golden-section minimization of each 1-d objective
    got = np.empty(m)
    for i in range(m):
        got[i] = prox_weighted_l1(np.array([z[i]]), np.array([omega[i]]), gamma[i])[0]
    oracle = golden_min(wl1_objective(z, omega, gamma), z - 4.0, z + 4.0)
    assert np.max(np.abs(got - oracle)) < 1e-8

    tau = rng.uniform(0.05, 0.95, m)
    nvals = rng.integers(1, 30, m)
    got2 = np.empty(m)
    for i in range(m):
        got2[i] = prox_check_loss(np.array([z[i]]), gamma[i], tau[i], int(nvals[i]))[0]
    oracle2 = golden_min(chk_objective(z, gamma, tau, nvals), z - 4.0, z + 4.0)
    assert np.max(np.abs(got2 - oracle2)) < 1e-8


def _hexes(a):
    return [float(v).hex() for v in a]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_prox_maps_are_the_box_identity(data):
    # both maps are z - clip(z, lo, hi) over the box (subdifferential at 0) /
    # gamma, bit for bit, also for weights 0 (no shrinkage) and inf (all to
    # 0), and a zero they return is +0.0. The one exception: with weight 0
    # the weighted-l1 prox is the identity, which keeps a -0.0 input
    m = data.draw(st.integers(1, 8))
    z = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=m, max_size=m)))
    omega = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.just(np.inf), st.floats(0.0, 1e6)), min_size=m, max_size=m)))
    gamma = data.draw(st.floats(1e-3, 1e3))
    tau = data.draw(st.floats(0.01, 0.99))
    n = data.draw(st.integers(1, 1000))

    thr = omega / gamma
    got = prox_weighted_l1(z, omega, gamma)
    identity = (thr == 0) & (z == 0) & np.signbit(z)
    assert _hexes(got[~identity]) == _hexes((z - np.clip(z, -thr, thr))[~identity])
    assert _hexes(got[identity]) == _hexes(z[identity])
    assert not np.any((got == 0) & np.signbit(got) & ~identity)

    got = prox_check_loss(z, gamma, tau, n)
    assert _hexes(got) == _hexes(z - np.clip(z, (tau - 1.0) / (n * gamma), tau / (n * gamma)))
    assert not np.any((got == 0) & np.signbit(got))


def test_nonexpansive(rng):
    omega = rng.uniform(0, 2, 30)
    for _ in range(50):
        x, ybar = rng.standard_normal(30), rng.standard_normal(30)
        px = prox_weighted_l1(x, omega, 1.3)
        py = prox_weighted_l1(ybar, omega, 1.3)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - ybar) + 1e-12
        qx = prox_check_loss(x, 0.7, 0.3, 30)
        qy = prox_check_loss(ybar, 0.7, 0.3, 30)
        assert np.linalg.norm(qx - qy) <= np.linalg.norm(x - ybar) + 1e-12


def test_moreau_envelope_values():
    # f = theta_0.5, n=1, gamma=1, z=2: f(1.5) + 0.5*(0.5)^2
    assert moreau_env_check_loss(np.array([2.0]), 1.0, 0.5, 1) == pytest.approx(0.875)


def test_moreau_envelope_minorizes(rng):
    for _ in range(30):
        z = rng.standard_normal(8)
        omega = rng.uniform(0, 1.5, 8)
        env = moreau_env_weighted_l1(z, omega, 0.8)
        assert env <= np.sum(omega * np.abs(z)) + 1e-12
        tau = rng.uniform(0.1, 0.9)
        envc = moreau_env_check_loss(z, 0.8, tau, 8)
        assert envc <= np.sum((tau - (z <= 0)) * z) / 8 + 1e-12


def test_moreau_fixed_point():
    # prox fixed point => envelope equals the function value
    z = np.array([0.0, 0.0])
    omega = np.array([1.0, 1.0])
    assert moreau_env_weighted_l1(z, omega, 1.0) == pytest.approx(0.0)


def test_envelope_gradient_identity(rng):
    # grad e_f(x) = gamma (x - P(x)) for quadratic coefficient gamma
    for _ in range(20):
        x = rng.standard_normal(5)
        omega = rng.uniform(0, 1.5, 5)
        gamma = rng.uniform(0.3, 3.0)
        tau = rng.uniform(0.1, 0.9)
        h = 1e-6
        for envf, proxf in [
            (lambda v: moreau_env_weighted_l1(v, omega, gamma),
             lambda v: prox_weighted_l1(v, omega, gamma)),
            (lambda v: moreau_env_check_loss(v, gamma, tau, 5),
             lambda v: prox_check_loss(v, gamma, tau, 5)),
        ]:
            g_expected = gamma * (x - proxf(x))
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd = (envf(x + e) - envf(x - e)) / (2 * h)
                assert abs(fd - g_expected[i]) <= 1e-6 * max(1.0, abs(g_expected[i]))


def test_weighted_l1_optimality_certificate(rng):
    # gamma (z - P(z)) lies in [-omega, omega], hitting the boundary when P != 0
    for _ in range(40):
        z = rng.standard_normal(12)
        omega = rng.uniform(0, 2, 12)
        gamma = rng.uniform(0.2, 4.0)
        p = prox_weighted_l1(z, omega, gamma)
        g = gamma * (z - p)
        assert np.all(np.abs(g) <= omega + 1e-10)
        nz = p != 0
        assert np.allclose(np.abs(g[nz]), omega[nz], atol=1e-10)


def test_jacobian_check_loss():
    # n = 1, gamma = 1, tau = 0.5: kinks at 0.5 and -0.5
    for q2, want in ((2.0, True), (0.0, False), (0.5, False)):  # the last at the kink
        U, _ = newton_pattern([q2], [0.0], np.zeros(1), 1.0, 0.5)
        assert U[0] == want, q2


def test_jacobian_weighted_l1():
    _, V = newton_pattern([0.0], [3.0, 0.5, 1.0], np.ones(3), 1.0, 0.5)
    assert V.tolist() == [True, False, False]  # the last at the kink |gamma q1| = omega


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_jacobian_diag_valid(data):
    # the Newton matrix's diagonals are the textbook Clarke elements of the
    # two prox maps: U = 1 where q2 lies outside [(tau-1)/(n gamma),
    # tau/(n gamma)], V = 1 where |gamma q1| > omega, and 0 on the kinks.
    # gamma is a power of two, so that omega/gamma and gamma q1 are exact;
    # for other gammas the two roundings may disagree within one unit of a
    # kink, where both 0 and 1 are Clarke elements. Weights and points are
    # 0 or far from subnormal, so that no scaling by gamma rounds
    n, p = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    factor = st.floats(-3.0, 3.0).filter(lambda f: f == 0.0 or abs(f) >= 1e-12)
    tau = data.draw(st.floats(0.05, 0.95))
    gamma = 2.0 ** data.draw(st.integers(-8, 8))
    omega = np.array(data.draw(st.lists(st.one_of(st.just(0.0), factor.map(abs)),
                                        min_size=p, max_size=p)))
    hi, lo = tau / (n * gamma), (tau - 1.0) / (n * gamma)
    q2 = [data.draw(st.one_of(st.sampled_from([lo, hi, 0.0, -0.0]),
                              factor.map(lambda f: f / (n * gamma))))
          for _ in range(n)]
    q1 = [data.draw(st.one_of(st.sampled_from([w / gamma, -w / gamma, 0.0, -0.0]),
                              factor.map(lambda f: f / gamma)))
          for w in omega]
    U, V = newton_pattern(q2, q1, omega, gamma, tau)
    q2, q1 = np.array(q2), np.array(q1)
    assert np.array_equal(U, (q2 > hi) | (q2 < lo))
    assert np.array_equal(V, np.abs(gamma * q1) > omega)
