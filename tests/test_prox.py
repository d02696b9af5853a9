import numpy as np
import pytest

from sqreg import (
    clarke_jacobian_check_loss_prox,
    clarke_jacobian_weighted_l1_prox,
    moreau_env_check_loss,
    moreau_env_weighted_l1,
    prox_check_loss,
    prox_weighted_l1,
)


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
    assert clarke_jacobian_check_loss_prox(np.array([2.0]), 1.0, 0.5, 1)[0] == 1.0
    assert clarke_jacobian_check_loss_prox(np.array([0.0]), 1.0, 0.5, 1)[0] == 0.0
    assert clarke_jacobian_check_loss_prox(np.array([0.5]), 1.0, 0.5, 1)[0] == 0.0  # at the kink


def test_jacobian_weighted_l1():
    assert clarke_jacobian_weighted_l1_prox(np.array([3.0]), np.array([1.0]), 1.0)[0] == 1.0
    assert clarke_jacobian_weighted_l1_prox(np.array([0.5]), np.array([1.0]), 1.0)[0] == 0.0
    kink = clarke_jacobian_weighted_l1_prox(np.array([1.0]), np.array([1.0]), 1.0)
    assert kink[0] == 0.0


def test_jacobian_diag_valid(rng):
    for _ in range(20):
        z = rng.standard_normal(9)
        omega = rng.uniform(0, 2, 9)
        d1 = clarke_jacobian_weighted_l1_prox(z, omega, 1.1)
        d2 = clarke_jacobian_check_loss_prox(z, 1.1, 0.4, 9)
        for d in (d1, d2):
            assert np.all((d >= 0.0) & (d <= 1.0))
