import numpy as np
import pytest

from sqreg import SurrogateFamily

FAMILIES = [SurrogateFamily("capped-l1"), SurrogateFamily("scad", 3.0), SurrogateFamily("scad", 3.7),
            SurrogateFamily("mcp", 4.0), SurrogateFamily("mcp", 3.7)]


def psi_star_grid_oracle(fam, s, step=1e-5):
    """sup over a t-grid of s*t - psi(t), psi = phi restricted to [0,1]."""
    t = np.arange(0.0, 1.0 + step, step)
    t = np.minimum(t, 1.0)
    return np.max(s * t - fam.phi(t))


def w_grid_oracle(fam, rho, b, grid):
    vals = fam.phi(grid) - rho * b * grid
    return grid[int(np.argmin(vals))]


def test_construction_validation():
    with pytest.raises(ValueError):
        SurrogateFamily("scad", 1.0)
    with pytest.raises(ValueError):
        SurrogateFamily("mcp", 2.0)
    with pytest.raises(ValueError):
        SurrogateFamily("bridge")
    for kind in ("scad", "mcp"):
        for a in (float("inf"), float("nan"), 1e308):  # 1e308**2 overflows
            with pytest.raises(ValueError):
                SurrogateFamily(kind, a)
        assert SurrogateFamily(kind) == SurrogateFamily(kind, 3.7)  # a defaults to 3.7
    with pytest.raises(ValueError, match="takes no"):
        SurrogateFamily("capped-l1", 3.7)


def test_phi_values():
    assert SurrogateFamily("capped-l1").phi(0.7) == 0.7
    assert SurrogateFamily("scad", 3.0).phi(1.0) == pytest.approx(1.0)
    # a=3: phi(t) = 0.5 t^2 + 0.5 t
    assert SurrogateFamily("scad", 3.0).phi(0.4) == pytest.approx(0.5 * 0.16 + 0.2)
    assert SurrogateFamily("mcp", 4.0).phi(1.0) == pytest.approx(4.0 - 8.0 + 4.0 + 1.0)


def test_phi_family_conditions():
    for fam in FAMILIES:
        assert fam.phi(fam.t_star()) == pytest.approx(0.0, abs=1e-12)
        assert fam.phi(1.0) == pytest.approx(1.0)
        grid = np.linspace(0, 1, 5001)
        assert fam.phi(grid).min() >= -1e-12


def test_psi_star_paper_values():
    c = SurrogateFamily("capped-l1")
    assert c.psi_star(0.5) == 0.0
    assert c.psi_star(2.0) == 1.0
    s3 = SurrogateFamily("scad", 3.0)
    assert s3.psi_star(1.0) == pytest.approx(((4 * 1 - 2) ** 2) / 32.0)  # 0.125


def test_psi_star_matches_sup_oracle(rng):
    for fam in FAMILIES:
        ss = rng.uniform(-1.0, 3.0, size=1000)
        for s in ss[:: 50]:
            assert fam.psi_star(s) == pytest.approx(psi_star_grid_oracle(fam, s), abs=1e-4)
        # vectorized check over the whole batch with a coarser grid
        t = np.linspace(0, 1, 20001)
        sup = np.max(ss[:, None] * t[None, :] - fam.phi(t)[None, :], axis=1)
        assert np.max(np.abs(fam.psi_star(ss) - sup)) < 1e-4


def test_psi_star_monotone_convex(rng):
    s = np.linspace(-2.0, 4.0, 4001)
    for fam in FAMILIES:
        v = fam.psi_star(s)
        d = np.diff(v)
        assert np.all(d >= -1e-12)  # nondecreasing
        assert np.all(np.diff(d) >= -1e-9)  # convex on the grid


def test_h_rho_paper_values():
    c = SurrogateFamily("capped-l1")
    assert c.h_rho(2.0, 0.3) == pytest.approx(0.6)
    assert c.h_rho(2.0, 1.0) == pytest.approx(1.0)
    for fam in FAMILIES:
        assert fam.h_rho(1.7, 0.0) == 0.0
    s3 = SurrogateFamily("scad", 3.0)
    assert s3.h_rho(1.0, 1.0) == pytest.approx(1.0 - 0.125)


def test_h_rho_range_and_monotone(rng):
    t = np.linspace(-6, 6, 2001)
    for fam in FAMILIES:
        for rho in (0.3, 1.0, 4.0):
            h = fam.h_rho(rho, t)
            assert np.all(h >= -1e-12) and np.all(h <= 1.0 + 1e-12)
            pos = fam.h_rho(rho, np.linspace(0, 6, 1001))
            assert np.all(np.diff(pos) >= -1e-12)


def test_w_update_closed_forms():
    s3 = SurrogateFamily("scad", 3.0)
    assert s3.w_update(2.0, 0.5) == pytest.approx(0.5)
    # tie at rho*b = 1 resolves to 0 for the capped-l1 family
    c = SurrogateFamily("capped-l1")
    assert c.w_update(2.0, 0.5) == 0.0
    assert c.w_update(2.0, 0.51) == 1.0
    # zero beta: minimizer of phi over [0,1]
    assert c.w_update(1.0, 0.0) == 0.0
    assert SurrogateFamily("scad", 3.7).w_update(1.0, 0.0) == 0.0
    assert SurrogateFamily("mcp", 4.0).w_update(1.0, 0.0) == pytest.approx(0.5)  # t* = 1 - 2/a


def test_w_update_matches_grid_oracle(rng):
    fine = np.arange(0.0, 1.0 + 1e-6, 1e-6)
    s3 = SurrogateFamily("scad", 3.0)
    assert s3.w_update(2.0, 0.5) == pytest.approx(w_grid_oracle(s3, 2.0, 0.5, fine), abs=1e-4)
    grid = np.arange(0.0, 1.0 + 1e-5, 1e-5)
    for fam in FAMILIES:
        phi_grid = fam.phi(grid)
        rhos = rng.uniform(0.05, 5.0, size=1000)
        bs = rng.uniform(0.0, 3.0, size=1000)
        for rho, b in zip(rhos[::4], bs[::4]):
            oracle = grid[int(np.argmin(phi_grid - rho * b * grid))]
            assert abs(fam.w_update(rho, b) - oracle) < 1e-4


def test_fenchel_young(rng):
    for fam in FAMILIES:
        for _ in range(200):
            t = rng.uniform(0.0, 1.0)
            s = rng.uniform(-1.0, 3.0)
            gap = fam.psi(t) + fam.psi_star(s) - s * t
            assert gap >= -1e-12
        # equality when s is a subgradient of psi at interior t
        for t in rng.uniform(0.01, 0.99, size=50):
            h = 1e-7
            s = (fam.phi(t + h) - fam.phi(t - h)) / (2 * h)
            gap = fam.psi(t) + fam.psi_star(s) - s * t
            assert abs(gap) < 1e-8


def scad_penalty(t, lam, a):
    at = np.abs(t)
    mid = (2 * a * lam * at - at**2 - lam**2) / (2 * (a - 1))
    return np.where(at <= lam, lam * at, np.where(at <= a * lam, mid, (a + 1) * lam**2 / 2))


def mcp_penalty(t, lam, a):
    at = np.abs(t)
    return np.where(at <= a * lam, lam * at - at**2 / (2 * a), a * lam**2 / 2)


def capped_l1_penalty(t, lam, alpha):
    return lam * np.minimum(np.abs(t), alpha)


def test_penalty_identities():
    t = np.linspace(-8.0, 8.0, 10001)
    lam = 0.7
    a = 3.7
    fam = SurrogateFamily("scad", a)
    nu = 2.0 / ((a + 1) * lam**2)
    rho = 2.0 / ((a + 1) * lam)
    assert np.max(np.abs(fam.h_rho(rho, t) / nu - scad_penalty(t, lam, a))) < 1e-8
    fam = SurrogateFamily("mcp", 3.2)
    nu = 2.0 / (3.2 * lam**2)
    rho = 1.0 / lam
    assert np.max(np.abs(fam.h_rho(rho, t) / nu - mcp_penalty(t, lam, 3.2))) < 1e-8
    alpha = 1.4
    rho = 1.0 / alpha
    nu = rho / lam
    assert np.max(np.abs(SurrogateFamily("capped-l1").h_rho(rho, t) / nu - capped_l1_penalty(t, lam, alpha))) < 1e-8


def test_exact_penalty_threshold():
    c = SurrogateFamily("capped-l1")
    assert c.exact_penalty_threshold(1.0, 2.0, 0.5) == pytest.approx(1.0)
    # linear in nu
    assert c.exact_penalty_threshold(2.0, 2.0, 0.5) == pytest.approx(2.0)
    # tau-bar factor
    r1 = c.exact_penalty_threshold(1.0, 2.0, 0.25)
    r2 = c.exact_penalty_threshold(1.0, 2.0, 0.5)
    assert r1 / r2 == pytest.approx(1.5)
    # defining condition: 1/(1-t*) is a subgradient of phi at t0
    for fam in FAMILIES:
        t0 = fam.t_zero()
        target = 1.0 / (1.0 - fam.t_star())
        h = 1e-7
        left = (fam.phi(t0) - fam.phi(t0 - h)) / h
        right = (fam.phi(t0 + h) - fam.phi(t0)) / h
        assert left - 1e-5 <= target <= right + 1e-5
        assert fam.t_star() <= t0 < 1.0
        assert fam.exact_penalty_threshold(0.5, 3.0, 0.3) > 0.0
