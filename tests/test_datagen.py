import math

import numpy as np
import pytest

from sqreg import SyntheticSpec, generate, selection_metrics
from sqreg.datagen import FIXED16, _draw_noise, _generator, noise_sd, parse_covariance


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=10, p=20, covariance="ar:1.5")
    with pytest.raises(ValueError):
        SyntheticSpec(n=10, p=20, noise="poisson")
    with pytest.raises(ValueError):
        SyntheticSpec(n=10, p=20, noise="cauchy", snr=3.0)
    with pytest.raises(ValueError):
        SyntheticSpec(n=10, p=10, beta_pattern="hetero")
    # the hetero model's noise is fixed, so a noise choice is an error, not ignored
    for noise in ({"noise": "cauchy"}, {"noise_var": 9.0}, {"snr": 5.0}):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, p=20, beta_pattern="hetero", **noise)
    # noise settings that would reach the sampler as a bad scale
    for noise in ({"noise_var": 0.0}, {"noise_var": -1.0}, {"noise_var": float("nan")},
                  {"noise_var": float("inf")}, {"snr": 0.0}, {"snr": -3.0},
                  {"snr": float("nan")}, {"snr": float("inf")}):
        with pytest.raises(ValueError, match="positive and finite"):
            SyntheticSpec(n=10, p=20, **noise)
    # noise_var scales normal noise only and has no effect under snr: a
    # variance that would be ignored is an error that names the flag
    for noise in ({"noise": "laplace", "noise_var": 9.0}, {"noise": "t4", "noise_var": 0.5},
                  {"noise_var": 4.0, "snr": 3.0}):
        with pytest.raises(ValueError, match="--noise-var"):
            SyntheticSpec(n=10, p=20, **noise)
    SyntheticSpec(n=10, p=20, noise="laplace", noise_var=1.0, snr=3.0)
    assert parse_covariance("cs:0.6") == ("cs", 0.6)


def test_fixed16_vector():
    ds = generate(SyntheticSpec(n=5, p=20, beta_pattern="fixed16", seed=1))
    expect = np.zeros(20)
    expect[:16] = [2, 0, 1.5, 0, 0.8, 0, 0, 1, 0, 1.75, 0, 0, 0.75, 0, 0, 0.3]
    assert np.array_equal(ds.beta_true, expect)
    assert ds.support == (0, 2, 4, 7, 9, 12, 15)
    assert np.array_equal(FIXED16[:3], [2.0, 0.0, 1.5])


def test_random_support_sizes():
    ds = generate(SyntheticSpec(n=1, p=15000, beta_pattern="random-support", seed=3))
    assert np.count_nonzero(ds.beta_true) == 61  # floor(0.5 sqrt(15000))
    ds = generate(SyntheticSpec(n=30, p=100, beta_pattern="random-support", seed=3))
    assert len(ds.support) == 5  # floor(0.5 sqrt(100))


def test_alternating_decay():
    ds = generate(SyntheticSpec(n=4, p=6, beta_pattern="alternating-decay", seed=0))
    j = np.arange(1, 7)
    assert np.allclose(ds.beta_true, (-1.0) ** j * np.exp(-(2 * j - 1) / 20.0))


def test_covariance_empirical():
    # p <= 20, many rows: empirical covariance within 0.02 of the target
    n, p = 100_000, 12
    for cov, sigma in [
        ("identity", np.eye(p)),
        ("ar:0.5", np.array([[0.5 ** abs(i - j) for j in range(p)] for i in range(p)])),
        ("cs:0.6", 0.6 + 0.4 * np.eye(p)),
    ]:
        spec = SyntheticSpec(n=n, p=p, beta_pattern="random-support", covariance=cov, seed=7)
        X = generate(spec).problem.design
        emp = X.T @ X / n
        assert np.max(np.abs(emp - sigma)) < 0.02


def test_sigma_quad_form_matches_dense():
    from sqreg.datagen import _sigma_quad_form

    rng = np.random.default_rng(21)
    b = rng.standard_normal(9)
    for cov, sigma in [
        ("identity", np.eye(9)),
        ("ar:0.6", np.array([[0.6 ** abs(i - j) for j in range(9)] for i in range(9)])),
        ("cs:0.4", 0.4 + 0.6 * np.eye(9)),
    ]:
        assert _sigma_quad_form(b, cov) == pytest.approx(float(b @ sigma @ b), rel=1e-12)


def test_noise_moments():
    lap = _draw_noise(_generator(5), "laplace", 1_000_000, 1.0)
    assert abs(np.mean(np.abs(lap)) - 1.0) < 0.01
    mn1 = _draw_noise(_generator(6), "mn1", 1_000_000, 1.0)
    assert abs(np.var(mn1) - 3.4) < 0.05
    cau = _draw_noise(_generator(7), "cauchy", 1_000_000, 1.0)
    assert abs(np.median(cau)) < 0.01
    t4 = _draw_noise(_generator(8), "t4", 1_000_000, 1.0)
    assert abs(np.var(t4) - 4.0) < 0.2  # heavy tail: loose check
    nrm = _draw_noise(_generator(9), "normal", 500_000, 2.0)
    assert abs(np.var(nrm) - 2.0) < 0.02
    mn2 = _draw_noise(_generator(10), "mn2", 500_000, 1.0)
    assert abs(np.var(mn2) - 31.0 / 3.0) < 0.2


def test_noise_sd_values():
    assert noise_sd("normal", 2.0) == pytest.approx(math.sqrt(2.0))
    assert noise_sd("mn1") == pytest.approx(math.sqrt(3.4))
    assert noise_sd("laplace") == pytest.approx(math.sqrt(2.0))
    assert noise_sd("t4") == 2.0
    with pytest.raises(ValueError):
        noise_sd("cauchy")


def test_snr_calibration():
    # realized sd(X beta)/sd(kappa eps) near the requested ratio
    spec = SyntheticSpec(n=100_000, p=30, beta_pattern="random-support",
                         covariance="cs:0.3", noise="normal", snr=3.0, seed=11)
    ds = generate(spec)
    signal = ds.problem.design @ ds.beta_true
    noise = ds.problem.response - signal
    ratio = np.std(signal) / np.std(noise)
    assert abs(ratio - 3.0) < 0.05


def test_hetero_structure():
    spec = SyntheticSpec(n=50_000, p=25, beta_pattern="hetero", seed=12)
    ds = generate(spec)
    X = ds.problem.design
    assert np.all((X[:, 0] >= 0.0) & (X[:, 0] <= 1.0))  # uniform via normal CDF
    assert ds.support == (5, 11, 14, 19)
    # conditional median equals the mean effects: residual median near zero
    resid = ds.problem.response - X @ ds.beta_true
    assert abs(np.median(resid)) < 0.02


def test_determinism():
    spec = SyntheticSpec(n=50, p=40, beta_pattern="random-support",
                         covariance="ar:0.8", noise="t4", seed=99)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.problem.design, b.problem.design)
    assert np.array_equal(a.problem.response, b.problem.response)
    assert np.array_equal(a.beta_true, b.beta_true)
    c = generate(SyntheticSpec(n=50, p=40, beta_pattern="random-support",
                               covariance="ar:0.8", noise="t4", seed=100))
    assert not np.array_equal(a.problem.response, c.problem.response)


def test_selection_metrics():
    ds = generate(SyntheticSpec(n=10, p=20, beta_pattern="fixed16", seed=1))
    m = selection_metrics(ds.beta_true, ds)
    assert m == {"l2_error": 0.0, "fp": 0, "fn": 0, "size": 7}
    m0 = selection_metrics(np.zeros(20), ds)
    assert m0["fn"] == 7 and m0["fp"] == 0 and m0["size"] == 0
    est = np.zeros(20)
    est[1] = 5.0
    m1 = selection_metrics(est, ds)
    assert m1["fp"] == 1 and m1["fn"] == 7
    with pytest.raises(ValueError):
        selection_metrics(np.zeros(3), ds)
