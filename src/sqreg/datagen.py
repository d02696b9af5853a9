"""Reproducible synthetic data for the benchmark settings.

All randomness flows through a counter-based Philox generator keyed by the
spec seed; Gaussians are produced from uniforms through the inverse normal
CDF so a fixed seed yields byte-identical datasets. Draw order within
``generate`` is fixed: coefficient pattern, covariate block, noise block.
"""

import math

import numpy as np
from dataclasses import dataclass

from .problem import QuantileProblem, support_mask

BETA_PATTERNS = ("alternating-decay", "fixed16", "random-support", "hetero")
NOISE_KINDS = ("normal", "mn1", "mn2", "laplace", "t4", "cauchy")

FIXED16 = np.array([2.0, 0.0, 1.5, 0.0, 0.8, 0.0, 0.0, 1.0, 0.0, 1.75,
                    0.0, 0.0, 0.75, 0.0, 0.0, 0.3])
HETERO_MAIN = (5, 11, 14, 19)  # 0-based indices of X6, X12, X15, X20
HETERO_SCALE_INDEX = 0         # X1 multiplies the noise with factor 0.7
HETERO_SCALE_COEF = 0.7


def _generator(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(int(seed) % (1 << 64))))


def _uniforms(gen, size):
    u = gen.random(size)
    return np.clip(u, 1e-16, np.nextafter(1.0, 0.0))


def _normals(gen, size):
    from scipy.special import ndtri  # deferred: `sqreg fit` never samples

    return ndtri(_uniforms(gen, size))


def parse_covariance(spec):
    """'identity', 'ar:0.5' or 'cs:0.6' -> (kind, param)."""
    if spec == "identity":
        return "identity", None
    for kind in ("ar", "cs"):
        if spec.startswith(kind + ":"):
            r = float(spec.split(":", 1)[1])
            if not 0.0 < r < 1.0:
                raise ValueError(f"{kind} parameter must be in (0,1)")
            return kind, r
    raise ValueError(f"unknown covariance spec {spec!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    p: int
    beta_pattern: str = "fixed16"
    covariance: str = "identity"
    noise: str = "normal"
    noise_var: float = 1.0
    snr: float = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be >= 1")
        if self.beta_pattern not in BETA_PATTERNS:
            raise ValueError(f"unknown beta pattern {self.beta_pattern!r}")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if not 0.0 < self.noise_var < math.inf:
            raise ValueError("noise_var must be positive and finite")
        if self.snr is not None and not 0.0 < self.snr < math.inf:
            raise ValueError("snr must be positive and finite")
        parse_covariance(self.covariance)
        if self.snr is not None and self.noise == "cauchy":
            raise ValueError("SNR calibration is undefined for Cauchy noise")
        if self.beta_pattern == "hetero" and self.p < 20:
            raise ValueError("hetero pattern needs p >= 20")
        if self.beta_pattern == "hetero" and (self.noise, self.noise_var, self.snr) != ("normal", 1.0, None):
            raise ValueError("hetero pattern fixes its noise at 0.7 x1 N(0,1): "
                             "it needs normal noise, noise_var 1 and no snr")
        if self.noise_var != 1.0 and (self.noise != "normal" or self.snr is not None):
            raise ValueError("noise_var (--noise-var) scales normal noise only, and snr sets "
                             "the noise scale itself: it must be 1 with other noise laws or snr")


@dataclass(frozen=True)
class SyntheticDataset:
    problem: QuantileProblem
    beta_true: np.ndarray
    support: tuple = ()

    def __post_init__(self):
        bt = np.asarray(self.beta_true, dtype=float)
        object.__setattr__(self, "beta_true", bt)
        object.__setattr__(self, "support", tuple(int(i) for i in np.flatnonzero(bt)))


def noise_sd(kind, var=1.0):
    """Analytic standard deviation of a noise law (error for Cauchy)."""
    if kind == "normal":
        return math.sqrt(var)
    if kind == "mn1":
        return math.sqrt(0.9 * 1.0 + 0.1 * 25.0)
    if kind == "mn2":
        return math.sqrt((1 + 5 + 25) / 3.0)  # E sigma^2 for sigma ~ U(1,5)
    if kind == "laplace":
        return math.sqrt(2.0)
    if kind == "t4":
        return 2.0  # sqrt(2) * t4 has variance 2 * 4/(4-2)
    raise ValueError(f"standard deviation undefined for {kind!r}")


def _draw_noise(gen, kind, count, var):
    """``count`` i.i.d. draws of noise ``kind`` from ``gen``; the mn2 mixture
    draws a fresh sigma per sample."""
    if kind == "normal":
        return math.sqrt(var) * _normals(gen, count)
    if kind == "mn1":
        g = _normals(gen, count)
        pick = gen.random(count) < 0.1
        return np.where(pick, 5.0 * g, g)
    if kind == "mn2":
        sigma = 1.0 + 4.0 * gen.random(count)
        return sigma * _normals(gen, count)
    if kind == "laplace":
        u = _uniforms(gen, count)
        return np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))
    if kind == "t4":
        from scipy.special import stdtrit

        return math.sqrt(2.0) * stdtrit(4, _uniforms(gen, count))
    if kind == "cauchy":
        return np.tan(np.pi * (_uniforms(gen, count) - 0.5))
    raise ValueError(f"unknown noise kind {kind!r}")


def _beta_pattern(gen, pattern, p):
    if pattern == "alternating-decay":
        j = np.arange(1, p + 1, dtype=float)
        return (-1.0) ** j * np.exp(-(2.0 * j - 1.0) / 20.0)
    if pattern == "fixed16":
        if p < 16:
            raise ValueError("fixed16 pattern needs p >= 16")
        beta = np.zeros(p)
        beta[:16] = FIXED16
        return beta
    if pattern == "random-support":
        s = int(math.floor(0.5 * math.sqrt(p)))  # s* = floor(0.5 sqrt(p))
        beta = np.zeros(p)
        idx = gen.choice(p, size=s, replace=False)
        beta[np.sort(idx)] = _normals(gen, s)
        return beta
    beta = np.zeros(p)  # hetero: unit mean effects
    beta[list(HETERO_MAIN)] = 1.0
    return beta


def _covariate_rows(gen, n, p, cov):
    kind, r = parse_covariance(cov)
    if kind == "identity":
        return _normals(gen, (n, p))
    if kind == "cs":
        # rank-one-plus-diagonal factor of (1-r) I + r E
        g = _normals(gen, (n, p + 1))
        return math.sqrt(r) * g[:, :1] + math.sqrt(1.0 - r) * g[:, 1:]
    g = _normals(gen, (n, p))  # ar: stationary AR(1) recursion (its Cholesky)
    X = np.empty((n, p))
    X[:, 0] = g[:, 0]
    c = math.sqrt(1.0 - r * r)
    for j in range(1, p):
        X[:, j] = r * X[:, j - 1] + c * g[:, j]
    return X


def _sigma_quad_form(beta, cov):
    """beta^T Sigma beta for the structural covariance families."""
    kind, r = parse_covariance(cov)
    b = np.asarray(beta, dtype=float)
    if kind == "identity":
        return float(b @ b)
    if kind == "cs":
        return float((1.0 - r) * (b @ b) + r * b.sum() ** 2)
    fwd = np.zeros_like(b)  # fwd_i = sum_{j<=i} r^{i-j} b_j
    acc = 0.0
    for i, bi in enumerate(b):
        acc = r * acc + bi
        fwd[i] = acc
    sb = fwd.copy()
    acc = 0.0
    for i in range(len(b) - 1, -1, -1):
        sb[i] += acc
        acc = r * (acc + b[i])
    return float(b @ sb)


def generate(spec):
    """Generate one dataset; bit-reproducible for a fixed spec.

    Returns a SyntheticDataset. For SNR-calibrated specs the noise scale
    kappa solves sqrt(beta^T Sigma beta) / (kappa sd(eps)) = snr.
    """
    gen = _generator(spec.seed)
    beta = _beta_pattern(gen, spec.beta_pattern, spec.p)
    X = _covariate_rows(gen, spec.n, spec.p, spec.covariance)
    if spec.beta_pattern == "hetero":
        from scipy.special import ndtr

        X[:, HETERO_SCALE_INDEX] = ndtr(X[:, HETERO_SCALE_INDEX])
        eps = _normals(gen, spec.n)
        y = X @ beta + HETERO_SCALE_COEF * X[:, HETERO_SCALE_INDEX] * eps
    else:
        eps = _draw_noise(gen, spec.noise, spec.n, spec.noise_var)
        kappa = 1.0
        if spec.snr is not None:
            signal = math.sqrt(_sigma_quad_form(beta, spec.covariance))
            scale = spec.snr * noise_sd(spec.noise, spec.noise_var)
            kappa = signal / scale
        with np.errstate(over="ignore", invalid="ignore"):
            y = X @ beta + kappa * eps
        if spec.snr is not None and not np.all(np.isfinite(y)):
            raise ValueError(f"snr {spec.snr!r} is too small: the noise scale kappa "
                             "overflows the response")
    problem = QuantileProblem(X, y)
    return SyntheticDataset(problem=problem, beta_true=beta)


def selection_metrics(estimate, truth):
    """l2 error and support-recovery counts of an estimate, whose selected
    entries are those of ``problem.support_mask``."""
    est = np.asarray(estimate, dtype=float)
    bt = truth.beta_true
    if est.shape != bt.shape:
        raise ValueError("estimate and truth dimensions differ")
    selected = set(np.flatnonzero(support_mask(est)).tolist())
    support = set(truth.support)
    return {
        "l2_error": float(np.linalg.norm(est - bt)),
        "fp": len(selected - support),
        "fn": len(support - selected),
        "size": len(selected),
    }
