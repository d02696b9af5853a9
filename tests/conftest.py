import numpy as np
import pytest

from sqreg import QuantileProblem, SubproblemSpec


def make_problem(seed, n, p, sparsity=3, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    idx = rng.choice(p, size=min(sparsity, p), replace=False)
    beta[idx] = rng.standard_normal(idx.size) + np.sign(rng.standard_normal(idx.size))
    y = X @ beta + noise * rng.standard_normal(n)
    return QuantileProblem(X, y), beta


def make_subproblem(seed, n, p, lam=0.1, tau=0.5, **kw):
    problem, beta = make_problem(seed, n, p, **kw)
    return SubproblemSpec(problem=problem, weights=np.full(p, lam), tau=tau), beta


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
