"""Invariances of the solvers that need no recorded reference: reflecting
(tau, y) to (1 - tau, -y) negates beta, and permuting the columns of X with
the weights, or the rows of (X, y), permutes beta or leaves it as it is, for
single subproblem solves and for whole MSCRA fits. The design's memory order
changes no bit at all."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqreg import MscraConfig, QuantileProblem, SubproblemSpec, lambda_grid, mscra_fit, ppa_solve

from conftest import make_problem

BOUND = 1e-6  # largest allowed |beta' - P beta| per coefficient

problems = st.builds(
    lambda seed, n, p, tau: (make_problem(seed, n, p)[0], tau, np.random.default_rng(seed + 1)),
    seed=st.integers(0, 2**32 - 2), n=st.integers(20, 119), p=st.integers(10, 199),
    tau=st.floats(0.1, 0.9))


def weights(problem, rng):
    return rng.uniform(0.02, 0.08, problem.p)


def solve(X, y, tau, w):
    return ppa_solve(SubproblemSpec(problem=QuantileProblem(X, y), weights=w, tau=tau))[0].beta


def fit(X, y, tau, lam):
    return mscra_fit(QuantileProblem(X, y), MscraConfig(tau=tau, lam=lam))[0].beta


def default_lambda(problem):
    """The fit command's default lambda, computed once per case: both fits
    get the same configuration."""
    return float(lambda_grid(problem, 0.1, 0.1, 1)[0])


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= BOUND


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=problems)
def test_ppa_reflection_negates_beta(case):
    pr, tau, rng = case
    w = weights(pr, rng)
    beta = solve(pr.design, pr.response, tau, w)
    assert_close(solve(pr.design, -pr.response, 1.0 - tau, w), -beta)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=problems)
def test_ppa_column_permutation_permutes_beta(case):
    pr, tau, rng = case
    w, perm = weights(pr, rng), rng.permutation(pr.p)
    beta = solve(pr.design, pr.response, tau, w)
    assert_close(solve(pr.design[:, perm], pr.response, tau, w[perm]), beta[perm])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=problems)
def test_ppa_row_permutation_keeps_beta(case):
    pr, tau, rng = case
    w, perm = weights(pr, rng), rng.permutation(pr.n)
    beta = solve(pr.design, pr.response, tau, w)
    assert_close(solve(pr.design[perm], pr.response[perm], tau, w), beta)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(case=problems)
def test_mscra_column_permutation_permutes_beta(case):
    pr, tau, rng = case
    perm, lam = rng.permutation(pr.p), default_lambda(pr)
    beta = fit(pr.design, pr.response, tau, lam)
    assert_close(fit(pr.design[:, perm], pr.response, tau, lam), beta[perm])


@settings(max_examples=10, deadline=None, derandomize=True)
@given(case=problems)
def test_mscra_reflection_negates_beta(case):
    pr, tau, rng = case
    lam = default_lambda(pr)
    beta = fit(pr.design, pr.response, tau, lam)
    assert_close(fit(pr.design, -pr.response, 1.0 - tau, lam), -beta)


def test_design_memory_order_changes_no_bit():
    # numpy sums a C-ordered matrix's columns row by row and an F-ordered
    # one's pairwise; the problem stores its design C-ordered, so the column
    # sums, the default lambda and the fit are the same to the bit
    pr = make_problem(247, 106, 187)[0]
    fortran = QuantileProblem(np.asfortranarray(pr.design), pr.response)
    assert fortran.design.flags.c_contiguous
    assert pr.norms.col_sum.hex() == fortran.norms.col_sum.hex()
    lam = default_lambda(pr)
    assert lam.hex() == default_lambda(fortran).hex()
    hexes = [[float(v).hex() for v in fit(p.design, p.response, 0.5, lam)] for p in (pr, fortran)]
    assert hexes[0] == hexes[1]
