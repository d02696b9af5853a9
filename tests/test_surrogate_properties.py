"""Property tests of the surrogate families over random shapes: capped-l1,
SCAD with a in (1, 50] and MCP with a in (2, 50]."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqreg import SurrogateFamily

EPS = np.finfo(float).eps

families = st.one_of(
    st.just(SurrogateFamily("capped-l1")),
    st.floats(1.0, 50.0, exclude_min=True).map(lambda a: SurrogateFamily("scad", a)),
    st.floats(2.0, 50.0, exclude_min=True).map(lambda a: SurrogateFamily("mcp", a)),
)
levels = st.floats(0.0, 100.0)  # rho |beta|, s and |t|
rhos = st.floats(1e-3, 100.0)


def scale(fam, s):
    """Size of the terms a quantity at level s is computed from."""
    A, B, C = fam.coef
    return 1.0 + abs(s) + A + abs(B) + C


def phi_prime(fam, t):
    A, B, _ = fam.coef
    return 2.0 * A * t + B


@settings(max_examples=300, deadline=None)
@given(fam=families, s=levels)
def test_w_update_first_order_condition(fam, s):
    # w minimizes phi(w) - s w over [0, 1]: phi'(w) - s is 0 inside, >= 0 at
    # w = 0 and <= 0 at w = 1
    w = fam.w_update(1.0, s)
    assert 0.0 <= w <= 1.0
    g = phi_prime(fam, w) - s
    tol = 1e3 * EPS * scale(fam, s)
    if w > 0.0:
        assert g <= tol
    if w < 1.0:
        assert g >= -tol


@settings(max_examples=300, deadline=None)
@given(fam=families, t=st.floats(0.0, 1.0), s=st.floats(-100.0, 100.0))
def test_fenchel_young(fam, t, s):
    # psi(t) + psi*(s) >= s t, with equality at s = phi'(t)
    tol = 1e3 * EPS * scale(fam, s)
    assert fam.psi(t) + fam.psi_star(s) - s * t >= -tol
    s = phi_prime(fam, t)
    assert abs(fam.psi(t) + fam.psi_star(s) - s * t) <= 1e3 * EPS * scale(fam, s)


@settings(max_examples=300, deadline=None)
@given(fam=families, rho=rhos, t1=st.floats(-100.0, 100.0), t2=st.floats(-100.0, 100.0))
def test_h_rho_range_and_monotone(fam, rho, t1, t2):
    # h is exactly 0 at t = 0 and never negative; phi(1) may round above 1
    assert fam.h_rho(rho, 0.0) == 0.0
    (_, h_lo), (t_hi, h_hi) = sorted((abs(t), fam.h_rho(rho, t)) for t in (t1, t2))
    tol = 1e3 * EPS * scale(fam, rho * t_hi)
    for h in (h_lo, h_hi):
        assert 0.0 <= h <= 1.0 + tol
    assert h_lo <= h_hi + tol


@settings(max_examples=300, deadline=None)
@given(fam=families)
def test_t_star_t_zero_order(fam):
    assert fam.t_star() <= fam.t_zero() < 1.0


def w_update_expressions(kind, a, rho, b):
    """Each family's weight update as a fit computes it, one coefficient at
    a time."""
    if kind == "capped-l1":
        return 1.0 if rho * b > 1.0 else 0.0
    if kind == "scad":
        return min(max(((a + 1.0) * rho * b - 2.0) / (2.0 * (a - 1.0)), 0.0), 1.0)
    return min(max(2.0 * rho * b / a**2 + 1.0 - 2.0 / a, 0.0), 1.0)


@settings(max_examples=300, deadline=None)
@given(fam=families, rho=rhos, b=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8))
@example(fam=SurrogateFamily("capped-l1"), rho=2.0, b=[0.5, -0.5, 0.25])  # the tie rho |b| = 1 gives 0
def test_w_update_pinned_to_family_expressions(fam, rho, b):
    # fit bits depend on these roundings: the generic clip((s - B)/(2A))
    # differs from them in the last bit
    got = fam.w_update(rho, np.array(b))
    want = [w_update_expressions(fam.kind, fam.a, rho, abs(v)) for v in b]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
