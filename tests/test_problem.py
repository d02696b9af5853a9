import numpy as np
import pytest

from sqreg import QuantileProblem, check_loss, load_csv, matrix_norms, nonzero_count, standardize, support_mask


def test_load_csv_basic(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("1,2,5\n0,1,3\n2,0,4\n")
    pr = load_csv(f)
    assert pr.n == 3 and pr.p == 2
    assert np.array_equal(pr.response, [5.0, 3.0, 4.0])
    assert np.array_equal(pr.design, [[1, 2], [0, 1], [2, 0]])


def test_load_csv_empty(tmp_path):
    f = tmp_path / "e.csv"
    f.write_text("")
    with pytest.raises(ValueError, match="no rows"):
        load_csv(f)


def test_load_csv_nonfinite(tmp_path):
    f = tmp_path / "n.csv"
    f.write_text("1,NaN,2\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(f)


def test_load_csv_ragged_and_header(tmp_path):
    f = tmp_path / "r.csv"
    f.write_text("a,b,y\n1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(f, has_header=True)
    f2 = tmp_path / "h.csv"
    f2.write_text("a,b,y\n1,2,3\n")
    pr = load_csv(f2, has_header=True, add_intercept=True)
    assert pr.intercept_column and pr.p == 3
    assert np.array_equal(pr.design[:, 0], [1.0])


def test_problem_validation():
    with pytest.raises(ValueError):
        QuantileProblem(np.eye(2), np.zeros(2), tau=1.5)
    with pytest.raises(ValueError):
        QuantileProblem(np.array([[np.inf, 1.0]]), np.zeros(1), tau=0.5)
    with pytest.raises(ValueError):
        QuantileProblem(np.array([[2.0, 1.0]]), np.zeros(1), tau=0.5, intercept_column=True)
    pr = QuantileProblem(np.eye(3), np.arange(3.0), tau=0.25)
    with pytest.raises(ValueError):
        pr.design[0, 0] = 7.0  # frozen arrays


def test_standardize_basic():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    pr = QuantileProblem(X[:, :1], np.zeros(3), tau=0.5)
    out = standardize(pr)
    col = out.design[:, 0]
    assert abs(col.mean()) < 1e-12
    assert abs(col.std(ddof=1) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="column 1"):
        standardize(QuantileProblem(X, np.zeros(3), tau=0.5))


def test_standardize_idempotent(rng):
    X = rng.standard_normal((40, 6))
    pr = QuantileProblem(X, rng.standard_normal(40), tau=0.5)
    once = standardize(pr)
    twice = standardize(once)
    assert np.max(np.abs(once.design - twice.design)) < 1e-10


def test_standardize_skips_intercept(rng):
    X = np.hstack([np.ones((30, 1)), rng.standard_normal((30, 4))])
    pr = QuantileProblem(X, rng.standard_normal(30), tau=0.5, intercept_column=True)
    out = standardize(pr)
    assert np.all(out.design[:, 0] == 1.0)


def test_matrix_norms_hand_values():
    mn = matrix_norms(np.array([[1.0, -2.0], [3.0, 4.0]]))
    assert mn.col_sum == 6.0
    assert mn.max_abs == 4.0
    mn_eye = matrix_norms(np.eye(3))
    assert abs(mn_eye.spectral - 1.0) < 1e-8
    assert mn_eye.col_sum == 1.0


def test_matrix_norms_rank_one_svd_oracle():
    A = np.array([[3.0, 0.0], [4.0, 0.0]])
    # oracle: explicit SVD
    svd_top = np.linalg.svd(A, compute_uv=False)[0]
    assert abs(svd_top - 5.0) < 1e-12
    assert abs(matrix_norms(A).spectral - 5.0) < 1e-7


def test_matrix_norms_properties(rng):
    for _ in range(20):
        A = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 12)))
        mn = matrix_norms(A)
        svd_top = np.linalg.svd(A, compute_uv=False)[0]
        assert abs(mn.spectral - svd_top) <= 1e-6 * max(1.0, svd_top)
        assert mn.spectral >= mn.max_abs - 1e-12
        row_sum = np.max(np.abs(A).sum(axis=1))
        assert mn.spectral**2 <= mn.col_sum * row_sum + 1e-9  # Hoelder bound


def test_check_loss_values():
    assert check_loss(np.array([1.0, -1.0]), 0.5) == 0.5
    assert check_loss(np.zeros(4), 0.3) == 0.0
    assert abs(check_loss(np.array([2.0, -1.0]), 0.3) - 0.65) < 1e-15


def test_check_loss_properties(rng):
    for _ in range(50):
        z = rng.standard_normal(7)
        tau = rng.uniform(0.05, 0.95)
        v = check_loss(z, tau)
        assert v >= 0.0
        assert v > 0.0 or np.all(z == 0)
        # median case reduces to scaled l1 norm
        assert abs(check_loss(z, 0.5) - np.abs(z).sum() / (2 * len(z))) < 1e-15
        # convexity along random segments
        z2 = rng.standard_normal(7)
        t = rng.uniform()
        lhs = check_loss(t * z + (1 - t) * z2, tau)
        rhs = t * check_loss(z, tau) + (1 - t) * check_loss(z2, tau)
        assert lhs <= rhs + 1e-12


def test_nonzero_count():
    assert nonzero_count(np.array([0.0, 1e-7, 2.0])) == 1
    assert nonzero_count(np.array([1e-5, 1.0])) == 2
    assert nonzero_count(np.zeros(3)) == 0
    # the threshold is relative once ||beta||_inf exceeds 1
    assert support_mask(np.array([2e-6, 3.0, -1e-5])).tolist() == [False, True, True]
