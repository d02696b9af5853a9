"""Estimation instances, check loss, matrix norms, standardization, CSV input."""

import csv
from functools import cached_property

import numpy as np
from dataclasses import dataclass, replace


def _frozen_array(a, dtype=float):
    a = np.array(a, dtype=dtype, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuantileProblem:
    """A quantile-regression instance: design matrix, response, quantile level.

    Parameters
    ----------
    design : (n, p) array, one sample per row.
    response : length-n array.
    tau : quantile level in (0, 1).
    intercept_column : True when column 0 of ``design`` is the all-ones column.

    Instances are immutable (arrays are marked read-only) and safe to share
    across concurrent solver runs.
    """

    design: np.ndarray
    response: np.ndarray
    tau: float
    intercept_column: bool = False

    def __post_init__(self):
        X = _frozen_array(self.design)
        y = _frozen_array(self.response)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("design must be a 2-d matrix with n >= 1, p >= 1")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("response length must equal the number of design rows")
        if not np.all(np.isfinite(X)):
            raise ValueError("design contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("response contains non-finite entries")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must be in (0,1)")
        if self.intercept_column and not np.all(X[:, 0] == 1.0):
            raise ValueError("intercept_column is set but column 0 is not all ones")
        object.__setattr__(self, "design", X)
        object.__setattr__(self, "response", y)

    @property
    def n(self):
        return self.design.shape[0]

    @property
    def p(self):
        return self.design.shape[1]

    def with_tau(self, tau):
        """Same data at a different quantile level."""
        return replace(self, tau=float(tau))

    def residual(self, beta):
        return self.response - self.design @ beta


class MatrixNorms:
    """Element-wise max norm ``max_abs``, maximum column sum norm ``col_sum``
    and spectral norm ``spectral`` of a matrix (see ``matrix_norms``).

    The spectral norm runs power iteration, so it is computed on first access
    only; the matrix must not change before then.
    """

    def __init__(self, A, rel_tol, max_iters):
        aabs = np.abs(A)
        self.col_sum = float(np.max(aabs.sum(axis=0)))
        self.max_abs = float(np.max(aabs))
        if min(self.max_abs, self.col_sum) < 0:
            raise ValueError("matrix norms must be nonnegative")
        self._power_args = (A, rel_tol, max_iters)

    @cached_property
    def spectral(self):
        spectral = max(_spectral_norm(*self._power_args), self.max_abs)
        # nonnegative as max_abs is; and spectral >= max_abs for every
        # matrix (|e_i^T A e_j| <= sigma_max)
        if spectral < self.max_abs * (1.0 - 1e-9):
            raise ValueError("spectral norm below element-wise max norm")
        return spectral


def check_loss(z, tau):
    """Averaged check (pinball) loss (1/n) sum_i (tau - 1{z_i<=0}) z_i."""
    z = np.asarray(z, dtype=float)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0,1)")
    return float(np.mean((tau - (z <= 0)) * z))


def _spectral_norm(A, rel_tol=1e-8, max_iters=500):
    # power iteration on the smaller Gram matrix; only the magnitude is needed
    n, p = A.shape
    scale = np.max(np.abs(A))
    if scale == 0.0:
        return 0.0
    if p <= n:
        mv = lambda v: A.T @ (A @ v)
        dim = p
    else:
        mv = lambda v: A @ (A.T @ v)
        dim = n
    v = 1.0 + np.arange(dim) / (2.0 * dim)  # deterministic, not axis-aligned
    v /= np.linalg.norm(v)
    s = 0.0
    for _ in range(max_iters):
        w = mv(v)
        s_new = np.linalg.norm(w)
        if s_new == 0.0:
            break
        v = w / s_new
        if abs(s_new - s) <= rel_tol * s_new:
            s = s_new
            break
        s = s_new
    return float(np.sqrt(s))


def matrix_norms(design, rel_tol=1e-8, max_iters=500):
    """MatrixNorms of a design matrix.

    The spectral norm uses power iteration on the Gram matrix (relative
    tolerance ``rel_tol``, at most ``max_iters`` sweeps) when first read.
    """
    A = np.asarray(design, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return MatrixNorms(A, rel_tol, max_iters)


def standardize(problem):
    """Center non-intercept columns to mean 0 and sample sd 1 (divisor n-1).

    Raises ValueError naming the first constant column encountered.
    """
    X = np.array(problem.design, copy=True)
    start = 1 if problem.intercept_column else 0
    cols = X[:, start:]
    mean = cols.mean(axis=0)
    if X.shape[0] > 1:
        sd = cols.std(axis=0, ddof=1)
    else:
        sd = np.zeros(cols.shape[1])
    bad = np.flatnonzero(sd == 0.0)
    if bad.size:
        raise ValueError(f"column {bad[0] + start} has zero sample standard deviation")
    X[:, start:] = (cols - mean) / sd
    return QuantileProblem(X, problem.response, problem.tau, problem.intercept_column)


def _raise_first_bad_row(raw_rows):
    """Raise the ValueError naming the first (1-based) row that does not
    parse, has the wrong field count or holds a non-finite value."""
    width = None
    for idx, raw in enumerate(raw_rows, start=1):
        try:
            vals = [float(f) for f in raw]
        except ValueError:
            raise ValueError(f"row {idx}: could not parse numeric fields") from None
        if width is None:
            width = len(vals)
            if width < 2:
                raise ValueError("rows must have at least one feature and a response")
        elif len(vals) != width:
            raise ValueError(f"row {idx}: expected {width} fields, got {len(vals)}")
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"row {idx}: non-finite value")


def load_csv(path, has_header=False, add_intercept=False):
    """Load a problem from CSV: one sample per row, response in the last column.

    Returns a QuantileProblem with tau = 0.5 (retarget with ``with_tau``).
    Malformed rows raise ValueError naming the 1-based data row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        raw_rows = [r for r in csv.reader(fh) if r and not all(f.strip() == "" for f in r)]
    if has_header and raw_rows:
        raw_rows = raw_rows[1:]
    if not raw_rows:
        raise ValueError("no rows")
    # one conversion call (numpy parses each str field with float()); the
    # row-wise scan runs only to name the first malformed row
    try:
        data = np.array(raw_rows, dtype=float)
    except ValueError:
        _raise_first_bad_row(raw_rows)
        raise
    if data.shape[1] < 2:
        raise ValueError("rows must have at least one feature and a response")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite)) + 1}: non-finite value")
    X, y = data[:, :-1], data[:, -1]
    if add_intercept:
        X = np.hstack([np.ones((X.shape[0], 1)), X])
    return QuantileProblem(X, y, tau=0.5, intercept_column=add_intercept)


def support_mask(beta, rel_tol=1e-6):
    """Selected entries: |beta_i| > rel_tol * max(1, ||beta||_inf)."""
    beta = np.asarray(beta, dtype=float)
    thr = rel_tol * max(1.0, float(np.max(np.abs(beta))) if beta.size else 0.0)
    return np.abs(beta) > thr


def nonzero_count(beta, rel_tol=1e-6):
    """Number of entries selected by ``support_mask``."""
    return int(np.count_nonzero(support_mask(beta, rel_tol)))
