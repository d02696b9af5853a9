"""Estimation instances, check loss, matrix norms, standardization, CSV input."""

import csv
import io
import warnings
from functools import cached_property

import numpy as np
from dataclasses import dataclass, replace

POWER_REL_TOL = 1e-8    # power iteration stops at this relative change
POWER_MAX_ITERS = 500   # power iteration sweeps at most
SUPPORT_REL_TOL = 1e-6  # support rule |beta_i| > SUPPORT_REL_TOL max(1, ||beta||_inf)


def _frozen_array(a, dtype=float):
    a = np.array(a, dtype=dtype, copy=True, order="C")
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
    across concurrent solver runs; ``norms`` caches the design's norms. The
    design is stored C-ordered whatever its input's layout, because numpy's
    column sums round differently in the other memory order.
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

    @cached_property
    def norms(self):
        """MatrixNorms of the design, built once per instance; the spectral
        norm's power iteration runs on its first read."""
        return MatrixNorms(self.design)

    def with_tau(self, tau):
        """Same data at a different quantile level."""
        return replace(self, tau=float(tau))


class MatrixNorms:
    """Element-wise max norm ``max_abs``, maximum column sum norm ``col_sum``
    and spectral norm ``spectral`` of a matrix (see ``matrix_norms``).

    The spectral norm runs power iteration, so it is computed on first access
    only; the matrix must not change before then.
    """

    def __init__(self, A):
        aabs = np.abs(A)
        self.col_sum = float(np.max(aabs.sum(axis=0)))
        self.max_abs = float(np.max(aabs))
        self._A = A

    @cached_property
    def spectral(self):
        # sigma_max >= |e_i^T A e_j| for every matrix; the floor keeps that
        # true of the power-iteration estimate
        return max(_spectral_norm(self._A), self.max_abs)


def check_loss(z, tau):
    """Averaged check (pinball) loss (1/n) sum_i (tau - 1{z_i<=0}) z_i."""
    z = np.asarray(z, dtype=float)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0,1)")
    return float(np.mean((tau - (z <= 0)) * z))


def _spectral_norm(A):
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
    for _ in range(POWER_MAX_ITERS):
        w = mv(v)
        s_new = np.linalg.norm(w)
        if s_new == 0.0:
            break
        v = w / s_new
        if abs(s_new - s) <= POWER_REL_TOL * s_new:
            s = s_new
            break
        s = s_new
    return float(np.sqrt(s))


def matrix_norms(design):
    """MatrixNorms of a design matrix.

    The spectral norm uses power iteration on the Gram matrix (relative
    tolerance POWER_REL_TOL, at most POWER_MAX_ITERS sweeps) when first read.
    """
    A = np.asarray(design, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return MatrixNorms(A)


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


def _read_rows_numpy(raw, has_header):
    """The data rows of the file bytes ``raw`` as an (n, k) array through
    numpy's C reader, or None when it cannot give the csv.reader path's
    answer: a field it does not parse, a ragged row, a warning (no data), no
    row left, or one of the separators U+001C..U+001F, which numpy strips as
    whitespace and float() rejects (float() strips ASCII whitespace and
    non-ASCII whitespace only; no UTF-8 multibyte sequence holds these
    bytes)."""
    if any(sep in raw for sep in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            data = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, ndmin=2, encoding="utf-8")
        except (ValueError, Warning):
            return None
    data = data[1:] if has_header else data
    return data if data.shape[0] else None


def _read_rows_csv(raw, has_header):
    """The data rows of the file bytes ``raw`` as an (n, k) array through
    csv.reader and float()."""
    lines = io.StringIO(raw.decode("utf-8"), newline="")
    raw_rows = [r for r in csv.reader(lines) if r and not all(f.strip() == "" for f in r)]
    if has_header and raw_rows:
        raw_rows = raw_rows[1:]
    if not raw_rows:
        raise ValueError("no rows")
    # one conversion call (numpy parses each str field with float()); the
    # row-wise scan runs only to name the first malformed row
    try:
        return np.array(raw_rows, dtype=float)
    except ValueError:
        _raise_first_bad_row(raw_rows)
        raise


def load_csv(path, has_header=False, add_intercept=False):
    """Load a problem from CSV: one sample per row, response in the last column.

    Returns a QuantileProblem with tau = 0.5 (retarget with ``with_tau``).
    Malformed rows raise ValueError naming the 1-based data row.

    numpy's C reader parses the file first. It converts each field with the
    correctly rounded conversion float() uses, skips only empty lines and
    fails on quotes, blank fields and whitespace-only lines, so where it
    parses it gives the csv.reader path's array to the bit. The csv.reader
    path runs only where it does not, and words every error. The file is
    read once, so a pipe works on both paths.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    data = _read_rows_numpy(raw, has_header)
    if data is None:
        data = _read_rows_csv(raw, has_header)
    if data.shape[1] < 2:
        raise ValueError("rows must have at least one feature and a response")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite)) + 1}: non-finite value")
    X, y = data[:, :-1], data[:, -1]
    if add_intercept:
        X = np.hstack([np.ones((X.shape[0], 1)), X])
    return QuantileProblem(X, y, tau=0.5, intercept_column=add_intercept)


def support_mask(beta):
    """Selected entries: |beta_i| > SUPPORT_REL_TOL * max(1, ||beta||_inf)."""
    beta = np.asarray(beta, dtype=float)
    thr = SUPPORT_REL_TOL * max(1.0, float(np.max(np.abs(beta))) if beta.size else 0.0)
    return np.abs(beta) > thr


def nonzero_count(beta):
    """Number of entries selected by ``support_mask``."""
    return int(np.count_nonzero(support_mask(beta)))
