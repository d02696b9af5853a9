import csv
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _load_csv_rowwise(path, has_header=False, add_intercept=False):
    """The row-by-row parser load_csv replaced, kept as its oracle."""
    with open(path, newline="", encoding="utf-8") as fh:
        raw_rows = [r for r in csv.reader(fh) if r and not all(f.strip() == "" for f in r)]
    if has_header and raw_rows:
        raw_rows = raw_rows[1:]
    rows = []
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
        rows.append(vals)
    if not rows:
        raise ValueError("no rows")
    data = np.asarray(rows, dtype=float)
    X, y = data[:, :-1], data[:, -1]
    if add_intercept:
        X = np.hstack([np.ones((X.shape[0], 1)), X])
    return QuantileProblem(X, y, intercept_column=add_intercept)


def _outcome(loader, path, **kw):
    try:
        pr = loader(path, **kw)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", pr.design.shape, pr.design.tobytes(), pr.response.tobytes(), pr.intercept_column)


_FIELD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_0", "\uff11", " 1.5 ", "-0", "+.5", "1e400", "-1e400", "nan", "-inf",
                     "Infinity", "1e", "0x10", "abc", "", " ", "1,5", "1__0", "\t2\n"]),
)


def _row(fields, quoted):
    # csv quoting: double any quote, wrap the field in quotes
    return ",".join('"' + f.replace('"', '""') + '"' if q else f for f, q in zip(fields, quoted))


@st.composite
def _csv_text(draw):
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "ragged", "blank", "spaces"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", " , ", ",,"])))
        else:
            w = width if kind == "row" else draw(st.integers(1, 5))
            fields = draw(st.lists(_FIELD, min_size=w, max_size=w))
            quoted = draw(st.lists(st.booleans(), min_size=w, max_size=w))
            lines.append(_row(fields, quoted))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=300, deadline=None)
@given(text=_csv_text(), has_header=st.booleans(), add_intercept=st.booleans())
def test_load_csv_matches_rowwise_parser(text, has_header, add_intercept):
    # byte-equal arrays and the same error text as the row-by-row parser,
    # over ragged, non-numeric, non-finite, blank, quoted and header rows
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        kw = {"has_header": has_header, "add_intercept": add_intercept}
        assert _outcome(load_csv, path, **kw) == _outcome(_load_csv_rowwise, path, **kw)


def test_load_csv_first_fault_named(tmp_path):
    # several faults: each message names the first faulty row, as before
    cases = {
        "1,2,3\n4,x,6\n7,8\n": "row 2: could not parse numeric fields",
        "1,2,3\n4,5\n7,nan,9\n": "row 2: expected 3 fields, got 2",
        "1,2,3\n4,inf,6\n7,8\n": "row 2: non-finite value",
        "1,2,3\n\n  \n4,5,6\n7,1e400,9\n": "row 3: non-finite value",
        "5\n1,2\n": "rows must have at least one feature and a response",
    }
    for text, message in cases.items():
        f = tmp_path / "m.csv"
        f.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_csv(f)
        assert str(exc.value) == message


def test_load_csv_fast_path_matches_rowwise(tmp_path, monkeypatch):
    # datagen output, its CRLF copy and a copy with blank lines mixed in all
    # load without csv.reader, byte-equal to the row-by-row parser
    from sqreg.cli import main

    stem = str(tmp_path / "g")
    assert main(["datagen", "--n", "30", "--p", "20", "--seed", "4", "--out", stem]) == 0
    with open(stem + ".csv", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    variants = {
        "lf.csv": "\n".join(lines) + "\n",
        "crlf.csv": "\r\n".join(lines) + "\r\n",
        "blank.csv": "\n\n" + "\n\n".join(lines) + "\n\n",
    }
    expected = {}
    for name, text in variants.items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
        expected[name] = _outcome(_load_csv_rowwise, tmp_path / name)
        assert expected[name][0] == "ok"

    def no_csv_reader(*args, **kwargs):
        raise AssertionError("csv.reader ran")

    monkeypatch.setattr(csv, "reader", no_csv_reader)
    for name in variants:
        assert _outcome(load_csv, tmp_path / name) == expected[name]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_csv_reads_a_pipe_once():
    # a text header takes the csv.reader fallback, which must parse the
    # bytes already read: a pipe cannot be read again
    r, w = os.pipe()
    os.write(w, b"a,b,y\n1,2,3\n4,5,6\n")
    os.close(w)
    try:
        pr = load_csv(f"/dev/fd/{r}", has_header=True)
    finally:
        os.close(r)
    assert np.array_equal(pr.design, [[1.0, 2.0], [4.0, 5.0]])


@pytest.mark.parametrize("text, has_header", [
    ("", False),                     # empty: "no rows", no loadtxt warning
    ("\n  \n\t\n", False),           # blank lines only
    (" , \n1,2\n", False),           # a row of blank fields
    ("1,2,3\n4,5,6\n", True),        # numeric header
    ("1,2,3\n", True),               # header only
    ("\n\na,b,y\n\n1,2,3\n", True),  # blank lines before the header
    ("# note\n1,2\n", False),        # a # line is data, not a comment
    ("\ufeff1,2\n3,4\n", False),     # UTF-8 BOM
    ("\ufeff1,2\n3,4\n", True),      # BOM on the header line
    ("1,2,\n3,4,\n", False),         # trailing comma
    ("1,2\r3,4\r", False),           # bare-CR line ends
    ("1\n2\n3\n", False),            # single column
    ("1,2\x1c\n3,4\n", False),       # numpy strips U+001C, float() does not
    ('"1",2\n3,4\n', False),         # quoted field
])
def test_load_csv_edge_cases_match_rowwise(tmp_path, text, has_header):
    # the same outcome whether warnings are errors or shown, and none shown
    f = tmp_path / "e.csv"
    f.write_bytes(text.encode("utf-8"))
    expected = _outcome(_load_csv_rowwise, f, has_header=has_header)
    for action in ("error", "always"):
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter(action)
            assert _outcome(load_csv, f, has_header=has_header) == expected
        assert shown == []
    if text == "":
        assert expected == ("error", "no rows")


def test_problem_takes_no_quantile_level():
    # the quantile level belongs to the solve: a third positional argument
    # is refused, not read as intercept_column
    with pytest.raises(TypeError):
        QuantileProblem(np.eye(2), np.zeros(2), 0.5)
    assert not hasattr(QuantileProblem(np.eye(2), np.zeros(2)), "tau")


def test_problem_validation():
    with pytest.raises(ValueError):
        QuantileProblem(np.array([[np.inf, 1.0]]), np.zeros(1))
    with pytest.raises(ValueError):
        QuantileProblem(np.array([[2.0, 1.0]]), np.zeros(1), intercept_column=True)
    pr = QuantileProblem(np.eye(3), np.arange(3.0))
    with pytest.raises(ValueError):
        pr.design[0, 0] = 7.0  # frozen arrays


def test_standardize_basic():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    pr = QuantileProblem(X[:, :1], np.zeros(3))
    out = standardize(pr)
    col = out.design[:, 0]
    assert abs(col.mean()) < 1e-12
    assert abs(col.std(ddof=1) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="column 1"):
        standardize(QuantileProblem(X, np.zeros(3)))


def test_standardize_idempotent(rng):
    X = rng.standard_normal((40, 6))
    pr = QuantileProblem(X, rng.standard_normal(40))
    once = standardize(pr)
    twice = standardize(once)
    assert np.max(np.abs(once.design - twice.design)) < 1e-10


def test_standardize_skips_intercept(rng):
    X = np.hstack([np.ones((30, 1)), rng.standard_normal((30, 4))])
    pr = QuantileProblem(X, rng.standard_normal(30), intercept_column=True)
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
