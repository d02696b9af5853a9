import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sqreg
from sqreg.cli import main


def run(args):
    return main(args)


def write_small_csv(tmp_path, seed=0, n=40, p=8):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:2] = [1.5, -2.0]
    y = X @ beta + 0.1 * rng.standard_normal(n)
    path = tmp_path / "data.csv"
    rows = [",".join(str(v) for v in list(row) + [yv]) for row, yv in zip(X.tolist(), y.tolist())]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_fit_happy_path(tmp_path, capsys):
    data = write_small_csv(tmp_path)
    out = tmp_path / "fit.json"
    code = run(["fit", data, "--tau", "0.5", "--lambda", "0.1", "--solver", "pdsn",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["nnz"] >= 1
    assert rep["stages"] and all(set(s) == {"k", "nnz", "err_k", "rho", "solver_iters", "wall_ms"} for s in rep["stages"])
    assert rep["converged"]
    # round trip
    assert json.loads(json.dumps(rep)) == rep


def test_huge_lambda_without_overflow(tmp_path):
    # a finite lambda so large that omega / gamma overflows: without an
    # intercept every stage subproblem is certified at beta = 0 and builds no
    # dual workspace; the free intercept needs one, whose clip bounds are inf
    data = write_small_csv(tmp_path)
    out = tmp_path / "huge.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["fit", data, "--lambda", "1e308", "--out", str(out)]) == 0
        assert run(["fit", data, "--lambda", "1e308", "--intercept",
                    "--out", str(tmp_path / "huge-intercept.json")]) == 0
        assert run(["lambda-sweep", "--n", "20", "--p", "30", "--count", "2",
                    "--gamma-max", "1e308", "--out", str(tmp_path / "huge.csv")]) == 0
    rep = json.loads(out.read_text())
    assert rep["beta"] == []
    assert [s["solver_iters"] for s in rep["stages"]] == [0] * len(rep["stages"])


def test_fit_missing_file(tmp_path, capsys):
    assert run(["fit", str(tmp_path / "none.csv")]) == 1
    assert "error" in capsys.readouterr().err


def test_fit_bad_tau(tmp_path, capsys):
    data = write_small_csv(tmp_path)
    assert run(["fit", data, "--tau", "1.5"]) == 1
    assert "tau must be in (0,1)" in capsys.readouterr().err


def test_datagen_roundtrip(tmp_path):
    out = tmp_path / "synth"
    code = run(["datagen", "--n", "25", "--p", "20", "--pattern", "fixed16",
                "--seed", "3", "--out", str(out)])
    assert code == 0
    from sqreg import load_csv

    pr = load_csv(str(out) + ".csv")
    assert pr.n == 25 and pr.p == 20
    sidecar = json.loads((tmp_path / "synth.json").read_text())
    assert sidecar["support"] == [0, 2, 4, 7, 9, 12, 15]


def test_lambda_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["lambda-sweep", "--n", "30", "--p", "12", "--count", "5",
                "--gamma-min", "0.05", "--gamma-max", "0.3",
                "--solvers", "pdsn,admm", "--seed", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,solver,objective,nnz,wall_ms"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 10  # 5 lambdas x 2 solvers
    lams = [float(r[0]) for r in rows]
    assert lams == sorted(lams)
    # per-lambda objective agreement between the solvers
    for i in range(0, 10, 2):
        a, b = float(rows[i][2]), float(rows[i + 1][2])
        assert abs(a - b) <= 1e-4 * max(1.0, abs(a), abs(b))
    # an unknown solver name is an input error, not a silent admm run
    assert run(["lambda-sweep", "--n", "30", "--p", "12", "--count", "1",
                "--solvers", "pdsn,lp", "--out", str(out)]) == 1


def test_tau_sweep_single_row(tmp_path):
    out = tmp_path / "tau.csv"
    code = run(["tau-sweep", "--n", "40", "--p", "30", "--tau-min", "0.5",
                "--tau-max", "0.5", "--tau-step", "0.05", "--reps", "2",
                "--seed", "4", "--threads", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau,l2_error,converged,wall_ms"
    assert len(lines) == 2
    assert lines[1].startswith("0.5,")
    # the converged column is the share of the tau's fits that converged
    assert float(lines[1].split(",")[2]) in (0.0, 0.5, 1.0)


def test_tau_sweep_grid_endpoints(tmp_path):
    out = tmp_path / "tau2.csv"
    code = run(["tau-sweep", "--n", "30", "--p", "20", "--tau-min", "0.3",
                "--tau-max", "0.7", "--tau-step", "0.2", "--reps", "1",
                "--seed", "4", "--threads", "1", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    taus = [float(l.split(",")[0]) for l in lines[1:]]
    assert taus == [0.3, 0.5, 0.7]


def test_bench_records_and_aggregate(tmp_path):
    out = tmp_path / "bench.jsonl"
    code = run(["bench", "--model", "fixed16", "--n", "40", "--p", "30",
                "--reps", "3", "--seed", "5", "--gamma", "0.15",
                "--threads", "1", "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().strip().splitlines()]
    recs = [l for l in lines if not l.get("aggregate")]
    agg = [l for l in lines if l.get("aggregate")][0]
    assert len(recs) == 3
    assert agg["replications"] == 3
    assert all(r["converged"] in (0, 1) for r in recs)
    # aggregate means recompute from records exactly
    for key in ("l2_error", "fp", "fn", "size", "converged"):
        vals = [r[key] for r in recs]
        assert agg[f"{key}_mean"] == pytest.approx(np.mean(vals), abs=1e-12)
    # identifiers are not averaged
    assert not {"rep_mean", "rep_sd", "seed_mean", "seed_sd"} & agg.keys()


def test_bench_noise_var_default(tmp_path, monkeypatch):
    # bench's --noise-var defaults to 2 for normal fixed16 noise only; other
    # laws take no variance, so bench --noise t4 runs at its default
    import sqreg.cli as C

    seen = []
    orig = C.generate

    def spy(spec):
        seen.append((spec.noise, spec.noise_var))
        return orig(spec)

    monkeypatch.setattr(C, "generate", spy)
    for noise in ("normal", "t4"):
        assert run(["bench", "--noise", noise, "--n", "30", "--p", "20", "--reps", "1",
                    "--threads", "1", "--out", str(tmp_path / "b.jsonl")]) == 0
    assert seen == [("normal", 2.0), ("t4", 1.0)]


def _zero_wall(obj):
    if isinstance(obj, dict):
        return {k: 0.0 if ("wall_ms" in k or "solver_ms" in k or "_ms_mean" in k or "_ms_sd" in k)
                else _zero_wall(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_zero_wall(v) for v in obj]
    return obj


def mask_wall(text):
    """Zero every wall-time field (the one nondeterministic output) in
    JSON/JSON-lines text."""
    out = []
    for line in text.splitlines():
        if line.startswith("{"):
            out.append(json.dumps(_zero_wall(json.loads(line)), sort_keys=True))
        else:
            out.append(line)
    return "\n".join(out)


def test_bench_process_pool_matches_serial(tmp_path):
    # the worker pool must produce the same records as the in-process path
    for model in ("fixed16", "hetero"):
        args = ["bench", "--model", model, "--n", "30", "--p", "20", "--reps", "3",
                "--seed", "6", "--gamma", "0.2"]
        out1 = tmp_path / f"serial-{model}.jsonl"
        out2 = tmp_path / f"pool-{model}.jsonl"
        assert run(args + ["--threads", "1", "--out", str(out1)]) == 0
        assert run(args + ["--threads", "2", "--out", str(out2)]) == 0
        assert mask_wall(out1.read_text()) == mask_wall(out2.read_text())


def test_pool_starts_at_most_one_worker_per_job(tmp_path, monkeypatch):
    # a fork-started pool forks all max_workers processes at its first
    # submit; the stand-in pool records its size and maps in this process
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    args = ["bench", "--n", "30", "--p", "20", "--reps", "2", "--seed", "5", "--gamma", "0.2"]
    out_pool, out_serial = tmp_path / "pool.jsonl", tmp_path / "serial.jsonl"
    assert run(args + ["--threads", "8", "--out", str(out_pool)]) == 0
    assert sizes == [2]
    assert run(args + ["--threads", "1", "--out", str(out_serial)]) == 0
    assert sizes == [2]
    assert mask_wall(out_pool.read_text()) == mask_wall(out_serial.read_text())


TAU_SWEEP_3X3 = ["tau-sweep", "--n", "30", "--p", "20", "--tau-min", "0.3", "--tau-max", "0.7",
                 "--tau-step", "0.2", "--reps", "3", "--seed", "9"]


def drawn_seeds(monkeypatch):
    """The seeds of the datasets sqreg.cli draws from now on, in order."""
    import sqreg.cli as C

    seeds = []
    generate = C.generate

    def counted(spec):
        seeds.append(spec.seed)
        return generate(spec)

    monkeypatch.setattr(C, "generate", counted)
    return seeds


def test_tau_sweep_draws_each_dataset_once(tmp_path, monkeypatch):
    # jobs run replication by replication: a serial sweep draws each
    # replication's dataset once for all its tau, and keeps none afterwards
    import sqreg.cli as C

    seeds = drawn_seeds(monkeypatch)
    assert run(TAU_SWEEP_3X3 + ["--threads", "1", "--out", str(tmp_path / "t.csv")]) == 0
    assert seeds == [9, 9 ^ 1, 9 ^ 2]
    assert C._dataset.cache_info().currsize == 0


def test_bench_fits_the_default_lambda_dataset(tmp_path, monkeypatch):
    # replication 0 fits the dataset the default lambda was drawn from; no
    # dataset outlives the command, also when an input error follows the draw
    import sqreg.cli as C

    seeds = drawn_seeds(monkeypatch)
    argv = ["bench", "--n", "30", "--p", "20", "--reps", "2", "--seed", "5", "--threads", "1"]
    assert run(argv + ["--out", str(tmp_path / "b.jsonl")]) == 0
    assert seeds == [5, 5 ^ 1]
    assert C._dataset.cache_info().currsize == 0
    assert run(argv + ["--a", "inf"]) == 1
    assert seeds == [5, 5 ^ 1, 5]
    assert C._dataset.cache_info().currsize == 0


def test_tau_sweep_process_pool_matches_serial(tmp_path):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"tau-{threads}.csv"
        assert run(TAU_SWEEP_3X3 + ["--threads", threads, "--out", str(out)]) == 0
        outs.append([line.rsplit(",", 1)[0] for line in out.read_text().splitlines()])
    assert len(outs[0]) == 4 and outs[0] == outs[1]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _sqreg_subprocess(args, blas_threads):
    """The output of ``sqreg args`` in a fresh interpreter; blas_threads None
    keeps the library's default thread count."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(sqreg.__file__)), env.get("PYTHONPATH", "")])
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    proc = subprocess.run([sys.executable, "-m", "sqreg.cli", *args], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout


def _tau_sweep_subprocess(extra_args, blas_threads):
    """A small tau-sweep in a fresh interpreter (see _sqreg_subprocess);
    returns the output without wall_ms."""
    args = ["tau-sweep", "--n", "200", "--tau-min", "0.3", "--tau-max", "0.7",
            "--tau-step", "0.2", "--reps", "2", "--seed", "2", *extra_args]
    return [line.rsplit(",", 1)[0] for line in _sqreg_subprocess(args, blas_threads).splitlines()]


def test_pool_workers_pin_blas_threads():
    # pool workers under the default BLAS threading must print what a serial
    # single-threaded run prints; unpinned 2-thread workers on two cores
    # changed the last digits of this seed's tau 0.7 row
    pooled = _tau_sweep_subprocess(["--threads", "2"], blas_threads=None)
    serial = _tau_sweep_subprocess(["--threads", "1"], blas_threads=1)
    assert pooled[0] == "tau,l2_error,converged" and len(pooled) == 4
    assert pooled == serial


def test_output_does_not_depend_on_blas_threads(tmp_path):
    # every command pins one BLAS thread in its own process: fits and a
    # serial tau-sweep print the same bytes with the thread variables unset
    # and at 1 and 2 threads; unpinned, 2 threads changed the p > n fit's
    # err_k, the n > p fit's beta and this sweep's rows. The n > p fit
    # solves 120 x 120 Newton systems by LU, where OpenBLAS's threaded
    # factorization rounds differently from n = 100 up
    stem, tall = str(tmp_path / "d"), str(tmp_path / "t")
    assert run(["datagen", "--n", "100", "--p", "300", "--noise-var", "2",
                "--seed", "777000", "--out", stem]) == 0
    assert run(["datagen", "--n", "120", "--p", "60", "--pattern", "hetero",
                "--seed", "3", "--out", tall]) == 0
    fits = [mask_wall(_sqreg_subprocess(["fit", stem + ".csv", "--lambda", "0.11"], t))
            for t in (None, 1, 2)]
    tall_fits = [mask_wall(_sqreg_subprocess(["fit", tall + ".csv", "--tau", "0.3"], t))
                 for t in (None, 1, 2)]
    sweeps = [_tau_sweep_subprocess(["--threads", "1"], t) for t in (None, 1, 2)]
    assert fits[0].startswith('{"beta":') and fits[0] == fits[1] == fits[2]
    assert tall_fits[0].startswith('{"beta":') and tall_fits[0] == tall_fits[1] == tall_fits[2]
    assert len(sweeps[0]) == 4 and sweeps[0] == sweeps[1] == sweeps[2]


@pytest.mark.parametrize("module", ["sqreg", "sqreg.cli"])
def test_import_loads_no_scipy(module):
    # the README's start-up contract: scipy loads only on first use
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(sqreg.__file__)), env.get("PYTHONPATH", "")])
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_fit_with_intercept_and_standardize(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((50, 4)) * np.array([1.0, 10.0, 0.1, 1.0])
    y = 3.0 + X[:, 1] * 0.2 + 0.05 * rng.standard_normal(50)
    path = tmp_path / "d.csv"
    path.write_text("\n".join(",".join(str(v) for v in list(r) + [t]) for r, t in zip(X.tolist(), y.tolist())) + "\n")
    out = tmp_path / "f.json"
    code = run(["fit", str(path), "--intercept", "--standardize", "--lambda", "0.2",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    sel = dict((i, v) for i, v in rep["beta"])
    assert 0 in sel and abs(sel[0] - 3.0) < 0.5  # unpenalized intercept recovered


def test_fit_nonconvergence_exit_code(tmp_path, monkeypatch):
    # a fit that stops at MAX_STAGES is not converged
    data = write_small_csv(tmp_path)
    import sqreg.mscra as M

    monkeypatch.setattr(M, "MAX_STAGES", 1)
    out = tmp_path / "nc.json"
    code = run(["fit", data, "--lambda", "0.1", "--out", str(out)])
    assert code == 2
    rep = json.loads(out.read_text())
    assert rep["converged"] is False and rep["stop_reason"] == "max_stages"


def test_fit_converged_needs_stage_tol(tmp_path, monkeypatch):
    # "converged" means a stop rule ended the fit with err_k <= STAGE_TOL: a
    # stop on a stable err_k above it is not a convergence
    import sqreg.mscra as M

    data = write_small_csv(tmp_path)
    out = tmp_path / "tol.json"
    monkeypatch.setattr(M, "STAGE_TOL", 0.0)
    assert run(["fit", data, "--lambda", "0.1", "--out", str(out)]) == 2
    rep = json.loads(out.read_text())
    assert rep["stop_reason"] == "stable_nnz_and_err_change" and rep["err_k"] > 0.0
    assert rep["converged"] is False


def test_fit_converged_needs_every_stage_solver(tmp_path):
    # "converged" also needs every stage's solver to have converged: with
    # --solver admm most stages of this fit stop at ADMM's iteration cap
    stem = str(tmp_path / "smoke")
    assert run(["datagen", "--n", "40", "--p", "30", "--seed", "1", "--out", stem]) == 0
    out = tmp_path / "admm.json"
    assert run(["fit", stem + ".csv", "--solver", "admm", "--out", str(out)]) == 2
    rep = json.loads(out.read_text())
    assert rep["converged"] is False and rep["stop_reason"] != "max_stages"
    assert rep["err_k"] <= 1e-5


def test_bench_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"bench_{tag}.jsonl"
        run(["bench", "--model", "fixed16", "--n", "30", "--p", "20",
             "--reps", "2", "--seed", "7", "--gamma", "0.2", "--threads", "1",
             "--out", str(out)])
        outs.append(mask_wall(out.read_text()))
    assert outs[0] == outs[1]


def test_usage_error_exit_code(tmp_path, capsys):
    # exit code 2 is reserved for non-convergence; usage errors are input errors
    # removed flags are errors, also where they prefix a kept flag (--solver/--solvers);
    # so are values no command can run with, whether argparse or the command
    # rejects them
    data = write_small_csv(tmp_path)
    for argv in (["fit", "x.csv", "--bogus"], ["fit", "x.csv", "--threads", "2"],
                 ["fit", data, "--seed", "3"],
                 ["lambda-sweep", "--threads", "1"], ["lambda-sweep", "--solver", "pdsn"],
                 ["tau-sweep", "--tau", "0.3"], ["tau-sweep", "--solver", "admm"],
                 ["tau-sweep", "--surrogate", "mcp"], ["tau-sweep", "--a", "4.0"],
                 ["fit", data, "--lambda", "0"], ["fit", data, "--nu", "0"],
                 ["fit", data, "--lambda", "nan"], ["fit", data, "--nu", "inf"],
                 ["bench", "--nu", "0", "--reps", "2", "--threads", "1"],
                 ["bench", "--lambda", "0.2", "--gamma", "0.5", "--n", "30", "--p", "20",
                  "--reps", "1", "--threads", "1"],
                 ["bench", "--nu", "5", "--gamma", "0.5", "--n", "30", "--p", "20",
                  "--reps", "1", "--threads", "1"],
                 ["tau-sweep", "--tau-step", "0"], ["tau-sweep", "--tau-step", "-0.05"],
                 ["tau-sweep", "--tau-min", "0.9", "--tau-max", "0.1"],
                 ["tau-sweep", "--tau-min", "0.95", "--tau-max", "1"],
                 ["tau-sweep", "--reps", "0"], ["bench", "--reps", "0"],
                 ["tau-sweep", "--threads", "-1"], ["bench", "--threads", "-1"],
                 ["lambda-sweep", "--solvers", ","], ["lambda-sweep", "--solvers", "admm,admm,pdsn"],
                 ["fit", data, "--tau", "1.5"], ["bench", "--tau", "nan"], ["lambda-sweep", "--tau", "0"],
                 ["fit", data, "--a", "inf"], ["fit", data, "--a", "nan"],
                 ["fit", data, "--surrogate", "mcp", "--a", "1e308"],
                 ["fit", data, "--surrogate", "capped-l1", "--a", "3.7"],
                 ["bench", "--surrogate", "capped-l1", "--a", "2", "--n", "30", "--p", "20",
                  "--reps", "1", "--threads", "1"],
                 ["datagen", "--n", "30", "--p", "20", "--pattern", "hetero", "--noise", "cauchy",
                  "--noise-var", "9", "--out", str(tmp_path / "h")],
                 ["datagen", "--n", "30", "--p", "20", "--pattern", "hetero", "--snr", "5",
                  "--out", str(tmp_path / "h")],
                 ["bench", "--model", "hetero", "--n", "30", "--p", "20", "--noise", "cauchy",
                  "--noise-var", "50", "--reps", "1", "--threads", "1"],
                 ["datagen", "--n", "10", "--p", "20", "--snr", "0", "--out", str(tmp_path / "s")],
                 ["datagen", "--n", "10", "--p", "20", "--snr", "-3", "--out", str(tmp_path / "s")],
                 ["datagen", "--n", "10", "--p", "20", "--noise-var", "nan", "--out", str(tmp_path / "s")],
                 ["lambda-sweep", "--n", "10", "--p", "20", "--count", "2", "--snr", "0"],
                 ["lambda-sweep", "--n", "20", "--p", "30", "--count", "2", "--gamma-max", "inf"],
                 ["datagen", "--n", "20", "--p", "20", "--snr", "1e-320", "--out", str(tmp_path / "s")],
                 ["datagen", "--n", "20", "--p", "20", "--snr", "1e-320", "--noise-var", "1e-300",
                  "--out", str(tmp_path / "s")],
                 # --noise-var scales normal noise only, and snr sets the scale itself
                 ["datagen", "--n", "20", "--p", "20", "--noise", "laplace", "--noise-var", "9",
                  "--out", str(tmp_path / "s")],
                 ["datagen", "--n", "20", "--p", "20", "--snr", "3", "--noise-var", "4",
                  "--out", str(tmp_path / "s")],
                 ["bench", "--noise", "t4", "--noise-var", "2", "--n", "30", "--p", "20",
                  "--reps", "1", "--threads", "1"]):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 1, argv
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        assert "Traceback" not in err
        if "--snr" in argv:
            assert "snr" in err, (argv, err)
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--help"])
    assert exc.value.code == 0


def test_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    import sqreg.cli as C
    import sqreg.mscra as M
    from sqreg import SolverError

    data = write_small_csv(tmp_path)
    # a solver's failure inside a fit names its stage; pdsn's and admm's
    # numerical failures are both SolverError
    for solver, message in (("pdsn", "non-finite dual value in line search"),
                            ("admm", "ADMM produced non-finite iterates")):
        def failing(spec, u0=None, message=message):
            raise SolverError(message)

        with monkeypatch.context() as m:
            m.setattr(M, "ppa_solve" if solver == "pdsn" else "admm_solve", failing)
            assert run(["fit", data, "--lambda", "0.1", "--solver", solver]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: stage 1 solver failed: {message}"]
    for err in (SolverError("conjugate gradient failed on the Newton system"),
                RuntimeError("not a solver failure")):
        def failing(problem, cfg, err=err):
            raise err

        monkeypatch.setattr(C, "mscra_fit", failing)
        if type(err) is RuntimeError:
            # a fault outside the solvers keeps its traceback
            with pytest.raises(RuntimeError, match="not a solver failure"):
                run(["fit", data, "--lambda", "0.1"])
            continue
        assert run(["fit", data, "--lambda", "0.1"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {err}"]


@pytest.mark.parametrize("lapack", ["numpy-openblas", "fallback"])
def test_singular_newton_matrix_exit_code(tmp_path, monkeypatch, capsys, lapack):
    # with mu = 0, an empty active set J and every residual inside the
    # check-loss box, the first Newton matrix is W = 0: a solver failure,
    # exit 2, whether dgetrf or np.linalg.solve finds it singular
    import sqreg.pdsn as P
    from sqreg import _openblas

    monkeypatch.setattr(P, "NEWTON_MU", 0.0)
    if lapack == "fallback":
        monkeypatch.setattr(_openblas, "dgetrf", None)
        monkeypatch.setattr(_openblas, "dgetrs", None)
    seen = []
    newton_direction = P._DualWork.newton_direction

    def spy(work, rhs):
        seen.append((work.pb != 0.0).any() or (work.pz != 0.0).any())
        return newton_direction(work, rhs)

    monkeypatch.setattr(P._DualWork, "newton_direction", spy)
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((40, 8)), 1e-3 * rng.standard_normal(40)
    path = tmp_path / "tiny.csv"
    path.write_text("".join(",".join(map(repr, [*row, yv])) + "\n"
                            for row, yv in zip(X.tolist(), y.tolist())))
    assert run(["fit", str(path), "--lambda", "0.01"]) == 2
    assert seen == [False]
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: stage 1 solver failed: singular Newton matrix"]


def test_fit_explicit_penalty_skips_default_lambda(tmp_path, monkeypatch):
    import sqreg.cli as C

    def no_grid(*args, **kwargs):
        raise AssertionError("default lambda computed although --lambda was given")

    data = write_small_csv(tmp_path)
    monkeypatch.setattr(C, "lambda_grid", no_grid)
    assert run(["fit", data, "--lambda", "0.1", "--out", str(tmp_path / "a.json")]) == 0
