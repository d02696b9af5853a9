"""Command-line surface: fit, datagen, lambda-sweep, tau-sweep, bench.

Outputs are JSON for single fits, CSV for sweeps and JSON-lines for benchmark
tables; every randomized command takes --seed and reproduces identical output
bytes apart from wall-time fields. Exit codes: 0 success/convergence, 1 input
or usage error, 2 non-convergence or solver failure.
"""

import argparse
import concurrent.futures
import ctypes
import glob
import json
import os
import sys
import time

import numpy as np

from .admm import admm_solve
from .datagen import HETERO_MAIN, SyntheticSpec, generate, selection_metrics
from .mscra import MscraConfig, StageFailure, lambda_grid, mscra_fit
from .pdsn import SolverError, SubproblemSpec, ppa_solve
from .problem import load_csv, nonzero_count, standardize, support_mask
from .report import BenchRun
from .surrogate import KINDS, from_name


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 (2 means non-convergence)
    and no abbreviated long flags, so a removed flag cannot pass as a
    prefix of a kept one."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(kind, ok, what):
    """argparse type: ``kind(text)``, a usage error unless it is ``what``."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_WORKERS = _checked(int, lambda v: v >= 0, ">= 0")
_STEP = _checked(float, lambda v: v > 0, "> 0")


def _write(text, out):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _add_common(sub, tau=True, lam=False, model=False, threads=False):
    """Add the shared flags a command honours; --seed and --out always."""
    if tau:
        sub.add_argument("--tau", type=float, default=0.5)
    if lam:
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--lambda", dest="lam", type=float, default=None)
        group.add_argument("--nu", type=float, default=None)
    if model:
        sub.add_argument("--surrogate", choices=KINDS, default="scad")
        sub.add_argument("--a", type=float, default=3.7)
        sub.add_argument("--solver", choices=("pdsn", "admm"), default="pdsn")
    sub.add_argument("--seed", type=int, default=0)
    if threads:
        sub.add_argument("--threads", type=_WORKERS, default=0, help="0 = machine parallelism")
    sub.add_argument("--out", default=None)


def _model(args):
    """The --solver/--surrogate/--a choice, as a picklable dict for pool workers."""
    return {"solver": args.solver, "surrogate": args.surrogate, "a": args.a}


def _mscra_config(tau, lam, model, nu=None):
    return MscraConfig(tau=tau, lam=lam, nu=nu, solver=model["solver"],
                       surrogate=from_name(model["surrogate"], model["a"]))


def _synthetic_spec(args):
    return SyntheticSpec(
        n=args.n, p=args.p, beta_pattern=args.pattern, covariance=args.cov,
        noise=args.noise, noise_var=args.noise_var, snr=args.snr, seed=args.seed,
    )


def cmd_fit(args):
    problem = load_csv(args.data, has_header=args.header, add_intercept=args.intercept)
    if args.standardize:
        problem = standardize(problem)
    problem = problem.with_tau(args.tau)
    lam = args.lam
    if lam is None and args.nu is None:
        # default penalty level lambda = max(0.01, 0.1 ||X||_1 / n)
        lam = float(lambda_grid(problem, 0.1, 0.1, 1)[0])
    cfg = _mscra_config(args.tau, lam, _model(args), nu=args.nu)
    t0 = time.perf_counter()
    final, history = mscra_fit(problem, cfg)
    wall = (time.perf_counter() - t0) * 1e3
    beta = final.beta
    nz = np.flatnonzero(support_mask(beta))
    report = {
        "beta": [[int(i), float(beta[i])] for i in nz],
        "nnz": final.nnz,
        "err_k": float(final.err_k),
        "tau": args.tau,
        "lambda": cfg.lam,
        "stages": [s.record() for s in history],
        "converged": final.stop_reason != "max_stages",
        "stop_reason": final.stop_reason,
        "wall_ms": wall,
    }
    _write(_json_dumps(report), args.out)
    return 0 if report["converged"] else 2


def cmd_datagen(args):
    spec = _synthetic_spec(args)
    ds = generate(spec)
    X, y = ds.problem.design, ds.problem.response
    out = args.out or "data"
    lines = [",".join(repr(v) for v in row) + "," + repr(float(yi)) for row, yi in zip(X.tolist(), y.tolist())]
    with open(out + ".csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = {
        "beta_true": [[int(i), float(ds.beta_true[i])] for i in ds.support],
        "support": list(ds.support),
        "spec": {
            "n": spec.n, "p": spec.p, "pattern": spec.beta_pattern,
            "covariance": spec.covariance, "noise": spec.noise,
            "noise_var": spec.noise_var, "snr": spec.snr, "seed": spec.seed,
        },
    }
    with open(out + ".json", "w", encoding="utf-8") as fh:
        fh.write(_json_dumps(sidecar))
    return 0


def _subproblem_solve(problem, lam, solver):
    weights = np.full(problem.p, lam)
    spec = SubproblemSpec(problem=problem, weights=weights)
    state, report = (ppa_solve if solver == "pdsn" else admm_solve)(spec)
    return state.beta, report


def cmd_lambda_sweep(args):
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not solvers or not set(solvers) <= {"pdsn", "admm"}:
        raise ValueError("--solvers takes a comma-separated subset of pdsn,admm")
    ds = generate(_synthetic_spec(args))
    problem = ds.problem.with_tau(args.tau)
    lams = lambda_grid(problem, args.gamma_min, args.gamma_max, args.count)
    rows = []
    for lam in lams:
        for solver in solvers:
            beta, report = _subproblem_solve(problem, float(lam), solver)
            rows.append((float(lam), solver, report.objective, nonzero_count(beta), report.wall_ms))
    rows.sort(key=lambda r: (r[0], r[1]))
    text = "lambda,solver,objective,nnz,wall_ms\n" + "\n".join(
        f"{r[0]!r},{r[1]},{r[2]!r},{r[3]},{r[4]!r}" for r in rows) + "\n"
    _write(text, args.out)
    return 0


def _tau_sweep_one(payload):
    args_dict, tau, seed = payload
    spec = SyntheticSpec(**args_dict, seed=seed)
    ds = generate(spec)
    # fixed penalty level lambda = 37.5 / n across the whole sweep
    cfg = MscraConfig(tau=tau, lam=37.5 / args_dict["n"], solver="pdsn")
    t0 = time.perf_counter()
    final, _ = mscra_fit(ds.problem, cfg)
    wall = (time.perf_counter() - t0) * 1e3
    metrics = selection_metrics(final.beta, ds)
    return tau, seed, metrics["l2_error"], wall


def cmd_tau_sweep(args):
    if not 0.0 < args.tau_min <= args.tau_max < 1.0:
        raise ValueError("need 0 < --tau-min <= --tau-max < 1")
    taus = [round(t, 10) for t in np.arange(args.tau_min, args.tau_max + 1e-12, args.tau_step).tolist()]
    seeds = [args.seed ^ r for r in range(args.reps)]
    base = {"n": args.n, "p": args.p, "beta_pattern": args.pattern,
            "covariance": args.cov, "noise": args.noise, "noise_var": args.noise_var,
            "snr": args.snr}
    payloads = [(base, t, s) for t in taus for s in seeds]
    results = _run_pool(_tau_sweep_one, payloads, args.threads)
    rows = []
    for t in taus:
        sub = [r for r in results if r[0] == t]
        rows.append((t, float(np.mean([r[2] for r in sub])), float(np.mean([r[3] for r in sub]))))
    text = "tau,l2_error,wall_ms\n" + "\n".join(f"{r[0]!r},{r[1]!r},{r[2]!r}" for r in rows) + "\n"
    _write(text, args.out)
    return 0


def _pin_blas_threads():
    """Pool-worker initializer: one OpenBLAS thread per worker, so that
    workers do not oversubscribe the cores and a worker's BLAS sums match
    those of a single-threaded serial run. A numpy without its bundled
    scipy-openblas library is left as it is."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")):
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)


def _run_pool(fn, payloads, threads):
    workers = threads if threads and threads > 0 else (os.cpu_count() or 1)
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    # every pool job samples a dataset; load the samplers' scipy.special
    # here, once, so that the forked workers inherit it instead of each
    # importing it again
    import scipy.special  # noqa: F401

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers,
                                                initializer=_pin_blas_threads) as pool:
        return list(pool.map(fn, payloads))


def _bench_one(payload):
    kind = payload["kind"]
    seed = payload["seed"]
    spec = SyntheticSpec(**payload["spec"], seed=seed)
    ds = generate(spec)
    cfg = _mscra_config(payload["tau"], payload["lam"], payload["model"])
    t0 = time.perf_counter()
    final, history = mscra_fit(ds.problem, cfg)
    wall = (time.perf_counter() - t0) * 1e3
    solver_ms = sum(s.solver_report.wall_ms for s in history)
    rec = {"rep": payload["rep"], "seed": seed, "stages": len(history),
           "solver_iters": int(sum(s.solver_report.inner_iterations for s in history)),
           "wall_ms": wall, "solver_ms": solver_ms, "nnz": final.nnz}
    if kind == "hetero":
        beta = final.beta
        selected = set(np.flatnonzero(support_mask(beta)).tolist())
        main = set(HETERO_MAIN)
        rec["size"] = len(selected)
        rec["p1"] = 1.0 if main <= selected else 0.0
        rec["p2"] = 1.0 if main <= selected and 0 in selected else 0.0
        rec["ae"] = float(sum(abs(beta[i] - 1.0) for i in HETERO_MAIN))
    else:
        m = selection_metrics(final.beta, ds)
        rec.update({"l2_error": m["l2_error"], "fp": m["fp"], "fn": m["fn"], "size": m["size"]})
    return rec


def cmd_bench(args):
    kind = args.model
    if kind == "hetero":
        spec = {"n": args.n, "p": args.p, "beta_pattern": "hetero",
                "covariance": args.cov, "noise": "normal", "noise_var": 1.0, "snr": None}
    else:
        spec = {"n": args.n, "p": args.p, "beta_pattern": "fixed16",
                "covariance": args.cov, "noise": args.noise, "noise_var": args.noise_var,
                "snr": None}
    lam = args.lam
    if lam is None and args.nu is None:
        gamma = args.gamma if args.gamma is not None else (0.1 if kind == "hetero" else 0.116)
        probe = generate(SyntheticSpec(**spec, seed=args.seed))
        lam = float(lambda_grid(probe.problem, gamma, gamma, 1)[0])
    # checks lambda/nu before any worker starts
    cfg = _mscra_config(args.tau, lam, _model(args), nu=args.nu)
    scenario = f"{args.model}:{args.cov}:{args.noise}:tau{args.tau}"
    payloads = [{"kind": kind, "spec": spec, "seed": args.seed ^ r, "rep": r,
                 "tau": args.tau, "lam": cfg.lam, "model": _model(args)}
                for r in range(args.reps)]
    records = _run_pool(_bench_one, payloads, args.threads)
    records.sort(key=lambda r: r["rep"])
    run = BenchRun(scenario=scenario, records=records)
    lines = [_json_dumps(r) for r in records]
    agg = run.aggregate()
    agg["aggregate"] = True
    lines.append(_json_dumps(agg))
    _write("".join(lines), args.out)
    return 0


def build_parser():
    ap = _Parser(prog="sqreg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one CSV dataset")
    fit.add_argument("data")
    fit.add_argument("--header", action="store_true")
    fit.add_argument("--intercept", action="store_true")
    fit.add_argument("--standardize", action="store_true")
    _add_common(fit, lam=True, model=True)
    fit.set_defaults(fn=cmd_fit)

    dg = sub.add_parser("datagen", help="emit a synthetic CSV + JSON sidecar")
    dg.add_argument("--n", type=int, required=True)
    dg.add_argument("--p", type=int, required=True)
    dg.add_argument("--pattern", choices=("alternating-decay", "fixed16", "random-support", "hetero"),
                    default="fixed16")
    dg.add_argument("--cov", default="identity")
    dg.add_argument("--noise", default="normal")
    dg.add_argument("--noise-var", type=float, default=1.0)
    dg.add_argument("--snr", type=float, default=None)
    dg.add_argument("--seed", type=int, default=0)
    dg.add_argument("--out", default=None)
    dg.set_defaults(fn=cmd_datagen)

    ls = sub.add_parser("lambda-sweep", help="sweep the penalty grid on one subproblem")
    ls.add_argument("--n", type=int, default=200)
    ls.add_argument("--p", type=int, default=500)
    ls.add_argument("--pattern", default="alternating-decay")
    ls.add_argument("--cov", default="identity")
    ls.add_argument("--noise", default="normal")
    ls.add_argument("--noise-var", type=float, default=1.0)
    ls.add_argument("--snr", type=float, default=3.0)
    ls.add_argument("--gamma-min", type=float, default=0.02)
    ls.add_argument("--gamma-max", type=float, default=0.25)
    ls.add_argument("--count", type=int, default=50)
    ls.add_argument("--solvers", default="pdsn,admm")
    _add_common(ls)
    ls.set_defaults(fn=cmd_lambda_sweep)

    ts = sub.add_parser("tau-sweep", help="sweep the quantile level with full fits")
    ts.add_argument("--n", type=int, default=100)
    ts.add_argument("--p", type=int, default=300)
    ts.add_argument("--pattern", default="random-support")
    ts.add_argument("--cov", default="cs:0.6")
    ts.add_argument("--noise", default="laplace")
    ts.add_argument("--noise-var", type=float, default=1.0)
    ts.add_argument("--snr", type=float, default=None)
    ts.add_argument("--tau-min", type=float, default=0.05)
    ts.add_argument("--tau-max", type=float, default=0.95)
    ts.add_argument("--tau-step", type=_STEP, default=0.05)
    ts.add_argument("--reps", type=_COUNT, default=10)
    _add_common(ts, tau=False, threads=True)
    ts.set_defaults(fn=cmd_tau_sweep)

    bn = sub.add_parser("bench", help="replicated benchmark scenario (JSON-lines)")
    bn.add_argument("--model", choices=("fixed16", "hetero"), default="fixed16")
    bn.add_argument("--n", type=int, default=200)
    bn.add_argument("--p", type=int, default=1000)
    bn.add_argument("--cov", default="identity")
    bn.add_argument("--noise", default="normal")
    bn.add_argument("--noise-var", type=float, default=2.0)
    bn.add_argument("--gamma", type=float, default=None,
                    help="penalty scale; default 0.116 (fixed16) or 0.1 (hetero)")
    bn.add_argument("--reps", type=_COUNT, default=10)
    _add_common(bn, lam=True, model=True, threads=True)
    bn.set_defaults(fn=cmd_bench)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if hasattr(args, "tau") and not 0.0 < args.tau < 1.0:
        sys.stderr.write("tau must be in (0,1)\n")
        return 1
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (StageFailure, SolverError, FloatingPointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
