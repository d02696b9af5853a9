"""Command-line surface: fit, datagen, lambda-sweep, tau-sweep, bench.

Outputs are JSON for single fits, CSV for sweeps and JSON-lines for benchmark
tables; every randomized command takes --seed and reproduces identical output
bytes apart from wall-time fields. Exit codes: 0 success/convergence, 1 input
or usage error, 2 non-convergence or solver failure.
"""

import argparse
import concurrent.futures
import json
import os
import sys
import time

import numpy as np

from . import _openblas
from .admm import admm_solve
from .datagen import BETA_PATTERNS, HETERO_MAIN, SyntheticSpec, generate, selection_metrics
from .mscra import MscraConfig, lambda_grid, mscra_fit
from .pdsn import SubproblemSpec, ppa_solve
from .problem import load_csv, nonzero_count, standardize, support_mask
from .report import SolverError
from .surrogate import KINDS, SurrogateFamily


class _UsageError(Exception):
    """A usage error the parser has reported; ``main`` returns 1 for it."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 (2 means non-convergence)
    and no abbreviated long flags, so a removed flag cannot pass as a
    prefix of a kept one."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError


def _checked(kind, ok, rule):
    """argparse type: ``kind(text)``, a usage error stating ``rule`` unless
    ``ok`` accepts it."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "must be >= 1")
_WORKERS = _checked(int, lambda v: v >= 0, "must be >= 0")
_STEP = _checked(float, lambda v: v > 0, "must be > 0")
_TAU = _checked(float, lambda v: 0.0 < v < 1.0, "tau must be in (0,1)")


def _write(text, out):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _add_common(sub, tau=True, lam=False, model=False, seed=True, threads=False):
    """Add the shared flags a command honours; --out always."""
    if tau:
        sub.add_argument("--tau", type=_TAU, default=0.5)
    if lam:
        sub.add_argument("--lambda", dest="lam", type=float, default=None)
    if model:
        sub.add_argument("--surrogate", choices=KINDS, default="scad")
        sub.add_argument("--a", type=float, default=None, help="scad/mcp shape; default 3.7")
        sub.add_argument("--solver", choices=("pdsn", "admm"), default="pdsn")
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if threads:
        sub.add_argument("--threads", type=_WORKERS, default=0, help="0 = machine parallelism")
    sub.add_argument("--out", default=None)


def _add_dataset(sub, n=None, p=None, pattern="fixed16", cov="identity", noise="normal", snr=None):
    """Add the synthetic-dataset flags with this command's defaults; --n and
    --p are required where they have none."""
    sub.add_argument("--n", type=int, default=n, required=n is None)
    sub.add_argument("--p", type=int, default=p, required=p is None)
    sub.add_argument("--pattern", choices=BETA_PATTERNS, default=pattern)
    sub.add_argument("--cov", default=cov)
    sub.add_argument("--noise", default=noise)
    sub.add_argument("--noise-var", type=float, default=1.0)
    sub.add_argument("--snr", type=float, default=snr)


def _mscra_config(args, lam):
    """The --tau and model flags as a fit configuration at penalty ``lam``."""
    return MscraConfig(tau=args.tau, lam=lam, solver=args.solver,
                       surrogate=SurrogateFamily(args.surrogate, args.a))


def _synthetic_spec(args, seed):
    """The dataset flags as the spec of the dataset drawn with ``seed``."""
    return SyntheticSpec(
        n=args.n, p=args.p, beta_pattern=args.pattern, covariance=args.cov,
        noise=args.noise, noise_var=args.noise_var, snr=args.snr, seed=seed,
    )


def cmd_fit(args):
    problem = load_csv(args.data, has_header=args.header, add_intercept=args.intercept)
    if args.standardize:
        problem = standardize(problem)
    lam = args.lam
    if lam is None:
        # default penalty level lambda = max(0.01, 0.1 ||X||_1 / n)
        lam = float(lambda_grid(problem, 0.1, 0.1, 1)[0])
    cfg = _mscra_config(args, lam)
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
        "converged": final.converged,
        "stop_reason": final.stop_reason,
        "wall_ms": wall,
    }
    _write(_json_dumps(report), args.out)
    return 0 if report["converged"] else 2


def cmd_datagen(args):
    spec = _synthetic_spec(args, args.seed)
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
    if not solvers or not set(solvers) <= {"pdsn", "admm"} or len(set(solvers)) < len(solvers):
        raise ValueError("--solvers takes a comma-separated subset of pdsn,admm, each named once")
    ds = generate(_synthetic_spec(args, args.seed))
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


# the last (SyntheticSpec, dataset) _dataset drew in this process; main
# clears it, so that it holds only within one command
_last_dataset = None


def _dataset(spec):
    """generate(spec), reusing the dataset of the previous call when its spec
    is equal: pool jobs come replication by replication, so each worker draws
    each replication's dataset once, and bench's replication 0 fits the
    dataset its default lambda was drawn from."""
    global _last_dataset
    if _last_dataset is None or _last_dataset[0] != spec:
        _last_dataset = (spec, generate(spec))
    return _last_dataset[1]


def _fit_job(job):
    """Pool job: draw the dataset of ``spec``, fit it with ``cfg`` and return
    replication ``rep``'s record, fit statistics (``converged`` as 0/1, so
    that its mean is the converged share) plus the selection metrics (P1, P2
    and AE, the Table-1 columns, for the hetero model)."""
    spec, cfg, rep = job
    ds = _dataset(spec)
    t0 = time.perf_counter()
    final, history = mscra_fit(ds.problem, cfg)
    wall = (time.perf_counter() - t0) * 1e3
    solver_ms = sum(s.solver_report.wall_ms for s in history)
    rec = {"rep": rep, "seed": spec.seed, "stages": len(history),
           "solver_iters": int(sum(s.solver_report.inner_iterations for s in history)),
           "wall_ms": wall, "solver_ms": solver_ms, "nnz": final.nnz,
           "converged": int(final.converged)}
    if spec.beta_pattern == "hetero":
        beta = final.beta
        selected = set(np.flatnonzero(support_mask(beta)).tolist())
        main = set(HETERO_MAIN)
        rec["size"] = len(selected)
        rec["p1"] = 1.0 if main <= selected else 0.0
        rec["p2"] = 1.0 if main <= selected and 0 in selected else 0.0
        rec["ae"] = float(sum(abs(beta[i] - 1.0) for i in HETERO_MAIN))
    else:
        rec.update(selection_metrics(final.beta, ds))
    return rec


def cmd_tau_sweep(args):
    if not 0.0 < args.tau_min <= args.tau_max < 1.0:
        raise ValueError("need 0 < --tau-min <= --tau-max < 1")
    if args.pattern == "hetero":
        raise ValueError("tau-sweep reports the l2 error, which the hetero model's records "
                         "do not carry; use bench --model hetero")
    taus = [round(t, 10) for t in np.arange(args.tau_min, args.tau_max + 1e-12, args.tau_step).tolist()]
    specs = [_synthetic_spec(args, args.seed ^ r) for r in range(args.reps)]
    # fixed penalty level lambda = 37.5 / n across the whole sweep
    cfgs = [MscraConfig(tau=t, lam=37.5 / args.n) for t in taus]
    # replication-major, so that consecutive jobs share a dataset
    jobs = [(spec, cfg, r) for r, spec in enumerate(specs) for cfg in cfgs]
    records = _run_pool(jobs, args.threads)
    rows = []
    for i, t in enumerate(taus):
        sub = records[i::len(taus)]
        rows.append((t, *(float(np.mean([r[k] for r in sub])) for k in ("l2_error", "converged", "wall_ms"))))
    text = "tau,l2_error,converged,wall_ms\n" + "\n".join(",".join(map(repr, r)) for r in rows) + "\n"
    _write(text, args.out)
    return 0


def _pin_blas_threads():
    """One OpenBLAS thread in this process, so that its BLAS sums, and with
    them every output, do not depend on the thread count. ``main`` calls it
    for every command, and it is the pool-worker initializer, because a
    worker started by forkserver or spawn does not inherit the setting; one
    thread per worker also keeps workers from oversubscribing the cores. A
    numpy without its bundled scipy-openblas library is left as it is."""
    if _openblas.set_num_threads is not None:
        _openblas.set_num_threads(1)


def _run_pool(jobs, threads):
    """The records of ``_fit_job`` over ``jobs``, in order, on at most one
    worker per job. Forked workers start with the parent's dataset memo."""
    # a fork-started pool forks all max_workers processes at the first submit
    workers = min(threads if threads and threads > 0 else (os.cpu_count() or 1), len(jobs))
    if workers <= 1:
        return [_fit_job(job) for job in jobs]
    # every pool job samples a dataset; load the samplers' scipy.special
    # here, once, so that the forked workers inherit it instead of each
    # importing it again
    import scipy.special  # noqa: F401

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers,
                                                initializer=_pin_blas_threads) as pool:
        return list(pool.map(_fit_job, jobs))


def _aggregate(scenario, records):
    """The closing line of a bench run: mean and sample standard deviation
    of every numeric record field but the identifiers ``rep`` and ``seed``."""
    keys = sorted({k for r in records for k, v in r.items()
                   if isinstance(v, (int, float)) and not isinstance(v, bool) and k not in ("rep", "seed")})
    out = {"scenario": scenario, "replications": len(records), "aggregate": True}
    for k in keys:
        vals = np.asarray([float(r[k]) for r in records])
        out[f"{k}_mean"] = float(vals.mean())
        out[f"{k}_sd"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    return out


def cmd_bench(args):
    hetero = args.pattern == "hetero"
    if args.noise_var is None:
        args.noise_var = 2.0 if not hetero and args.noise == "normal" else 1.0
    specs = [_synthetic_spec(args, args.seed ^ r) for r in range(args.reps)]
    lam = args.lam
    if args.gamma is not None and lam is not None:
        raise ValueError("--gamma scales the default penalty; it cannot be combined with --lambda")
    if lam is None:
        gamma = args.gamma if args.gamma is not None else (0.1 if hetero else 0.116)
        lam = float(lambda_grid(_dataset(specs[0]).problem, gamma, gamma, 1)[0])
    # checks lambda before any worker starts
    cfg = _mscra_config(args, lam)
    records = _run_pool([(spec, cfg, r) for r, spec in enumerate(specs)], args.threads)
    scenario = f"{args.pattern}:{args.cov}:{args.noise}:tau{args.tau}"
    lines = [_json_dumps(r) for r in records] + [_json_dumps(_aggregate(scenario, records))]
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
    _add_common(fit, lam=True, model=True, seed=False)
    fit.set_defaults(fn=cmd_fit)

    dg = sub.add_parser("datagen", help="emit a synthetic CSV + JSON sidecar")
    _add_dataset(dg)
    dg.add_argument("--seed", type=int, default=0)
    dg.add_argument("--out", default=None)
    dg.set_defaults(fn=cmd_datagen)

    ls = sub.add_parser("lambda-sweep", help="sweep the penalty grid on one subproblem")
    _add_dataset(ls, n=200, p=500, pattern="alternating-decay", snr=3.0)
    ls.add_argument("--gamma-min", type=float, default=0.02)
    ls.add_argument("--gamma-max", type=float, default=0.25)
    ls.add_argument("--count", type=int, default=50)
    ls.add_argument("--solvers", default="pdsn,admm")
    _add_common(ls)
    ls.set_defaults(fn=cmd_lambda_sweep)

    ts = sub.add_parser("tau-sweep", help="sweep the quantile level with full fits")
    _add_dataset(ts, n=100, p=300, pattern="random-support", cov="cs:0.6", noise="laplace")
    ts.add_argument("--tau-min", type=float, default=0.05)
    ts.add_argument("--tau-max", type=float, default=0.95)
    ts.add_argument("--tau-step", type=_STEP, default=0.05)
    ts.add_argument("--reps", type=_COUNT, default=10)
    _add_common(ts, tau=False, threads=True)
    ts.set_defaults(fn=cmd_tau_sweep)

    bn = sub.add_parser("bench", help="replicated benchmark scenario (JSON-lines)")
    bn.add_argument("--model", dest="pattern", choices=("fixed16", "hetero"), default="fixed16")
    bn.add_argument("--n", type=int, default=200)
    bn.add_argument("--p", type=int, default=1000)
    bn.add_argument("--cov", default="identity")
    bn.add_argument("--noise", default="normal")
    bn.add_argument("--noise-var", type=float, default=None,
                    help="default 2 for fixed16 with normal noise, else 1")
    bn.add_argument("--gamma", type=float, default=None,
                    help="penalty scale when --lambda is not given; "
                         "default 0.116 (fixed16) or 0.1 (hetero)")
    bn.add_argument("--reps", type=_COUNT, default=10)
    _add_common(bn, lam=True, model=True, threads=True)
    bn.set_defaults(fn=cmd_bench, snr=None)

    return ap


def main(argv=None):
    global _last_dataset
    _pin_blas_threads()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except _UsageError:
        return 1
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SolverError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        _last_dataset = None


if __name__ == "__main__":
    sys.exit(main())
