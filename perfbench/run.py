"""Benchmark of the sqreg command line, end to end and layer by layer.

    python3 perfbench/run.py --workload anchor-fit --seed 1 --seconds 20 --trace 0

Runs one workload from the source tree next to this directory (``src/``),
closed loop from one process: each operation is one ``sqreg`` command, made
in-process through ``sqreg.cli.main``, and starts when the previous one
returns. Every operation's output is checked against ``reference.json``.

--trace 0 prints the end-to-end metrics. --trace 1 runs every operation
twice, untraced and with wrappers around each layer's calls, in alternating
order, and prints the per-layer metrics and the tracing overhead.

The line before the last holds every metric, quality figures and the
environment; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os
import sys

# one BLAS thread per process, set before numpy loads; pool workers inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import time
import traceback

from layers import layer_metrics, layer_totals, targets
from tracer import Installed, Tracer
from workloads import BETA_TOL, WORKLOADS, Capture

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPS = 3

# name, unit, better: the metrics printed with --trace 0 (see BENCHMARK.json)
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


class Op:
    __slots__ = ("item", "wall", "obs", "volatile", "dev", "reasons", "quality")


class Runner:
    """Runs operations of one workload and checks their outputs."""

    def __init__(self, workload, cli, work, reference):
        self.wl = workload
        self.cli = cli
        self.work = work
        self.reference = reference
        self.capture = Capture(os.path.join(work, "fits"))
        os.makedirs(self.capture.fit_dir)
        self.count = 0

    def execute(self, item, tracer=None, layer_targets=()):
        """One operation: (wall s, reference part, volatile part) of its output.
        With a tracer, the layer wrappers wrap the checks' pass-through
        wrappers, so that spans do not time those."""
        self.count += 1
        out = os.path.join(self.work, f"op-{self.count}.out")
        argv = self.wl.argv(item, out)
        self.capture.solves.clear()
        main = self.cli.main
        if tracer is not None:
            main = tracer.wrap(main, "cli.main")
            tracer.op = self.count
            root = len(tracer.spans)
        with Installed(layer_targets), Installed(self.wl.capture_targets(self.capture)):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # an op that raises is a failed op, not a crash
                rc = "raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.merge_workers(root)
            tracer.op = None
        obs, volatile = self.wl.observe(item, out, rc, self.capture)
        if os.path.exists(out):
            os.remove(out)
        return wall, obs, volatile

    def run_op(self, item, tracer=None, layer_targets=()):
        """One operation, checked against the reference."""
        op = Op()
        op.item = item
        op.wall, op.obs, op.volatile = self.execute(item, tracer, layer_targets)
        op.dev = self.wl.deviation(op.obs, self.reference[item["key"]])
        op.reasons = self.wl.failures(item, op.obs, op.dev)
        op.quality = self.wl.quality(item, op.obs, op.volatile)
        return op

    def run_for(self, schedule, seconds):
        """Operations for at least ``seconds``, in whole passes over the pool,
        so that every run weighs each input alike."""
        ops = []
        start = time.perf_counter()
        while len(ops) % len(schedule) or time.perf_counter() - start < seconds:
            ops.append(self.run_op(schedule[len(ops) % len(schedule)]))
        return ops

    def run_paired(self, schedule, seconds, tracer, layer_targets):
        """Each operation untraced and traced, in whole passes for at least
        ``seconds``. Which of the two goes first alternates from input to
        input and from pass to pass, so that warm-up and drift in the
        machine's speed fall on both sides alike. Returns (untraced, traced)."""
        plain, traced = [], []
        start = time.perf_counter()
        while len(plain) % len(schedule) or time.perf_counter() - start < seconds:
            k, m = len(plain) % len(schedule), len(plain) // len(schedule)
            traced_first = (k + m) % 2 == 1
            if traced_first:
                traced.append(self.run_op(schedule[k], tracer, layer_targets))
            plain.append(self.run_op(schedule[k]))
            if not traced_first:
                traced.append(self.run_op(schedule[k], tracer, layer_targets))
        return plain, traced


def setup(workload, cli, work, reps, layer_targets=()):
    """Make the inputs and warm up ``reps`` times; returns each wall time.
    ``layer_targets`` are installed while the inputs are made, not during
    the warm-up."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        with Installed(layer_targets):
            workload.setup(cli, work)
        for argv in workload.warmup_argv(work):
            rc = cli.main(argv)
            if rc not in (0, 2):
                raise RuntimeError(f"warm-up {argv[0]} exited {rc}")
        times.append(time.perf_counter() - t0)
    return times


def import_time():
    """Seconds a fresh interpreter takes to import sqreg's command line."""
    code = "import time; t = time.perf_counter(); import sqreg.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def tail(walls):
    """Highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return {"value": None, "unit": "s", "samples": n, "note": "fewer than 11 samples"}
    k = n - 11
    return {"value": sorted(walls)[k], "unit": "s", "percentile": round(100.0 * (k + 1) / n, 1),
            "samples": n, "beyond": n - 1 - k}


def rate(workload, ops):
    return workload.units_per_op * len(ops) / sum(op.wall for op in ops)


def summary(ops):
    """Correctness, failures and quality over all operations."""
    failed = [op for op in ops if op.reasons]
    devs = [op.dev for op in ops]
    quality = {}
    for op in ops:
        for k, v in op.quality.items():
            quality.setdefault(k, []).append(v)
    return {
        "correct": all(d <= BETA_TOL for d in devs),
        "attempted": len(ops),
        "failed": len(failed),
        "beta_dev_max": max(devs) if all(math.isfinite(d) for d in devs) else None,
        "quality": {k: sum(v) / len(v) for k, v in quality.items()},
        "failures": [{"input": op.item["key"], "reasons": op.reasons} for op in failed],
    }


def pool_figures(workload, ops):
    """In-worker fit time against wall, from the times tau-sweep prints."""
    pairs = [(op.wall, op.volatile["fit_s"]) for op in ops if "fit_s" in op.volatile]
    if not pairs:
        return {"pool_overhead_s": 0.0, "pool_efficiency": 0.0}
    w = workload.workers
    return {"pool_overhead_s": statistics.fmean(wall - fit / w for wall, fit in pairs),
            "pool_efficiency": statistics.fmean(fit / (w * wall) for wall, fit in pairs)}


def peak_rss_mb():
    """Peak RSS of this process plus the largest of its finished children."""
    ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (ru_self + ru_children) / 1024.0


def end_to_end(workload, ops, setup_s, peak, summ):
    walls = [op.wall for op in ops]
    q = summ["quality"]
    metrics = {
        "ops_per_s": {"value": rate(workload, ops), "unit": "1/s", "per": workload.unit},
        "op_s_p50": {"value": statistics.median(walls), "unit": "s", "samples": len(walls)},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
        "op_s_tail": tail(walls),
        "failed_ratio": {"value": summ["failed"] / summ["attempted"], "unit": "ratio"},
        "beta_dev_max": {"value": summ["beta_dev_max"], "unit": "abs"},
    }
    names = {"l2_error": ("l2_error_mean", "l2"), "fn": ("fn_mean", "count"),
             "fp": ("fp_mean", "count"), "p2": ("p2_rate", "ratio")}
    for key, (name, unit) in names.items():
        if key in q:
            metrics[name] = {"value": q[key], "unit": unit}
    return metrics


def environment(workers):
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "workers": workers, "python": sys.version.split()[0],
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        env["cpu"] = None
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    env["blas_threads"] = _openblas_threads(numpy)
    env["git_sha"] = git_sha()
    return env


def _openblas_threads(numpy):
    """Thread count reported by numpy's bundled OpenBLAS, if it exports one."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    """HEAD of the checkout, or None outside a git repository. Runs a child
    process, so call it after the peak RSS is read."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def write_spans(tracer, workload):
    path = os.path.join(WORK, f"spans-{workload}.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["name", "start", "end", "parent", "op"])
        out.writerows(tracer.spans)
    return path


def bindings(targets):
    return {(m, a): getattr(importlib.import_module(m), a, None) for m, a, _ in targets}


def run(args):
    sys.path.insert(0, SRC)
    import sqreg.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"sqreg imported from {cli.__file__}, not from {SRC}")

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    workers = min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))
    wl = WORKLOADS[args.workload](workers)
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(wl, cli, work, reference)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        if not args.trace:
            setup_times = setup(wl, cli, work, SETUP_REPS)
            ops = runner.run_for(wl.schedule(args.seed), args.seconds)
            peak = peak_rss_mb()
            # after the peak is read, so that these interpreters are not counted in it
            import_s = statistics.median(import_time() for _ in range(SETUP_REPS))
            summ = summary(ops)
            metrics = end_to_end(wl, ops, import_s + statistics.median(setup_times), peak, summ)
            detail["metrics"] = metrics
            result_metrics = {name: {"value": metrics[name]["value"], "unit": unit}
                              for name, unit, _ in END_TO_END}
        else:
            tracer = Tracer(worker_dir=os.path.join(work, "workers"))
            os.makedirs(tracer.worker_dir)
            layer_targets = targets(tracer)
            before = bindings(layer_targets)
            setup(wl, cli, work, 1, layer_targets)
            plain, traced = runner.run_paired(wl.schedule(args.seed), args.seconds, tracer, layer_targets)
            if bindings(layer_targets) != before:
                raise RuntimeError("traced run left wrappers installed")
            ops = plain + traced
            summ = summary(ops)
            gaps = [op.quality["obj_rel_gap"] for op in traced if "obj_rel_gap" in op.quality]
            extra = {"obj_rel_gap_max": max(gaps, default=0.0),
                     "ops_per_s_untraced": rate(wl, plain), "ops_per_s_traced": rate(wl, traced),
                     **pool_figures(wl, plain)}
            result_metrics = layer_metrics(tracer, len(traced), extra)
            detail["per_layer"] = result_metrics
            detail["self_s_per_op"] = {k: v[2] / len(traced) for k, v in sorted(layer_totals(tracer.spans).items())}
            detail["missing_wrappers"] = [f"{m}.{a}" for (m, a), fn in before.items() if fn is None]
            detail["spans"] = os.path.relpath(write_spans(tracer, args.workload), ROOT)
        detail.update({k: summ[k] for k in ("attempted", "failed", "beta_dev_max", "failures")})
        detail["ops"] = [[op.item["key"], op.wall] for op in ops]
        detail["correct"] = summ["correct"]
        detail["env"] = environment(workers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps({"correct": summ["correct"], "attempted": summ["attempted"],
                      "failed": summ["failed"], "metrics": result_metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sqreg", "cli.py")):
        sys.stderr.write(f"no sqreg source tree at {SRC}\n")
        return 2
    if not os.path.isfile(REFERENCE):
        sys.stderr.write(f"missing {REFERENCE}\n")
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
