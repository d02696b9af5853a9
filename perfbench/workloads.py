"""The benchmark's workloads: input pools, operations and output checks.

Each workload has a fixed pool of inputs whose seeds run consecutively from
a base chosen before any result was seen (the acceptance tests' bases for
the paper settings). ``--seed`` only chooses the order in which a run visits
the pool, so every input has a reference output recorded at the commit that
defined the benchmark (``reference.json``). An operation is one call of the
``sqreg`` command line, made in-process through ``sqreg.cli.main``.
"""

import csv
import json
import math
import os
import random

STAGE_TOL = 1e-5  # MscraConfig.stage_tol: a converged fit must reach it
BETA_TOL = 1e-6   # largest allowed |beta - beta_ref| per coefficient
HETERO_P2 = (0, 5, 11, 14, 19)  # X1, X6, X12, X15, X20 (P2 of the Table-1 model)


def sparse(beta):
    """Nonzero coefficients as ``[[index, value], ...]``."""
    return [[int(i), float(v)] for i, v in enumerate(beta) if v != 0.0]


def max_dev(a, b):
    """Largest coefficient difference of two sparse vectors."""
    da, db = dict((int(i), v) for i, v in a), dict((int(i), v) for i, v in b)
    return max((abs(da.get(i, 0.0) - db.get(i, 0.0)) for i in da.keys() | db.keys()), default=0.0)


class Capture:
    """Keeps what the solvers return to ``sqreg.cli``, so that the checks see
    coefficients and convergence flags the command's output omits.

    ``solves`` holds the single solves of ``lambda-sweep``. The fits of
    ``tau-sweep`` run in pool workers, forked while the wrappers are
    installed: each worker appends ``[tau, seed, beta]`` per fit to a file of
    its own in ``fit_dir``, and ``take_fits`` collects them. The seed is the
    one of the dataset ``generate`` made just before the fit.
    """

    def __init__(self, fit_dir):
        self.solves = []
        self.fit_dir = fit_dir
        self._seed = None

    def solver_targets(self):
        def factory(solver):
            def make(fn):
                def captured(*args, **kwargs):
                    state, report = fn(*args, **kwargs)
                    self.solves.append((solver, state, report))
                    return state, report
                return captured
            return make
        return [("sqreg.cli", "ppa_solve", factory("pdsn")),
                ("sqreg.cli", "admm_solve", factory("admm"))]

    def fit_targets(self):
        def seeded(fn):
            def captured(spec):
                self._seed = spec.seed
                return fn(spec)
            return captured

        def fitted(fn):
            def captured(problem, cfg, *args, **kwargs):
                final, history = fn(problem, cfg, *args, **kwargs)
                path = os.path.join(self.fit_dir, f"fits-{os.getpid()}.jsonl")
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps([cfg.tau, self._seed, sparse(final.beta)]) + "\n")
                return final, history
            return captured

        return [("sqreg.cli", "generate", seeded), ("sqreg.cli", "mscra_fit", fitted)]

    def take_fits(self):
        """Read and delete the workers' fit files; fits sorted by (tau, seed)."""
        fits = []
        for fname in os.listdir(self.fit_dir):
            path = os.path.join(self.fit_dir, fname)
            with open(path, encoding="utf-8") as fh:
                fits += [json.loads(line) for line in fh]
            os.remove(path)
        return sorted(fits, key=lambda f: (f[0], f[1]))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Base: subclasses define the pool, the command and the checks."""

    name = ""
    units_per_op = 1      # fits (or lambda points) per operation
    unit = "fits"

    def __init__(self, workers):
        self.workers = workers
        self.items = []

    def schedule(self, seed):
        """The pool in the order run ``seed`` visits it (then cyclically)."""
        order = list(self.items)
        random.Random(seed).shuffle(order)
        return order

    def capture_targets(self, capture):
        """Pass-through wrappers the checks need, installed around each operation."""
        return []

    def setup(self, cli, work):
        """Make the pool's inputs in ``work``; fills ``self.items``."""
        raise NotImplementedError

    def warmup_argv(self, work):
        raise NotImplementedError

    def argv(self, item, out):
        raise NotImplementedError

    def observe(self, item, out, rc, capture):
        """(reference part, volatile part) of one operation's output."""
        raise NotImplementedError

    def deviation(self, obs, ref):
        """Largest coefficient deviation from the reference; inf when the
        output's shape differs from it."""
        raise NotImplementedError

    def failures(self, item, obs, dev):
        reasons = []
        if obs["rc"] != 0:
            reasons.append(f"exit {obs['rc']}")
        if dev > BETA_TOL:
            reasons.append(f"deviates from reference by {dev:.3g}")
        return reasons

    def quality(self, item, obs, volatile):
        return {}


class FitWorkload(Workload):
    """``sqreg fit`` on CSV files written by ``sqreg datagen`` during set-up."""

    seed_base = 0
    pool_size = 0
    datagen = ()       # datagen flags besides --seed/--out
    fit_flags = ()
    gamma = None       # None: the fit command's default penalty level

    def setup(self, cli, work):
        from sqreg.datagen import SyntheticSpec, generate
        from sqreg.mscra import lambda_grid

        flags = dict(zip(self.datagen[::2], self.datagen[1::2]))
        self.items = []
        for i in range(self.pool_size):
            seed = self.seed_base + i
            stem = os.path.join(work, f"{self.name}-{seed}")
            rc = cli.main(["datagen", *self.datagen, "--seed", str(seed), "--out", stem])
            if rc != 0:
                raise RuntimeError(f"datagen exited {rc} for seed {seed}")
            item = {"key": str(seed), "csv": stem + ".csv", "truth": _read_json(stem + ".json")}
            if self.gamma is not None:
                spec = SyntheticSpec(n=int(flags["--n"]), p=int(flags["--p"]),
                                     beta_pattern=flags["--pattern"], noise=flags["--noise"],
                                     noise_var=float(flags["--noise-var"]), seed=seed)
                lam = float(lambda_grid(generate(spec).problem, self.gamma, self.gamma, 1)[0])
                item["lambda"] = repr(lam)
            self.items.append(item)

    def warmup_argv(self, work):
        stem = os.path.join(work, "warmup")
        return [["datagen", "--n", "40", "--p", "30", "--seed", "1", "--out", stem],
                ["fit", stem + ".csv", "--out", stem + ".fit.json"]]

    def argv(self, item, out):
        lam = ["--lambda", item["lambda"]] if "lambda" in item else []
        return ["fit", item["csv"], *lam, *self.fit_flags, "--out", out]

    def observe(self, item, out, rc, capture):
        if rc not in (0, 2) or not os.path.exists(out):
            return {"rc": rc}, {}
        rep = _read_json(out)
        obs = {"rc": rc, "beta": rep["beta"], "converged": rep["converged"],
               "err_k": rep["err_k"], "stop_reason": rep["stop_reason"]}
        return obs, {}

    def deviation(self, obs, ref):
        if "beta" not in obs or "beta" not in ref:
            return math.inf
        return max_dev(obs["beta"], ref["beta"])

    def failures(self, item, obs, dev):
        reasons = super().failures(item, obs, dev)
        if obs.get("converged") and obs["err_k"] > STAGE_TOL:
            reasons.append(f"reports converged with err_k {obs['err_k']:.3g} > {STAGE_TOL}")
        return reasons


class AnchorFit(FitWorkload):
    """The paper's synthetic anchor: fixed16, n=200, p=1000, N(0,2), gamma=0.116."""

    name = "anchor-fit"
    seed_base = 777000  # the anchor criterion's master seed
    pool_size = 8
    datagen = ("--n", "200", "--p", "1000", "--pattern", "fixed16",
               "--noise", "normal", "--noise-var", "2")
    gamma = 0.116

    def quality(self, item, obs, volatile):
        if "beta" not in obs:
            return {}
        est = {int(i): v for i, v in obs["beta"]}
        true = {int(i): v for i, v in item["truth"]["beta_true"]}
        support = set(item["truth"]["support"])
        l2 = math.sqrt(sum((est.get(i, 0.0) - true.get(i, 0.0)) ** 2 for i in est.keys() | true.keys()))
        return {"l2_error": l2, "fn": len(support - est.keys()), "fp": len(est.keys() - support)}


class HeteroFit(FitWorkload):
    """The Table-1 heteroscedastic model: n=400, p=300, tau=0.3, default lambda."""

    name = "hetero-fit"
    seed_base = 20240500  # the identification criterion's master seed
    pool_size = 3
    datagen = ("--n", "400", "--p", "300", "--pattern", "hetero",
               "--noise", "normal", "--noise-var", "1")
    fit_flags = ("--tau", "0.3")

    def quality(self, item, obs, volatile):
        if "beta" not in obs:
            return {}
        selected = {int(i) for i, _ in obs["beta"]}
        return {"p2": 1.0 if set(HETERO_P2) <= selected else 0.0}


class Path(Workload):
    """``sqreg lambda-sweep --solvers pdsn,admm`` on the solver-comparison model.

    The 20-point gamma grid 0.02..0.25 is split into four interleaved 5-point
    grids (offset o holds points o, o+4, ..., o+16), so every operation spans
    the whole penalty range and can carry a warm start down its grid.
    """

    name = "path"
    unit = "lambda points"
    units_per_op = 5
    seeds = (4100,)  # the cross-solver criterion's base seed
    offsets = 4

    def capture_targets(self, capture):
        return capture.solver_targets()

    def setup(self, cli, work):
        step = (0.25 - 0.02) / 19
        self.items = [{"key": f"{seed}:{o}", "seed": seed,
                       "gamma_min": repr(0.02 + o * step), "gamma_max": repr(0.02 + (o + 16) * step)}
                      for seed in self.seeds for o in range(self.offsets)]

    def warmup_argv(self, work):
        return [["lambda-sweep", "--n", "40", "--p", "30", "--count", "2",
                 "--out", os.path.join(work, "warmup.csv")]]

    def argv(self, item, out):
        return ["lambda-sweep", "--n", "200", "--p", "500", "--pattern", "alternating-decay",
                "--cov", "identity", "--noise", "normal", "--noise-var", "1", "--snr", "3",
                "--gamma-min", item["gamma_min"], "--gamma-max", item["gamma_max"],
                "--count", str(self.units_per_op), "--solvers", "pdsn,admm",
                "--tau", "0.5", "--seed", str(item["seed"]), "--out", out]

    def observe(self, item, out, rc, capture):
        solves = [[solver, bool(report.converged), int(report.iterations),
                   float(report.objective), sparse(state.beta)]
                  for solver, state, report in capture.solves]
        if rc != 0 or not os.path.exists(out):
            return {"rc": rc, "solves": solves}, {}
        rows = [[float(r["lambda"]), r["solver"], float(r["objective"]), int(r["nnz"])]
                for r in _read_csv(out)]
        return {"rc": rc, "rows": rows, "solves": solves}, {}

    def deviation(self, obs, ref):
        a, b = obs.get("solves", []), ref.get("solves", [])
        if len(a) != len(b) or any(x[0] != y[0] for x, y in zip(a, b)):
            return math.inf
        return max((max_dev(x[4], y[4]) for x, y in zip(a, b)), default=0.0)

    def failures(self, item, obs, dev):
        reasons = super().failures(item, obs, dev)
        for solver, converged, _, obj, _ in obs.get("solves", []):
            if solver == "pdsn" and not converged:
                reasons.append(f"pdsn reports non-convergence (objective {obj!r})")
        return reasons

    def quality(self, item, obs, volatile):
        by_lam = {}
        for lam, solver, obj, _ in obs.get("rows", []):
            by_lam.setdefault(lam, {})[solver] = obj
        gaps = [(d["admm"] - d["pdsn"]) / max(abs(d["pdsn"]), 1e-300)
                for d in by_lam.values() if "admm" in d and "pdsn" in d]
        return {"obj_rel_gap": max(gaps, default=0.0)}


class Pooled(Workload):
    """``sqreg tau-sweep`` at its defaults over a process pool of nproc workers.

    The output holds per-tau means of l2 error and in-worker fit time, not
    coefficients. The check compares the l2 errors and, per (tau, seed), the
    coefficients each worker's fit returned (see ``Capture``).
    """

    name = "pooled"
    seed_base = 0  # the command's default seed
    pool_size = 4
    taus = 19
    reps = 10
    units_per_op = taus * reps

    def capture_targets(self, capture):
        return capture.fit_targets()

    def setup(self, cli, work):
        self.items = [{"key": str(s), "seed": s} for s in range(self.seed_base, self.seed_base + self.pool_size)]

    def warmup_argv(self, work):
        return [["tau-sweep", "--n", "30", "--p", "20", "--tau-min", "0.4", "--tau-max", "0.6",
                 "--tau-step", "0.1", "--reps", "2", "--threads", str(self.workers),
                 "--out", os.path.join(work, "warmup.csv")]]

    def argv(self, item, out):
        return ["tau-sweep", "--n", "100", "--p", "300", "--pattern", "random-support",
                "--cov", "cs:0.6", "--noise", "laplace", "--noise-var", "1",
                "--tau-min", "0.05", "--tau-max", "0.95", "--tau-step", "0.05",
                "--reps", str(self.reps), "--threads", str(self.workers),
                "--seed", str(item["seed"]), "--out", out]

    def observe(self, item, out, rc, capture):
        fits = capture.take_fits()
        if rc != 0 or not os.path.exists(out):
            return {"rc": rc, "fits": fits}, {}
        rows = _read_csv(out)
        obs = {"rc": rc, "rows": [[float(r["tau"]), float(r["l2_error"])] for r in rows], "fits": fits}
        return obs, {"fit_s": sum(float(r["wall_ms"]) for r in rows) * self.reps / 1e3}

    def deviation(self, obs, ref):
        a, b = obs.get("rows", []), ref.get("rows", [])
        fa, fb = obs.get("fits", []), ref.get("fits", [])
        if (len(a) != len(b) or any(abs(x[0] - y[0]) > 1e-12 for x, y in zip(a, b))
                or len(fa) != len(fb) or any(x[:2] != y[:2] for x, y in zip(fa, fb))):
            return math.inf
        return max([abs(x[1] - y[1]) for x, y in zip(a, b)]
                   + [max_dev(x[2], y[2]) for x, y in zip(fa, fb)], default=0.0)

    def quality(self, item, obs, volatile):
        rows = obs.get("rows")
        return {"l2_error": sum(r[1] for r in rows) / len(rows)} if rows else {}


WORKLOADS = {w.name: w for w in (AnchorFit, HeteroFit, Path, Pooled)}
