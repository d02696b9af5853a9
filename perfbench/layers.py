"""Wrappers of the traced run and the per-layer metrics computed from them.

Layers are sqreg's modules. Each wrapper rebinds the name in the module that
calls it; ``surrogate`` and ``report`` are per-stage O(p) arithmetic and
record building and are not timed. Counts are read from the objects the
solvers return (``SolverReport``, ``StageState``).
"""

import importlib
import os

from tracer import self_times

PROX_FUNCS = ("prox_check_loss", "prox_weighted_l1", "moreau_env_check_loss",
              "moreau_env_weighted_l1", "clarke_jacobian_check_loss_prox",
              "clarke_jacobian_weighted_l1_prox")

# name, unit, better; every metric is reported for every workload (0 where the
# layer is not used). Times and counts are per operation unless named a ratio.
PER_LAYER = [
    ("cli.main.s", "s", "lower"),                  # traced wall of one operation
    ("cli.self_s", "s", "lower"),                  # cli.main minus its layer children
    ("cli.pool_overhead_s", "s", "lower"),         # wall - sum(in-worker fit time)/workers
    ("cli.pool_efficiency", "ratio", "higher"),    # sum(in-worker fit time)/(workers*wall)
    ("problem.load_csv.s", "s", "lower"),
    ("problem.load_csv.mb_per_s", "MB/s", "higher"),
    ("problem.matrix_norms.calls", "count", "lower"),
    ("problem.matrix_norms.s", "s", "lower"),
    ("datagen.generate.s", "s", "lower"),          # per set-up call (warm-up not traced)
    ("datagen.generate.op_s", "s", "lower"),       # datasets made inside operations
    ("mscra.mscra_fit.self_s", "s", "lower"),
    ("mscra.stages", "count", "lower"),
    ("mscra.stage_kkt_residual.s", "s", "lower"),
    ("mscra.stop.stable_nnz_and_kkt", "count", "higher"),
    ("mscra.stop.stable_nnz_and_err_change", "count", "lower"),
    ("mscra.stop.max_stages", "count", "lower"),
    ("pdsn.ppa_solve.calls", "count", "lower"),
    ("pdsn.ppa_solve.self_s", "s", "lower"),
    ("pdsn.ppa_iters", "count", "lower"),
    ("pdsn.newton_iters", "count", "lower"),
    ("pdsn.newton_per_ppa", "ratio", "lower"),
    ("pdsn.unconverged", "count", "lower"),
    ("pdsn.rejected_steps", "ratio", "lower"),     # rejected / attempted PPA steps
    ("pdsn.linesearch_fallbacks", "count", "lower"),
    ("pdsn.kkt_residual.s", "s", "lower"),
    ("prox.calls", "count", "lower"),
    ("prox.s", "s", "lower"),
    ("admm.admm_solve.calls", "count", "lower"),
    ("admm.admm_solve.self_s", "s", "lower"),
    ("admm.iters", "count", "lower"),
    ("admm.cap_hits", "count", "lower"),
    ("admm.obj_rel_gap_max", "ratio", "lower"),    # (admm - pdsn) / |pdsn| objective
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),          # untraced / traced ops_per_s - 1
]


def _on_ppa(tracer, result, args, kwargs):
    _, report = result
    warnings = report.warnings
    tracer.count("pdsn.ppa_iters", report.iterations)
    tracer.count("pdsn.newton_iters", report.inner_iterations)
    tracer.count("pdsn.unconverged", 0 if report.converged else 1)
    tracer.count("pdsn.rejected", sum("rejected" in w for w in warnings))
    tracer.count("pdsn.linesearch_fallbacks", sum(w.startswith("line search") for w in warnings))


def _on_admm(tracer, result, args, kwargs):
    _, report = result
    tracer.count("admm.iters", report.iterations)
    tracer.count("admm.cap_hits", 0 if report.converged else 1)


def _on_mscra(tracer, result, args, kwargs):
    final, history = result
    tracer.count("mscra.stages", len(history))
    tracer.count("mscra.stop." + final.stop_reason)


def _on_load_csv(tracer, result, args, kwargs):
    tracer.count("problem.load_csv.bytes", os.path.getsize(args[0] if args else kwargs["path"]))


def targets(tracer):
    """(module, attr, wrapper factory) for every traced call site."""

    def at(module, attr, name, on_result=None):
        return (module, attr, lambda fn: tracer.wrap(fn, name, on_result))

    out = [
        at("sqreg.cli", "load_csv", "problem.load_csv", _on_load_csv),
        at("sqreg.cli", "generate", "datagen.generate"),
        at("sqreg.cli", "mscra_fit", "mscra.mscra_fit", _on_mscra),
        at("sqreg.cli", "ppa_solve", "pdsn.ppa_solve", _on_ppa),
        at("sqreg.cli", "admm_solve", "admm.admm_solve", _on_admm),
        at("sqreg.mscra", "ppa_solve", "pdsn.ppa_solve", _on_ppa),
        at("sqreg.mscra", "admm_solve", "admm.admm_solve", _on_admm),
        at("sqreg.mscra", "stage_kkt_residual", "mscra.stage_kkt_residual"),
        at("sqreg.mscra", "matrix_norms", "problem.matrix_norms"),
        at("sqreg.admm", "matrix_norms", "problem.matrix_norms"),
        at("sqreg.pdsn", "kkt_residual", "pdsn.kkt_residual"),
    ]
    for module in ("sqreg.pdsn", "sqreg.admm", "sqreg.mscra"):
        mod = importlib.import_module(module)
        out += [at(module, f, "prox." + f) for f in PROX_FUNCS if hasattr(mod, f)]
    return out


def layer_totals(spans):
    """Per layer: (calls, total s, self s) over spans that belong to an operation."""
    totals = {}
    for (name, t0, t1, _, op), own in zip(spans, self_times(spans)):
        if op is None:
            continue
        key = "prox" if name.startswith("prox.") else name
        calls, total, self_s = totals.get(key, (0, 0.0, 0.0))
        totals[key] = (calls + 1, total + (t1 - t0), self_s + own)
    return totals


def layer_metrics(tracer, ops, extra):
    """The PER_LAYER values of a traced run of ``ops`` operations.

    ``extra`` holds the values measured outside the spans: the pool figures,
    the admm/pdsn objective gap and the untraced/traced rates.
    """
    totals = layer_totals(tracer.spans)
    counts = tracer.counts

    def calls(key):
        return totals.get(key, (0, 0.0, 0.0))[0] / ops

    def total(key):
        return totals.get(key, (0, 0.0, 0.0))[1] / ops

    def own(key):
        return totals.get(key, (0, 0.0, 0.0))[2] / ops

    def count(key):
        return counts.get(key, 0) / ops

    gen = [t1 - t0 for name, t0, t1, _, op in tracer.spans if name == "datagen.generate" and op is None]
    csv_s = totals.get("problem.load_csv", (0, 0.0, 0.0))[1]
    ppa = counts.get("pdsn.ppa_iters", 0)
    values = {
        "cli.main.s": total("cli.main"),
        "cli.self_s": own("cli.main"),
        "cli.pool_overhead_s": extra["pool_overhead_s"],
        "cli.pool_efficiency": extra["pool_efficiency"],
        "problem.load_csv.s": total("problem.load_csv"),
        "problem.load_csv.mb_per_s": counts.get("problem.load_csv.bytes", 0) / 1e6 / csv_s if csv_s else 0.0,
        "problem.matrix_norms.calls": calls("problem.matrix_norms"),
        "problem.matrix_norms.s": total("problem.matrix_norms"),
        "datagen.generate.s": sum(gen) / len(gen) if gen else 0.0,
        "datagen.generate.op_s": total("datagen.generate"),
        "mscra.mscra_fit.self_s": own("mscra.mscra_fit"),
        "mscra.stages": count("mscra.stages"),
        "mscra.stage_kkt_residual.s": total("mscra.stage_kkt_residual"),
        "mscra.stop.stable_nnz_and_kkt": count("mscra.stop.stable_nnz_and_kkt"),
        "mscra.stop.stable_nnz_and_err_change": count("mscra.stop.stable_nnz_and_err_change"),
        "mscra.stop.max_stages": count("mscra.stop.max_stages"),
        "pdsn.ppa_solve.calls": calls("pdsn.ppa_solve"),
        "pdsn.ppa_solve.self_s": own("pdsn.ppa_solve"),
        "pdsn.ppa_iters": count("pdsn.ppa_iters"),
        "pdsn.newton_iters": count("pdsn.newton_iters"),
        "pdsn.newton_per_ppa": counts.get("pdsn.newton_iters", 0) / ppa if ppa else 0.0,
        "pdsn.unconverged": count("pdsn.unconverged"),
        "pdsn.rejected_steps": counts.get("pdsn.rejected", 0) / ppa if ppa else 0.0,
        "pdsn.linesearch_fallbacks": count("pdsn.linesearch_fallbacks"),
        "pdsn.kkt_residual.s": total("pdsn.kkt_residual"),
        "prox.calls": calls("prox"),
        "prox.s": total("prox"),
        "admm.admm_solve.calls": calls("admm.admm_solve"),
        "admm.admm_solve.self_s": own("admm.admm_solve"),
        "admm.iters": count("admm.iters"),
        "admm.cap_hits": count("admm.cap_hits"),
        "admm.obj_rel_gap_max": extra["obj_rel_gap_max"],
        "trace.ops_per_s_untraced": extra["ops_per_s_untraced"],
        "trace.ops_per_s_traced": extra["ops_per_s_traced"],
        "trace.overhead": extra["ops_per_s_untraced"] / extra["ops_per_s_traced"] - 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
