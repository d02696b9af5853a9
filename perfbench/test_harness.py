"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import run  # noqa: E402
from layers import PER_LAYER, layer_metrics, layer_totals, targets  # noqa: E402
from tracer import Installed, Tracer, covered, self_times  # noqa: E402
from workloads import BETA_TOL, STAGE_TOL, AnchorFit, Capture, Path, Pooled  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_on_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, None, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("b", 3.0, 6.0, 0, 1),    # overlaps a, as parallel workers do
        ("a.child", 2.0, 3.0, 1, 1),
        ("late", 9.5, 12.0, 0, 1),  # runs past its parent: only 0.5 s is covered
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 0.5, 2.0, 3.0, 1.0, 2.5])
    assert covered([(1.0, 2.0), (1.5, 3.0), (5.0, 6.0)], 0.0, 5.5) == pytest.approx(2.5)
    totals = layer_totals(spans + [("prox.prox_check_loss", 4.0, 5.0, None, None)])
    assert totals["a"] == (1, 3.0, 2.0)
    assert "prox" not in totals  # spans outside operations are not counted


def test_wrappers_record_and_restore_bindings(tmp_path):
    import sqreg.cli as cli

    tracer = Tracer(worker_dir=str(tmp_path / "workers"))
    os.makedirs(tracer.worker_dir)
    tg = targets(tracer)
    before = run.bindings(tg)
    stem = str(tmp_path / "d")
    with Installed(tg) as inst:
        assert run.bindings(tg) != before
        tracer.op = 1
        assert cli.main(["datagen", "--n", "30", "--p", "20", "--seed", "3", "--out", stem]) == 0
        cli.main(["fit", stem + ".csv", "--out", stem + ".fit.json"])
        tracer.op = None
    assert run.bindings(tg) == before
    assert inst.missing == []
    names = {s[0] for s in tracer.spans}
    assert {"datagen.generate", "problem.load_csv", "mscra.mscra_fit", "pdsn.ppa_solve",
            "mscra.stage_kkt_residual", "pdsn.kkt_residual"} <= names
    assert any(n.startswith("prox.") for n in names)
    assert tracer.counts["pdsn.ppa_iters"] > 0


def test_wrappers_restored_when_the_body_raises():
    import sqreg.mscra as mscra

    original = mscra.ppa_solve
    with pytest.raises(KeyError):
        with Installed(targets(Tracer())):
            assert mscra.ppa_solve is not original
            raise KeyError("boom")
    assert mscra.ppa_solve is original


def test_pool_worker_spans_are_merged(tmp_path):
    import sqreg.cli as cli

    tracer = Tracer(worker_dir=str(tmp_path / "workers"))
    os.makedirs(tracer.worker_dir)
    with Installed(targets(tracer)):
        root_fn = tracer.wrap(cli.main, "cli.main")
        tracer.op = 7
        root = len(tracer.spans)
        rc = root_fn(["tau-sweep", "--n", "30", "--p", "20", "--tau-min", "0.4", "--tau-max", "0.6",
                      "--tau-step", "0.1", "--reps", "2", "--threads", "2",
                      "--out", str(tmp_path / "t.csv")])
        tracer.merge_workers(root)
        tracer.op = None
    assert rc == 0
    fits = [s for s in tracer.spans if s[0] == "mscra.mscra_fit"]
    assert len(fits) == 3 * 2
    assert all(s[4] == 7 for s in fits)
    worker_roots = [s for s in tracer.spans if s[3] == root]
    assert worker_roots and all(tracer.spans[root][1] <= s[1] for s in worker_roots)
    assert tracer.counts["mscra.stages"] >= 6
    assert os.listdir(tracer.worker_dir) == []


def test_pooled_capture_collects_every_worker_fit(tmp_path):
    import sqreg.cli as cli

    capture = Capture(str(tmp_path / "fits"))
    os.makedirs(capture.fit_dir)
    wl = Pooled(2)
    with Installed(wl.capture_targets(capture)):
        rc = cli.main(["tau-sweep", "--n", "30", "--p", "20", "--tau-min", "0.4", "--tau-max", "0.6",
                       "--tau-step", "0.1", "--reps", "2", "--seed", "5", "--threads", "2",
                       "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    fits = capture.take_fits()
    assert [f[:2] for f in fits] == [[t, s] for t in (0.4, 0.5, 0.6) for s in (4, 5)]
    assert os.listdir(capture.fit_dir) == []


def test_checker_flags_perturbed_pooled_fit():
    wl = Pooled(1)
    ref = {"rc": 0, "rows": [[0.5, 1.0]], "fits": [[0.5, 0, []], [0.5, 1, [[3, 0.25]]]]}
    assert wl.deviation(ref, ref) == 0.0
    moved = {"rc": 0, "rows": [[0.5, 1.0]], "fits": [[0.5, 0, [[7, 1e-3]]], [0.5, 1, [[3, 0.25]]]]}
    assert wl.deviation(moved, ref) == pytest.approx(1e-3)
    assert any("deviates" in r for r in wl.failures({}, moved, wl.deviation(moved, ref)))
    lost = {"rc": 0, "rows": [[0.5, 1.0]], "fits": ref["fits"][:1]}
    assert wl.deviation(lost, ref) == float("inf")


def test_paired_run_alternates_which_side_goes_first(tmp_path, monkeypatch):
    sides = []
    clock = iter(range(100))
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))

    class FakeRunner(run.Runner):
        def run_op(self, item, tracer=None, layer_targets=()):
            sides.append((item, tracer is not None))
            return item

    runner = FakeRunner(AnchorFit(1), None, str(tmp_path), {})
    plain, traced = runner.run_paired(["a", "b", "c"], 2.5, Tracer(), ())  # the clock allows two passes
    assert plain == traced == ["a", "b", "c"] * 2
    assert sides == [("a", False), ("a", True), ("b", True), ("b", False), ("c", False), ("c", True),
                     ("a", True), ("a", False), ("b", False), ("b", True), ("c", True), ("c", False)]


def test_generate_per_call_counts_set_up_spans_only():
    tracer = Tracer()
    tracer.spans = [("datagen.generate", 0.0, 2.0, None, None),
                    ("cli.main", 10.0, 20.0, None, 1),
                    ("datagen.generate", 11.0, 16.0, 1, 1)]
    extra = {"obj_rel_gap_max": 0.0, "pool_overhead_s": 0.0, "pool_efficiency": 0.0,
             "ops_per_s_untraced": 1.0, "ops_per_s_traced": 1.0}
    per_layer = layer_metrics(tracer, 1, extra)
    assert per_layer["datagen.generate.s"]["value"] == 2.0
    assert per_layer["datagen.generate.op_s"]["value"] == 5.0


def _fit_obs(beta, converged=True, err_k=1e-9, rc=0):
    return {"rc": rc, "beta": beta, "converged": converged, "err_k": err_k,
            "stop_reason": "stable_nnz_and_kkt" if converged else "max_stages"}


def test_checker_flags_perturbed_beta():
    wl = AnchorFit(1)
    ref = _fit_obs([[0, 2.0], [2, 1.5]])
    same = _fit_obs([[0, 2.0], [2, 1.5]])
    assert wl.deviation(same, ref) == 0.0
    assert wl.failures({}, same, 0.0) == []
    moved = _fit_obs([[0, 2.0 + 3 * BETA_TOL], [2, 1.5]])
    dev = wl.deviation(moved, ref)
    assert dev > BETA_TOL
    assert any("deviates" in r for r in wl.failures({}, moved, dev))
    extra = _fit_obs([[0, 2.0], [2, 1.5], [9, 1e-3]])  # a coefficient the reference lacks
    assert wl.deviation(extra, ref) == pytest.approx(1e-3)
    assert wl.deviation({"rc": 1}, ref) == float("inf")


def test_checker_flags_converged_fit_above_stage_tol():
    wl = AnchorFit(1)
    obs = _fit_obs([[0, 1.0]], converged=True, err_k=4e-5)
    assert 4e-5 > STAGE_TOL
    assert any("converged with err_k" in r for r in wl.failures({}, obs, 0.0))
    stalled = _fit_obs([[0, 1.0]], converged=False, err_k=4e-5, rc=2)
    assert wl.failures({}, stalled, 0.0) == ["exit 2"]


def test_checker_flags_unconverged_pdsn_on_path():
    wl = Path(1)
    solves = [["pdsn", False, 100, 0.5, [[0, 1.0]]], ["admm", False, 3000, 0.5, [[0, 1.0]]]]
    obs = {"rc": 0, "rows": [], "solves": solves}
    assert wl.deviation(obs, {"solves": solves}) == 0.0
    reasons = wl.failures({}, obs, 0.0)
    assert len(reasons) == 1 and "pdsn reports non-convergence" in reasons[0]


def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert e2e == run.END_TO_END
    assert per_layer == PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
    names = [n for n, _, _ in e2e + per_layer] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


def _op(wall, quality):
    op = run.Op()
    op.item, op.wall, op.obs, op.volatile = {"key": "k"}, wall, {}, {}
    op.dev, op.reasons, op.quality = 0.0, [], quality
    return op


def test_printed_metric_names_are_valid():
    ops = [_op(1.0 + i / 10, {"l2_error": 0.5, "fn": 1, "fp": 0, "p2": 1.0}) for i in range(12)]
    e2e = run.end_to_end(AnchorFit(1), ops, 1.0, 100.0, run.summary(ops))
    assert [n for n, _, _ in run.END_TO_END] == list(e2e)[:len(run.END_TO_END)]
    extra = {"obj_rel_gap_max": 0.0, "pool_overhead_s": 0.0, "pool_efficiency": 0.0,
             "ops_per_s_untraced": 2.0, "ops_per_s_traced": 1.0}
    per_layer = layer_metrics(Tracer(), 1, extra)
    assert list(per_layer) == [n for n, _, _ in PER_LAYER]
    assert per_layer["trace.overhead"]["value"] == 1.0
    assert all(NAME.match(n) for n in list(e2e) + list(per_layer))


def test_reference_covers_every_pool_input():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    for name, cls in run.WORKLOADS.items():
        wl = cls(1)
        if name in ("path", "pooled"):
            wl.setup(None, None)
            keys = {item["key"] for item in wl.items}
        else:
            keys = {str(wl.seed_base + i) for i in range(wl.pool_size)}
        assert set(reference[name]) == keys, name


def test_tail_percentile():
    assert run.tail([1.0] * 10)["value"] is None
    t = run.tail([float(i) for i in range(20)])
    assert t["value"] == 9.0 and t["beyond"] == 10 and t["samples"] == 20
