"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --seeds 10 [--workload path ...]
                                 [--trace 0|1|both] [--traced-seeds 3]
                                 [--out perfbench/results/x.json]

Each run is a fresh ``run.py`` process with the run_seconds of BENCHMARK.json
and seeds 1..N, one after another. For every
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median against a third of the metric's bound
in BENCHMARK.json; for traced runs it prints the per-layer medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])
    detail["run_wall_s"] = time.perf_counter() - t0
    return detail, json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return {"median": values[0], "spread": None, "values": values}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    ap.add_argument("--traced-seeds", type=int, help="traced runs use only the first N seeds")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    report = {"seconds": bench["run_seconds"], "seeds": list(range(1, args.seeds + 1)),
              "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        entry = report["workloads"].setdefault(workload, {})
        for trace in traces:
            seeds = report["seeds"][:args.traced_seeds] if trace else report["seeds"]
            runs = [run_once(workload, s, bench["run_seconds"], trace) for s in seeds]
            report.setdefault("env", runs[0][0]["env"])
            entry[f"trace{trace}"] = {
                "seeds": seeds,
                "attempted": sum(r[1]["attempted"] for r in runs),
                "failed": sum(r[1]["failed"] for r in runs),
                "correct": all(r[1]["correct"] for r in runs),
                "run_wall_s": [r[0]["run_wall_s"] for r in runs],
                "failures": sorted({f["input"] + ": " + "; ".join(f["reasons"])
                                    for d, _ in runs for f in d["failures"]}),
            }
            key = "metrics" if trace == 0 else "per_layer"
            summary = {}
            for name in runs[0][0][key]:
                vals = [d[key][name]["value"] for d, _ in runs]
                if any(v is None for v in vals):
                    summary[name] = {"values": vals}
                    continue
                summary[name] = {"unit": runs[0][0][key][name]["unit"], **spread(vals)}
                line = f"{workload:11s} {name:38s} median {summary[name]['median']:.6g} {summary[name]['unit']}"
                if name in bounds and summary[name]["spread"] is not None:
                    summary[name]["bound"] = bounds[name]
                    line += f"  spread {summary[name]['spread']:.4f} (bound/3 {bounds[name] / 3:.4f})"
                print(line, flush=True)
            entry[f"trace{trace}"][key] = summary
            if trace:
                layers = sorted({k for d, _ in runs for k in d["self_s_per_op"]})
                entry["trace1"]["self_s_per_op_median"] = {
                    k: statistics.median(d["self_s_per_op"].get(k, 0.0) for d, _ in runs) for k in layers}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
