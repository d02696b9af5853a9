"""Record the reference output of every pool input into reference.json.

    python3 perfbench/record_reference.py [workload ...]

Run once, at the commit that defines the benchmark; later commits are checked
against what it wrote. Recording again moves the reference and is a change
to the benchmark, not to the program.
"""

import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS


def main(names):
    sys.path.insert(0, run.SRC)
    import sqreg.cli as cli

    workers = min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))
    reference = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    work = os.path.join(run.WORK, f"record-{os.getpid()}")
    os.makedirs(work)
    try:
        for name in names:
            wl = WORKLOADS[name](workers)
            run.setup(wl, cli, work, 1)
            runner = run.Runner(wl, cli, os.path.join(work, name), {})
            refs = {}
            for item in wl.items:
                _, refs[item["key"]], _ = runner.execute(item)
                print(name, item["key"], "exit", refs[item["key"]]["rc"], flush=True)
            reference[name] = refs
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(WORKLOADS)))
