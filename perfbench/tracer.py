"""Spans recorded around calls into sqreg's layers, from outside the package.

A wrapper is installed by rebinding a name in the module that calls it
(``sqreg.mscra.ppa_solve`` is the ``ppa_solve`` that ``mscra_fit`` calls), so
the package itself is unchanged. Spans stay in memory as tuples
``(name, start, end, parent, op)`` and are written out when the run ends.

Pool workers forked while wrappers are installed inherit them. A worker
appends its finished top-level spans to a JSON-lines file per process, which
the parent merges after each operation.
"""

import functools
import importlib
import json
import os
import time


class Tracer:
    """Span recorder. ``op`` tags every span with the operation that caused it."""

    def __init__(self, worker_dir=None):
        self.spans = []
        self.op = None
        self.worker_dir = worker_dir
        self._stack = []
        self._pid = os.getpid()
        self._flushed = 0
        self.counts = {}

    def count(self, key, value=1):
        # counts belong to operations; set-up calls are not counted
        if self.op is not None:
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name, on_result=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_result(tracer, result, args, kwargs)`` runs after the span closes,
        outside the timed interval, to read counts from the returned objects.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                self._enter_worker()
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.op)
            if on_result is not None:
                on_result(self, result, args, kwargs)
            if not self._stack and self._is_worker:
                self._flush_worker()
            return result

        return traced

    # --- pool workers -------------------------------------------------------

    _is_worker = False

    def _enter_worker(self):
        # first traced call in a forked worker: drop the parent's copy
        self._pid = os.getpid()
        self._is_worker = True
        self.spans = []
        self._stack = []
        self._flushed = 0
        self.counts = {}

    def _flush_worker(self):
        if self.worker_dir is None:
            return
        base = self._flushed
        # parents become indices into this batch; a batch is one call tree
        batch = [(name, t0, t1, None if par is None else par - base, op)
                 for name, t0, t1, par, op in self.spans[base:]]
        path = os.path.join(self.worker_dir, f"worker-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": batch, "counts": self.counts}) + "\n")
        self._flushed = len(self.spans)
        self.counts = {}

    def merge_workers(self, parent):
        """Read and delete the worker span files; worker root spans get
        ``parent`` (an index into ``self.spans``) as their parent."""
        if self.worker_dir is None or not os.path.isdir(self.worker_dir):
            return
        for fname in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, fname)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            os.remove(path)
            for line in lines:
                rec = json.loads(line)
                base = len(self.spans)
                for name, t0, t1, par, _ in rec["spans"]:
                    self.spans.append((name, t0, t1, parent if par is None else base + par, self.op))
                for key, value in rec["counts"].items():
                    self.count(key, value)


class Installed:
    """Context manager rebinding ``module.attr`` names to wrappers.

    ``targets`` is a list of ``(module_name, attr, wrapper_factory)``; a name
    the module does not have is skipped and listed in ``missing``. On exit
    every original binding is restored, in reverse order.
    """

    def __init__(self, targets):
        self.targets = targets
        self.saved = []
        self.missing = []

    def __enter__(self):
        for module_name, attr, factory in self.targets:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            setattr(module, attr, factory(original))
            self.saved.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        while self.saved:
            module, attr, original = self.saved.pop()
            setattr(module, attr, original)
        return False


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: duration minus the part of its interval its children cover.

    Children of one span may overlap (pool workers run in parallel), so the
    covered part is the union of their intervals, not their sum.
    """
    children = {}
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for idx, (name, t0, t1, _, _) in enumerate(spans):
        out.append((t1 - t0) - covered(children.get(idx, ()), t0, t1))
    return out
