"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: every public function of
bolab's layer modules is wrapped at every module namespace that holds it by
name (``bolab.cli.scan_pes``, ``bolab.diagnostics.solve_exact``,
``bolab.scan_pes`` ...), and the sparse factorization that ``eigsh`` builds
in shift-invert mode is wrapped inside scipy. Nothing in ``src/`` changes.

A span records its name (``<module>.<function>``), start, end, parent span
and job id. A span opened on a worker thread with no open span of its own
takes the innermost open span of the job's main thread as its parent, so
thread-pool work nests under the call that submitted it.
"""

import contextlib
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

# bolab modules whose public functions get spans. grid and model run inside
# these layers; their time stays in the callers' self time.
LAYERS = ("clamped", "bo", "exact", "projection", "diagnostics", "serialize", "cli")
# Called once per CSV cell or JSON number; its time stays in write_csv/write_json.
UNTRACED = {"serialize.format_float"}
JOB_SPAN = "perfbench.job"
_ARPACK = "scipy.sparse.linalg._eigen.arpack.arpack"


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.info = None
        self.start = time.perf_counter()
        self.end = None


class Recorder:
    """Holds spans and counters in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.job_id = 0
        self._local = threading.local()
        self._main_stack = []
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, parent, self.job_id)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def count(self, name, n=1):
        with self._lock:
            self.counters[name] += n

    @contextlib.contextmanager
    def job(self):
        """Root span of one job; enter on the thread that runs the job."""
        self.job_id += 1
        self._main_stack = self._stack()
        span = self.open(JOB_SPAN)
        try:
            yield span
        finally:
            self.close(span)


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)


# Extra facts recorded on particular spans: (before-call, after-call) hooks.
_BEFORE = {
    "projection.solve_effective": lambda fn, a, kw: _argument(fn, a, kw, "p").subspace_dim,
    "diagnostics.kappa_scaling_study": lambda fn, a, kw: _argument(fn, a, kw, "threads") or 1,
}
_AFTER = {
    "serialize.write_json": lambda fn, a, kw: os.path.getsize(_argument(fn, a, kw, "path")),
    "serialize.write_csv": lambda fn, a, kw: os.path.getsize(_argument(fn, a, kw, "path")),
}


def _span_wrapper(recorder, name, fn):
    before, after = _BEFORE.get(name), _AFTER.get(name)

    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        if before is not None:
            span.info = before(fn, args, kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            span.info = after(fn, args, kwargs)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


class Tracer:
    """Installs the wrappers on enter and restores every original on exit."""

    def __init__(self, recorder, extra_namespaces=()):
        self.recorder = recorder
        self.extra = list(extra_namespaces)
        self._patches = []

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def __enter__(self):
        rec = self.recorder
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"bolab.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and f"{layer}.{attr}" not in UNTRACED):
                    wrappers[id(obj)] = (obj, _span_wrapper(rec, f"{layer}.{attr}", obj))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "bolab" or n.startswith("bolab.")] + self.extra
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(ns, attr, hit[1])

        # Shift-invert: time the factorization eigsh builds, count its solves.
        # Either hook is skipped when the program or scipy no longer has it.
        exact = sys.modules["bolab.exact"]
        eigsh = getattr(exact, "eigsh", None)
        if eigsh is not None:
            def counted_eigsh(*args, **kwargs):
                rec.count("exact.eigenpairs_shift_invert", kwargs.get("k", 6))
                return eigsh(*args, **kwargs)

            self._patch(exact, "eigsh", counted_eigsh)
        arpack = sys.modules.get(_ARPACK)
        factorize = getattr(arpack, "get_OPinv_matvec", None)
        if factorize is not None:
            def traced_factorize(*args, **kwargs):
                span = rec.open("exact.factorize")
                try:
                    matvec = factorize(*args, **kwargs)
                finally:
                    rec.close(span)

                def counted_solve(x):
                    rec.count("exact.shift_invert_solves")
                    return matvec(x)

                return counted_solve

            self._patch(arpack, "get_OPinv_matvec", traced_factorize)
        return self

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()
        return False


# --------------------------------------------------------------------------
# analysis


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
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


def summarize(recorder):
    """Per-name totals: calls, wall seconds, self seconds, and span info.

    Names never recorded read as zero calls and no info."""
    children = defaultdict(list)
    for span in recorder.spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "info": []})
    for span in recorder.spans:
        duration = span.end - span.start
        entry = stats[span.name]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - _covered(children[id(span)], span.start, span.end)
        if span.info is not None:
            entry["info"].append(span.info)
    return stats


def sweep_parallel_efficiency(recorder):
    """Sum of run_pipeline spans under each sweep over (sweep wall x workers)."""
    busy = defaultdict(float)
    for span in recorder.spans:
        if span.name == "diagnostics.run_pipeline" and span.parent is not None:
            busy[id(span.parent)] += span.end - span.start
    num = den = 0.0
    for span in recorder.spans:
        if span.name == "diagnostics.kappa_scaling_study":
            num += busy[id(span)]
            den += (span.end - span.start) * span.info
    return num / den if den else 0.0
