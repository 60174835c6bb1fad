"""Timing spans around stopbp's public functions, installed from outside.

``Tracer.install`` wraps every public function defined in a ``stopbp``
module and rebinds every name that refers to it: the defining module's
attribute, the same function imported by name into another module (``cli``
imports ``load_model``; the package re-exports most of the API) and values
of module-level dicts (``cli._COMMANDS``).  Callers that go through the
module (``exact_engine.restricted_kernel``) and callers that hold the name
both resolve to the wrapper.

A span records calls, total time and self time (total minus child spans).
Counters are read from arguments and return values after the span has
closed; the time that takes is removed from the enclosing spans, so it
shows in ``trace.overhead_frac`` but in no layer.  Only the thread that
installed the tracer records spans: work a function hands to worker threads
is part of that function's self time.

With ``memory=True`` each span also records its peak traced allocation
above the level at entry (tracemalloc), which slows allocation-heavy Python
code; timings from such a pass are not reported.
"""

from __future__ import annotations

import inspect
import threading
import time
import tracemalloc
from collections import defaultdict

SIGNIFICANT = 1e-17  # kernel entries above this count as significant


class _Frame:
    __slots__ = ("child", "excluded", "base", "peak")

    def __init__(self):
        self.child = 0.0
        self.excluded = 0.0
        self.base = 0
        self.peak = 0


class Span:
    __slots__ = ("calls", "total_s", "self_s", "peak_bytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.peak_bytes = 0


class Tracer:
    def __init__(self, modules, memory: bool = False):
        self.modules = list(modules)
        self.memory = memory
        self.spans = defaultdict(Span)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.root_excluded = 0.0
        self._stack = []
        self._thread = threading.get_ident()
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}
        for mod in self.modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._rebind(vars(mod), name, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._rebind(value, key, wrappers[id(item)][1])
        if self.memory:
            tracemalloc.start()
        return self

    def _rebind(self, namespace: dict, key, wrapper):
        self._undo.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def uninstall(self):
        if self.memory:
            tracemalloc.stop()
        for namespace, key, original in reversed(self._undo):
            namespace[key] = original
        self._undo.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = _Frame()
            if tracer.memory:
                cur, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    parent.peak = max(parent.peak, peak)
                tracemalloc.reset_peak()
                frame.base = frame.peak = cur
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(name, frame, parent, start)
                raise
            end = tracer._close(name, frame, parent, start)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments, result)
            tracer._exclude(parent, time.perf_counter() - end)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _close(self, name: str, frame: _Frame, parent, start: float) -> float:
        """Account a finished span; returns its end time."""
        end = time.perf_counter()
        self._stack.pop()
        total = end - start - frame.excluded
        span = self.spans[name]
        span.calls += 1
        span.total_s += total
        span.self_s += total - frame.child
        if self.memory:
            peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = max(span.peak_bytes, peak - frame.base)
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        if parent is not None:
            parent.child += total
        self._exclude(parent, frame.excluded)
        return end

    def _exclude(self, parent, seconds: float):
        """Remove tracer bookkeeping time from the enclosing span."""
        if parent is not None:
            parent.excluded += seconds
        else:
            self.root_excluded += seconds

    def add(self, name: str, value: float):
        self.counters[name] += value

    def high(self, name: str, value: float):
        self.maxima[name] = max(self.maxima[name], float(value))


# ---------------------------------------------------------------------------
# counters read from arguments and return values


def _kernel_bytes(kernel) -> int:
    return kernel.matrix.nbytes


def _propagated(tracer, kernel, steps):
    """Dense propagation: each step reads the whole kernel once (computed)."""
    tracer.add("exact_engine.propagation_bytes_computed", steps * _kernel_bytes(kernel))


def _one_step_kernel(tracer, a, kernel):
    m = kernel.matrix
    tracer.add("exact_engine.kernel_bytes", m.nbytes)
    tracer.add("kernel_entries", m.size)
    tracer.add("kernel_nonzero", int(m.size - (m == 0.0).sum()))
    tracer.add("kernel_significant", int((m > SIGNIFICANT).sum()))


def _restricted_kernel(tracer, a, res):
    tracer.add("exact_engine.restricted_steps", res.t_max)
    _propagated(tracer, a["kernel"], res.t_max - 1)


def _limiting_absorption(tracer, a, res):
    tracer.add("exact_engine.series_terms", res.terms)
    _propagated(tracer, a["kernel"], res.terms)
    tracer.high("exact_engine.overflow_mass_max", res.overflow_mass)
    tracer.high("exact_engine.tail_bound_max", res.tail_bound)


def _periodicity_probe(tracer, a, report):
    tracer.add("asymptotics.probe_rows", len(report.rows))
    for row in report.rows:
        tracer.high("exact_engine.overflow_mass_max", row.overflow)


def _estimate(tracer, a, est):
    tracer.add("montecarlo.trajectories", a["reps"])
    tracer.add("montecarlo.hits", est.hits if hasattr(est, "hits") else est.survivors)


def _yaglom(tracer, a, data):
    size = data.space.size
    tracer.add("exact_engine.propagation_bytes_computed", data.t * size * size * 8)


COUNTERS = {
    "exact_engine.enumerate_states": lambda tr, a, sp: tr.add("exact_engine.states", sp.n_states),
    "exact_engine.one_step_kernel": _one_step_kernel,
    "exact_engine.restricted_kernel": _restricted_kernel,
    "exact_engine.limiting_absorption": _limiting_absorption,
    "exact_engine.hitting_columns": lambda tr, a, r: _propagated(tr, a["kernel"], a["t_max"]),
    "exact_engine.stopped_hitting_column":
        lambda tr, a, r: _propagated(tr, a["kernel"], a["t_max"]),
    # absorption_table's own loop: the overflow column to max(t_list)
    "exact_engine.absorption_table":
        lambda tr, a, r: _propagated(tr, a["kernel"], max(a["t_list"])),
    "exact_engine.distribution_after": lambda tr, a, r: _propagated(tr, a["kernel"], a["t"]),
    "exact_engine.absorb_via_formula": lambda tr, a, r: _propagated(tr, a["kernel"], a["t"]),
    "asymptotics.periodicity_probe": _periodicity_probe,
    "genfun.yaglom": _yaglom,
    "montecarlo.estimate_absorption": _estimate,
    "montecarlo.estimate_yaglom": _estimate,
}
