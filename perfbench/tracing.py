"""Spans and counters around calls into pwperiod's modules.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper wherever the function is bound: in its home module, in
every other layer module that imported it by name, and in the package
namespace, except the value-level helpers in ``UNSPANNED``.  A function a
later change removes is simply not found, and its metrics read 0.  A few calls are counted without a span: the float profile
evaluation and the scipy routines the two clocks call, so that the self time
of ``half_orbit`` and of the quadrature clock includes the work they hand to
scipy.

Spans are kept in memory as [name, parent index, start, end]; ``summary``
folds them into calls and self time per name, self time being a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

PACKAGE = "pwperiod"
LAYERS = ("trigmoments", "reversion", "periodseries", "systems", "flow", "analysis", "cli")
# Value-level helpers that run inside the arithmetic of one layer operation:
# as_fraction in every TrigValue and ParamPoly constructor, one circle moment,
# one binomial polynomial of the coefficient table.  A span around them costs
# more than the work it measures and cuts their caller's self time into
# fragments, so their time counts as their caller's.
UNSPANNED = {"trigmoments.as_fraction", "trigmoments.trig_moment", "reversion.binom_linear"}


def _is_traceable(obj, module_name: str) -> bool:
    func = inspect.isfunction(obj) or hasattr(obj, "cache_info")  # lru_cache wrappers
    return func and getattr(obj, "__module__", None) == module_name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._profile_calls = [0]

    def reset(self) -> None:
        self._profile_calls[0] = 0
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.maxima.clear()

    def _span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, name: str, fn, on_result=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _half_orbit_result(self, result) -> None:
        self.counts["flow.half_orbit.steps"] += result.steps
        self.counts["flow.half_orbit.degraded"] += bool(result.degraded)
        drift = self.maxima["flow.half_orbit.max_energy_drift"]
        self.maxima["flow.half_orbit.max_energy_drift"] = max(drift, result.energy_drift)

    def _witness_result(self, result) -> None:
        self.counts["analysis.find_witness.evaluations"] += result.evaluations

    def _ivp_result(self, result) -> None:
        self.counts["flow.solve_ivp.nfev"] += result.nfev

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
        namespaces = [package, *modules.values()]
        hooks = {"flow.half_orbit": self._half_orbit_result,
                 "analysis.find_witness": self._witness_result}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_traceable(obj, module.__name__):
                    continue
                name = f"{layer}.{obj.__name__}"
                if name in UNSPANNED:
                    continue
                wrapped = self._span(name, obj, hooks.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapped)
        flow = modules.get("flow")
        if flow is not None:
            for attr, hook in (("solve_ivp", self._ivp_result), ("brentq", None), ("quad", None)):
                if hasattr(flow, attr):
                    setattr(flow, attr, self._counted(f"flow.{attr}.calls", getattr(flow, attr), hook))
        poly = getattr(modules.get("trigmoments"), "HomogeneousPoly", None)
        if poly is not None and hasattr(poly, "profile"):
            poly.profile = self._profile_counter(poly.profile)

    def _profile_counter(self, profile):
        # called hundreds of thousands of times per analyze: keep it lean
        calls = self._profile_calls

        @functools.wraps(profile)
        def counted(*args):
            calls[0] += 1
            return profile(*args)

        return counted

    def summary(self) -> dict:
        """{"spans": {name: [calls, self seconds]}, "counts": ..., "maxima": ...}."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name: dict[str, list] = {}
        for (name, _, start, end), inner in zip(self.spans, child):
            entry = per_name.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - inner
        counts = dict(self.counts, **{"trigmoments.profile.calls": self._profile_calls[0]})
        return {"spans": per_name, "counts": counts, "maxima": dict(self.maxima)}


def merge(summaries) -> dict:
    """Sum calls, self times and counts; take the largest maxima."""
    out = {"spans": {}, "counts": defaultdict(float), "maxima": defaultdict(float)}
    for s in summaries:
        for name, (calls, self_s) in s["spans"].items():
            entry = out["spans"].setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, value in s["counts"].items():
            out["counts"][name] += value
        for name, value in s["maxima"].items():
            out["maxima"][name] = max(out["maxima"][name], value)
    return out
