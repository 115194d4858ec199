"""Outside-in tracer: wraps quantproc's public functions and methods in spans.

Installed only for a traced run, so an untraced run pays nothing.  Each
module's functions are rebound in its own namespace (so calls inside the
module are caught), the public methods of the classes it defines are
replaced on the class, and names a module bound with ``from ._util import``
are rebound to the wrapped helpers.  Every call records a span (name, start,
end, parent); its self time is its duration minus the time its children
cover.  Per-pass totals are kept for every pass; the raw spans of the first
timed pass are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

import numpy as np

LAYERS = ("drivers", "transforms", "measures", "valuation", "dominance", "copulas", "cli", "_util")
# the metric prefix of each layer (a metric name may not start with "_")
PREFIX = {layer: layer.lstrip("_") for layer in LAYERS}

MARGINAL = {"marginal_cdf", "marginal_pdf", "marginal_quantile", "marginal_pmf", "transition_pdf",
            "uniformize"}
RATIO = {"rn_derivative", "conditional_rn"}
PRICING = {"qpvp_price", "risk_loading_check", "price_ordering", "nested_price",
           "carbon_tariff_table", "__call__"}
SCAN = {"crossing_u_star", "crossing_report"}
CHECKS = {"fosd_check", "sosd_check", "sosd_sufficient_conditions", "kendall_order_check",
          "split_g_sosd_integrals"}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    tail = metric.rsplit(".", 1)[1]
    if tail.endswith("_ms"):
        return "ms"
    if tail.endswith("_s"):
        return "s"
    if tail in ("thinning_yield", "inversions_per_point"):
        return "ratio"
    return "bytes" if tail == "bytes_written" else "count"


def _size(x) -> int:
    return int(np.size(x))


class Span:
    __slots__ = ("name", "group", "start", "child", "sid", "parent")

    def __init__(self, name, group, start, sid, parent):
        self.name, self.group, self.start = name, group, start
        self.child, self.sid, self.parent = 0.0, sid, parent


class Tracer:
    def __init__(self):
        self.stack: list[Span] = []
        self.self_time: dict[str, float] = defaultdict(float)  # per group
        self.calls: Counter = Counter()  # per group
        self.counts: Counter = Counter()  # work counters
        self.recording = False
        self.spans: list[tuple] = []
        self.names: dict[str, int] = {}
        self.next_sid = 0
        self.t0 = time.perf_counter()

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        mods = {layer: importlib.import_module(f"quantproc.{layer}") for layer in LAYERS}
        util = mods["_util"]
        wrapped_util = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    w = self._wrap(obj, layer, name, name)
                    setattr(mod, name, w)
                    if mod is util:
                        wrapped_util[obj] = w
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped_util:
                    setattr(mod, name, wrapped_util[obj])

    def _wrap_class(self, cls, layer) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not inspect.isfunction(fn):
                continue
            w = self._wrap(fn, layer, f"{cls.__name__}.{attr}", attr, cls)
            setattr(cls, attr, type(raw)(w) if isinstance(raw, (staticmethod, classmethod)) else w)

    def _group(self, layer, attr, cls) -> str:
        """The layer-specific group a function's self time is booked to."""
        if layer == "drivers":
            if attr.startswith("sample_transition"):
                return "transition"
            if attr in MARGINAL:
                return "marginal"
        if layer == "transforms":
            from quantproc import transforms as tr
            if attr == "apply_composite":
                return "composite"
            if attr == "x_from_z" or attr in ("quantile_cdf", "quantile_pdf") or (
                    cls is not None and issubclass(cls, tr.QuantileSpec) and attr in ("cdf", "pdf")):
                return "invert"
            if attr == "quantile_eval" or (cls is not None and issubclass(cls, tr.QuantileSpec)
                                           and attr == "eval"):
                return "eval"
            if cls is not None and issubclass(cls, tr.DistributionSpec) and attr in ("cdf", "pdf", "quantile"):
                return "law"
        if layer == "measures":
            if attr in RATIO:
                return "ratio"
            if attr == "pricing_kernel":
                return "kernel"
        if layer == "valuation" and attr in PRICING:
            return "reduce"
        if layer == "dominance":
            if attr in SCAN:
                return "scan"
            if attr in CHECKS:
                return "check"
        if layer == "copulas":
            if attr in ("sample", "simulate_joint", "simulate_joint_terminal"):
                return "sample"
            if attr in ("cdf", "copula_eval", "kendall_function"):
                return "cdf"
        if layer == "_util" and attr == "adaptive_quad":
            return "quad"
        return "other"

    def _counter(self, layer, attr, cls) -> Optional[Callable]:
        """Work counted from a call's arguments and result, per group."""
        c = self.counts
        if layer == "drivers" and attr.startswith("sample_transition"):
            def count(args, out):
                c["drivers.transition_draws"] += _size(args[4])
                if cls.__name__ == "InhomogeneousPoisson":
                    c["drivers.thinning_events"] += int(np.sum(out - args[4]))
            return count
        if layer == "drivers" and attr == "sample_events":
            return lambda args, out: c.update({"drivers.thinning_events": _size(out)})
        if layer == "drivers" and cls is not None and attr in MARGINAL:
            idx = 4 if attr == "transition_pdf" else 2
            return lambda args, out: c.update({"drivers.marginal_points": _size(args[idx])})
        if layer == "transforms" and attr == "x_from_z":
            def count(args, out):
                c["transforms.invert_points"] += _size(args[2])
                if any(s.group == "measures.ratio" for s in self.stack):
                    c["transforms.invert_points_in_ratio"] += _size(args[2])
            return count
        if layer == "measures" and attr in RATIO:
            idx = 3 if attr == "rn_derivative" else 5

            def count(args, out):
                if not any(s.group == "measures.ratio" for s in self.stack):
                    c["measures.ratio_points"] += _size(args[idx])
            return count
        if layer == "measures" and attr == "money_market":
            return lambda args, out: c.update({"measures.money_market_calls": 1})
        if layer == "dominance" and attr == "crossing_u_star":
            return lambda args, out: c.update({"dominance.u_star_calls": 1})
        if layer == "valuation" and attr == "__call__":
            return lambda args, out: c.update({"valuation.paths_priced": _size(args[1])})
        return None

    def _wrap(self, fn, layer, qualname, attr, cls=None):
        name = f"{layer}.{qualname}"
        group = f"{layer}.{self._group(layer, attr, cls)}"
        counter = self._counter(layer, attr, cls)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, group, clock(), self._sid(), parent.sid if parent else None)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - span.start
                if parent is not None:
                    parent.child += dur
                self.self_time[group] += dur - span.child
                self.calls[group] += 1
                if self.recording:
                    self.spans.append((span.sid, span.parent, self._name_id(name),
                                       span.start - self.t0, end - self.t0))
            if counter is not None:
                counter(args, out)
            return out
        return traced

    def _sid(self) -> int:
        self.next_sid += 1
        return self.next_sid

    def _name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def count_calls(self, key: str, fn: Callable) -> Callable:
        """Wrap a benchmark-supplied callable so that its calls are counted."""
        c = self.counts

        def counted(*args):
            c[key] += 1
            return fn(*args)
        return counted

    # -- per-pass readout -----------------------------------------------------
    def reset(self) -> None:
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    def snapshot(self) -> dict[str, float]:
        """This pass's per-layer metrics (self times in ms, work as counts)."""
        st, calls, c = self.self_time, self.calls, self.counts

        def ms(group):
            return 1e3 * st.get(group, 0.0)
        out = {}
        for layer in LAYERS:
            groups = [g for g in st if g.startswith(layer + ".")]
            out[f"{PREFIX[layer]}.self_ms"] = 1e3 * sum(st[g] for g in groups)
            out[f"{PREFIX[layer]}.calls"] = float(sum(calls[g] for g in calls if g.startswith(layer + ".")))
        ratio_points = c["measures.ratio_points"]
        evals = c["drivers.intensity_evals"]
        out.update({
            "drivers.transition_ms": ms("drivers.transition"),
            "drivers.transition_draws": float(c["drivers.transition_draws"]),
            "drivers.marginal_ms": ms("drivers.marginal"),
            "drivers.marginal_points": float(c["drivers.marginal_points"]),
            "drivers.intensity_evals": float(evals),
            "drivers.thinning_yield": c["drivers.thinning_events"] / evals if evals else 0.0,
            "transforms.eval_ms": ms("transforms.eval"),
            "transforms.law_ms": ms("transforms.law"),
            "transforms.composite_ms": ms("transforms.composite"),
            "transforms.composite_calls": float(calls["transforms.composite"]),
            "transforms.invert_ms": ms("transforms.invert"),
            "transforms.invert_points": float(c["transforms.invert_points"]),
            "transforms.inversions_per_point": (c["transforms.invert_points_in_ratio"] / ratio_points
                                                if ratio_points else 0.0),
            "measures.ratio_ms": ms("measures.ratio"),
            "measures.ratio_points": float(ratio_points),
            "measures.kernel_ms": ms("measures.kernel"),
            "measures.money_market_calls": float(c["measures.money_market_calls"]),
            "valuation.reduce_ms": ms("valuation.reduce"),
            "valuation.paths_priced": float(c["valuation.paths_priced"]),
            "dominance.scan_ms": ms("dominance.scan"),
            "dominance.u_star_calls": float(c["dominance.u_star_calls"]),
            "dominance.check_ms": ms("dominance.check"),
            "copulas.sample_ms": ms("copulas.sample"),
            "copulas.cdf_ms": ms("copulas.cdf"),
            "util.quad_ms": ms("_util.quad"),
            "util.quad_calls": float(calls["_util.quad"]),
        })
        return out

    def dump(self, path, meta: dict) -> None:
        names = sorted(self.names, key=self.names.get)
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["id", "parent", "name", "start_s", "end_s"],
                       "names": names, "spans": self.spans}, fh)
