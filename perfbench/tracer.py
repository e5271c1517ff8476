"""Span tracing from outside the program, for the traced benchmark run.

`Tracer.install()` replaces every public function of the ccm layers at
every module attribute bound to it (so `market.maximize_log_sum_batch`
and `solutions.contains` are traced as well as the home definitions),
wraps `jsonschema.validate` as the CLI's schema layer, and gives
`market.ThreadPoolExecutor` a subclass that carries the submitting
span's context into the sweep's worker threads.  `uninstall()` puts
every original back.

Spans of one item are kept in memory and folded into per-layer totals
when the item ends.
"""
from __future__ import annotations

import contextvars
import functools
import inspect
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("lp", "_logmax", "polytope", "solutions", "market", "matching", "exchange", "cli")

# Per-layer metric name -> unit; the values are per item.
PER_LAYER = {
    "lp.solve.calls": "count",
    "lp.solve.ms": "ms",
    "lp.consumer_problem.calls": "count",
    "lp.consumer_problem.ms": "ms",
    "lp.minimal_cost_demand.calls": "count",
    "lp.minimal_cost_demand.ms": "ms",
    "lp.errors": "count",
    "logmax.calls": "count",
    "logmax.cells": "count",
    "logmax.retries": "count",
    "logmax.ms": "ms",
    "logmax.us_per_cell": "us",
    "market.sweep.self_ms": "ms",
    "market.verify_lindahl.calls": "count",
    "market.verify_lindahl.ms": "ms",
    "market.lindahl_from_nash.ms": "ms",
    "market.certs_per_cell": "ratio",
    "polytope.domination_slack.calls": "count",
    "polytope.domination_slack.ms": "ms",
    "polytope.contains.calls": "count",
    "polytope.is_pareto_efficient.ms": "ms",
    "polytope.dominates.ms": "ms",
    "solutions.equitable_contains.ms": "ms",
    "solutions.equitable_contains.self_ms": "ms",
    "solutions.nash_solution.ms": "ms",
    "matching.verify_walras_matching.calls": "count",
    "matching.verify_walras_matching.ms": "ms",
    "exchange.to_collective_exchange.ms": "ms",
    "exchange.commodify_two.ms": "ms",
    "cli.main.ms": "ms",
    "cli.schema_validate.calls": "count",
    "cli.schema_validate.ms": "ms",
}

_BATCH = "_logmax.maximize_log_sum_batch"
_SWEEP = "market.sweep_lindahl_payoffs"


class _Span:
    __slots__ = ("name", "parent", "t0", "t1", "failed", "size")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.t0 = perf_counter()
        self.t1 = None
        self.failed = False
        self.size = 0


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self, modules):
        """`modules` maps layer name (see LAYERS) to the imported ccm module."""
        self.modules = modules
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._lock = threading.Lock()
        self._spans: list[_Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrappers: dict[int, object] = {}
        self.totals: dict[str, float] = defaultdict(float)
        self.items = 0

    # Installing and removing the wrappers.

    def originals(self) -> dict[int, tuple[object, str]]:
        """id(function) -> (function, span name) for every public ccm function."""
        found = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    found[id(obj)] = (obj, f"{layer}.{name}")
        return found

    def install(self):
        import jsonschema

        funcs = self.originals()
        self.wrappers = {key: self._wrap(fn, name) for key, (fn, name) in funcs.items()}
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in self.wrappers and obj is funcs[id(obj)][0]:
                    self._patch(mod, name, self.wrappers[id(obj)])
        self._patch(jsonschema, "validate", self._wrap(jsonschema.validate, "cli.schema_validate"))
        self._patch(self.modules["market"], "ThreadPoolExecutor", _context_pool(self.modules["market"]))

    def uninstall(self):
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    def _patch(self, obj, name, value):
        self._patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def _wrap(self, fn, name):
        current = self._current
        spans = self._spans
        lock = self._lock
        sized = name == _BATCH

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = _Span(name, current.get())
            if sized:
                span.size = len(args[0]) if args else len(kwargs["C"])
            with lock:
                spans.append(span)
            token = current.set(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.t1 = perf_counter()
                current.reset(token)
            if name == _SWEEP:
                span.size = len(result)
            return result

        return traced

    # Folding spans into per-layer totals.

    def end_item(self):
        """Fold the finished item's spans into the totals and drop them."""
        spans = self._spans[:]
        self._spans.clear()
        self.items += 1
        children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        t = self.totals
        for s in spans:
            ms = (s.t1 - s.t0) * 1e3
            kids = [(c.t0, c.t1) for c in children[id(s)]]
            self_ms = ms - _covered(kids, s.t0, s.t1) * 1e3
            t["self." + s.name.split(".")[0]] += self_ms
            parent = s.parent.name if s.parent is not None else ""
            t[f"{s.name}.calls"] += 1
            if parent != s.name:
                t[f"{s.name}.ms"] += ms
            if s.name == "solutions.equitable_contains":
                t["solutions.equitable_contains.self_ms"] += self_ms
            if s.name.startswith("lp.") and s.failed and not parent.startswith("lp."):
                t["lp.errors"] += 1
            if s.name == _BATCH:
                if parent == _BATCH:
                    t["logmax.retries"] += 1
                else:
                    t["logmax.calls"] += 1
                    t["logmax.cells"] += s.size
                    t["logmax.ms"] += ms
            if s.name == _SWEEP:
                t["market.sweep.self_ms"] += self_ms
                t["sweep.certs"] += s.size
                t["sweep.cells"] += sum(c.size for c in children[id(s)] if c.name == _BATCH)

    def metrics(self) -> dict[str, float]:
        """Per-item values of every PER_LAYER metric."""
        t = self.totals
        out = {key: t[key] / max(self.items, 1) for key in PER_LAYER}
        out["logmax.us_per_cell"] = t["logmax.ms"] * 1e3 / t["logmax.cells"] if t["logmax.cells"] else 0.0
        out["market.certs_per_cell"] = t["sweep.certs"] / t["sweep.cells"] if t["sweep.cells"] else 0.0
        return out

    def layer_self_ms(self) -> dict[str, float]:
        """Self time per layer per item, summed over threads."""
        per = max(self.items, 1)
        return {
            layer: self.totals["self." + layer] / per
            for layer in LAYERS
            if self.totals["self." + layer]
        }


def _context_pool(market):
    base = market.ThreadPoolExecutor

    class ContextPool(base):
        """Runs each task in a copy of the submitting thread's context."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

    return ContextPool

