"""Spans and counters around trawlprice's public functions, from outside.

:meth:`Tracer.install` swaps each traced function for a wrapper in every
``trawlprice`` module namespace that holds it, so calls made inside the
package (a bootstrap replica calling ``fit_signature``, the CLI calling
``read_path_csv``) are seen too; :meth:`Tracer.uninstall` puts the
originals back.  A span's self time is its duration minus the time of
the traced spans it encloses.  Spans are aggregated per name in memory:
calls, total and self seconds.

Layers that a later version of the package removes or renames are
skipped, and their metrics then read zero.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


class NullTracer:
    """Tracing off: spans and counts cost nothing."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, amount) -> None:
        pass


def _family(args, kwargs) -> str:
    fam = kwargs.get("family", args[1] if len(args) > 1 else "exponential")
    return f"estimate.fit_signature.{fam}"


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# (module, function, span name or name(args, kwargs), counter(args, kwargs, result) -> {name: amount})
FUNCTIONS = [
    ("simulate", "simulate_path", "simulate.simulate_path",
     lambda a, k, r: {"simulate.simulate_path.events": r.n_events}),
    ("simulate", "write_path_csv", "simulate.write_path_csv",
     lambda a, k, r: {"simulate.path_csv.bytes": _file_bytes(a[1])}),
    ("simulate", "read_path_csv", "simulate.read_path_csv",
     lambda a, k, r: {"simulate.path_csv.bytes": _file_bytes(a[0])}),
    ("estimate", "variance_grid", "estimate.variance_grid",
     lambda a, k, r: {"estimate.variance_grid.windows": int(np.sum(r[2]))}),
    ("estimate", "fit_signature", _family,
     lambda a, k, r: {"estimate.fit_signature.calls": 1}),
    ("estimate", "bootstrap", "estimate.bootstrap",
     lambda a, k, r: {"estimate.bootstrap.replicas": r.n_paths}),
    ("estimate", "nonparametric_trawl", "estimate.nonparametric_trawl", None),
    ("theory", "return_pmf", "theory.return_pmf",
     lambda a, k, r: {"theory.return_pmf.points": int(r.probabilities.size)}),
    ("clean", "read_raw_csv", "clean.read_raw_csv", None),
    ("clean", "clean_ticks", "clean.clean_ticks",
     lambda a, k, r: {"clean.records": len(a[0]), "clean.diagnostics": len(r.diagnostics)}),
]


def _draws(a, k, r):
    return {"model.quantile.draws": int(np.size(a[1]))}


class Tracer:
    """Per-name span aggregates and counters for one traced round."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, child_s]
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0])
        try:
            yield
        finally:
            _, start, child = self._stack.pop()
            dt = time.perf_counter() - start
            rec = self.spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - child
            if self._stack:
                self._stack[-1][2] += dt

    def count(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with tracer.span(label):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    tracer.count(key, amount)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "trawlprice" or n.startswith("trawlprice.")]
        for mod_name, fn_name, span_name, counter in FUNCTIONS:
            original = getattr(sys.modules.get(f"trawlprice.{mod_name}"), fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span_name, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        model = sys.modules["trawlprice.model"]
        spec = getattr(model, "TrawlSpec", None)
        if spec is not None and "increment" in vars(spec):
            self._patch(spec, "increment", self._wrap(vars(spec)["increment"], "model.increment", None))
        base = getattr(model, "TrawlFamily", None)
        families = [base, *_subclasses(base)] if base is not None else []
        for cls in families:
            for meth in ("lifetime_quantile", "residual_quantile"):
                if meth in vars(cls):
                    self._patch(cls, meth, self._wrap(vars(cls)[meth], f"model.{meth}", _draws))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
