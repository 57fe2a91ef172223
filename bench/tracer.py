"""Span tracing of qschubert's public functions, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``qschubert`` module that binds it (``from .combinat import
partition`` makes a second binding in each importing module), and on a
class for methods.  ``Tracer.uninstall`` puts every original back.

Spans are aggregated in memory by (function, parent).  A span's self time
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute path, extra statistics taken from the return value)
TARGETS = [
    ("combinat", "partition", ()),
    ("combinat", "horizontal_strip_additions", ()),
    ("typea", "quantum_product_a", ("terms",)),
    ("typea", "gw_a", ()),
    ("typea", "gw_a_puzzle", ()),
    ("puzzle", "count_puzzles_1step", ()),
    ("puzzle", "count_puzzles_2step", ()),
    ("qpoly", "qtilde_epoly", ()),
    ("qpoly", "EPoly.__mul__", ()),
    ("qpoly", "expand_in_qtilde", ()),
    ("qpoly", "qtilde_structure", ()),
    ("qpoly", "ptilde_structure", ()),
    ("isotropic", "quantum_product_lg", ()),
    ("isotropic", "quantum_product_og", ()),
    ("isotropic", "quantum_product_lg_pfaffian", ()),
    ("isotropic", "quantum_product_og_pfaffian", ()),
    ("isotropic", "gw_lg", ()),
    ("isotropic", "gw_og", ()),
    ("verify", "suite_puzzle_conjecture", ("checks", "failures")),
]

_EXTRACT = {
    "terms": lambda result: len(result.coeffs),
    "checks": lambda result: result.checked,
    "failures": lambda result: 0 if result.ok else max(1, len(result.failures)),
}


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-function statistic."""
    out = []
    for module, attr, extras in TARGETS:
        base = f"{module}.{attr}"
        out.append((f"{base}.calls", "count"))
        out.append((f"{base}.self_s", "s"))
        out.extend((f"{base}.{x}", "count") for x in extras)
    return out


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qschubert" or name.startswith("qschubert."))]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        # (name, parent) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = {}
        # (name, statistic) -> summed value
        self.extras: dict[tuple[str, str], int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extras):
        stack, spans, totals = self.stack, self.spans, self.extras

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                key = (name, parent[0] if parent else "")
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
            for stat in extras:
                totals[(name, stat)] = totals.get((name, stat), 0) + _EXTRACT[stat](result)
            return result

        return traced

    def install(self):
        """Wrap every target in every loaded qschubert module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for module, attr, extras in TARGETS:
            mod = by_name.get(f"qschubert.{module}")
            if mod is None:
                continue
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, extras))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, extras)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._saved.append((other, key, original))
                        setattr(other, key, wrapper)

    def uninstall(self):
        """Restore every binding that ``install`` replaced."""
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per-function calls, self time and extra statistics, plus the
        (function, parent) breakdown."""
        per_fn: dict[str, dict] = {}
        for (name, _parent), (calls, _total, self_s) in self.spans.items():
            entry = per_fn.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
        for (name, stat), value in self.extras.items():
            per_fn.setdefault(name, {"calls": 0, "self_s": 0.0})[stat] = value
        edges = [{"fn": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
                 for (name, parent), (c, t, s) in sorted(self.spans.items())]
        return {"functions": per_fn, "edges": edges}


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the summaries of several processes (one per command-line call)."""
    per_fn: dict[str, dict] = {}
    edges: dict[tuple[str, str], dict] = {}
    for summary in summaries:
        for name, entry in summary["functions"].items():
            total = per_fn.setdefault(name, {})
            for stat, value in entry.items():
                total[stat] = total.get(stat, 0) + value
        for edge in summary["edges"]:
            total = edges.setdefault((edge["fn"], edge["parent"]),
                                     {"fn": edge["fn"], "parent": edge["parent"],
                                      "calls": 0, "total_s": 0.0, "self_s": 0.0})
            for stat in ("calls", "total_s", "self_s"):
                total[stat] += edge[stat]
    return {"functions": per_fn, "edges": [edges[k] for k in sorted(edges)]}
