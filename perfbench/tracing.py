"""Per-layer tracing of ctxsat from outside the package.

Public functions and methods are wrapped where they are looked up (a class
attribute, or each module global that binds the function), so the engine
runs unmodified code. Two passes over the same ops:

- the span pass records (name, start, end, parent) for each call of a phase
  or layer entry point and keeps them in memory;
- the count pass counts the hot calls (find, lattice.check, merge), whose
  wrappers would otherwise inflate every enclosing span.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from ctxsat import dsl, egraph, lattice, layered_uf, rewrite, views

# the package re-exports the function under the submodule's name
extract_mod = importlib.import_module("ctxsat.extract")

# (metric prefix, owner, attribute); an owner is a class or a tuple of
# modules that each bind the same function
SPANNED = (
    ("rewrite.run", rewrite.Engine, "run"),
    ("rewrite.scopes", rewrite.Engine, "apply_scopes"),
    ("rewrite.ematch", rewrite.Engine, "ematch"),
    ("rewrite.intersections", rewrite.Engine, "apply_intersections"),
    ("rewrite.lift", rewrite.Engine, "apply_lambda_lifts"),
    ("egraph.rebuild", egraph.EGraph, "rebuild"),
    ("layered_uf.intersect", layered_uf.LayeredUnionFind, "intersect_into"),
    ("lattice.declare", lattice.ContextLattice, "declare_context"),
    ("views.nodes_of", views.OnTheFlyProvider, "nodes_of"),
    ("views.get", views.ViewCache, "get"),
    ("views.build", (views, rewrite, extract_mod), "build_view"),
    ("extract.extract", (extract_mod, rewrite, dsl), "extract"),
    ("dsl.parse", (dsl,), "parse_program"),
)
COUNTED = (
    ("layered_uf.find", layered_uf.LayeredUnionFind, "find"),
    ("lattice.check", lattice.ContextLattice, "check"),
    ("egraph.merge", egraph.EGraph, "merge"),
)
# the phases Engine.run calls directly; its self time is instantiate + merge
PHASES = (
    "egraph.rebuild", "rewrite.scopes", "rewrite.ematch",
    "rewrite.intersections", "rewrite.lift",
)
# counts read off a wrapped call's return value
RESULT_COUNTS = {
    "rewrite.run": ("rewrite.iterations", lambda report: report.iterations),
    "rewrite.scopes": ("rewrite.scope_instances", lambda new: new),
    "rewrite.ematch": ("rewrite.matches", len),
}


@contextmanager
def patched(targets, make_wrapper):
    """Replace each target with make_wrapper(name, original); restore on exit.

    A module is patched only where it binds the same function object as the
    first module of its tuple; a target that no longer exists is reported
    and skipped, so its layer reads zero instead of failing the run.
    """
    saved = []
    try:
        for name, owner, attr in targets:
            if isinstance(owner, tuple):
                original = getattr(owner[0], attr, None)
                places = [m for m in owner if original is not None and getattr(m, attr, None) is original]
            else:
                original = owner.__dict__.get(attr)
                places = [owner] if original is not None else []
            if not places:
                print(f"trace: {name} not found, not traced", file=sys.stderr)
                continue
            wrapper = make_wrapper(name, original)
            for place in places:
                saved.append((place, attr, original))
                setattr(place, attr, wrapper)
        yield
    finally:
        for place, attr, original in reversed(saved):
            setattr(place, attr, original)


class Spans:
    """Spans in parallel lists; parent is an index, -1 for a root."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.results: Counter = Counter()
        self._stack = [-1]

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrapper(self, name, original):
        counted = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if counted is not None:
                self.results[counted[0]] += counted[1](result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.names)

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
        }


class Calls:
    """Call counters for the hot functions, plus useful merges."""

    def __init__(self):
        self.counts: Counter = Counter()

    def wrapper(self, name, original):
        counts = self.counts
        if name == "egraph.merge":
            def merge(eg, *args, **kwargs):
                version = eg.version
                result = original(eg, *args, **kwargs)
                counts[name] += 1
                counts["egraph.merge_new"] += eg.version != version
                return result
            return merge

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted


def span_pass(ops, run_op):
    spans = Spans()
    with patched(SPANNED, spans.wrapper):
        elapsed = _timed(ops, run_op, spans)
    return spans, elapsed


def count_pass(ops, run_op, observe):
    calls = Calls()
    with patched(COUNTED, calls.wrapper):
        elapsed = _timed(ops, run_op, None, observe)
    return calls.counts, elapsed


def plain_pass(ops, run_op) -> float:
    return _timed(ops, run_op, None)


def _timed(ops, run_op, spans, observe=None) -> float:
    """Summed op time; `observe(op, engine)` runs outside the clock."""
    total = 0.0
    for op in ops:
        idx = spans.open("op") if spans is not None else None
        t0 = time.perf_counter()
        engine = run_op(op)
        total += time.perf_counter() - t0
        if idx is not None:
            spans.close(idx)
        if observe is not None:
            observe(op, engine)
    return total


def span_totals(spans: Spans) -> tuple[dict, dict, dict]:
    """Per name: summed duration, call count, and summed time covered by
    direct children."""
    duration: dict = defaultdict(float)
    calls: Counter = Counter()
    child_time: dict = defaultdict(float)
    for i, name in enumerate(spans.names):
        d = spans.ends[i] - spans.starts[i]
        duration[name] += d
        calls[name] += 1
        parent = spans.parents[i]
        if parent >= 0:
            child_time[spans.names[parent]] += d
    return duration, calls, child_time


def view_gets(spans: Spans) -> tuple[int, int]:
    """(ViewCache.get calls, those answered without building a view)."""
    built = {spans.parents[i] for i, n in enumerate(spans.names) if n == "views.build"}
    gets = [i for i, n in enumerate(spans.names) if n == "views.get"]
    return len(gets), sum(1 for i in gets if i not in built)


def layer_metrics(spans: Spans, counts: Counter, sizes: Counter, n_ops: int) -> dict:
    """Per-op layer metrics from one span pass and one count pass.

    `sizes` holds graph measures summed over ops (nodes and contexts after
    each op, unions it made).
    """
    duration, calls, child_time = span_totals(spans)
    run_self = duration["rewrite.run"] - child_time["rewrite.run"]
    gets, hits = view_gets(spans)
    ms = 1000.0 / n_ops
    merges = counts["egraph.merge"]
    out = {
        "rewrite.run_ms": (duration["rewrite.run"] * ms, "ms"),
        "rewrite.apply_ms": (run_self * ms, "ms"),
        "rewrite.matches": (spans.results["rewrite.matches"] / n_ops, "count"),
        "rewrite.iterations": (spans.results["rewrite.iterations"] / n_ops, "count"),
        "rewrite.scope_instances": (spans.results["rewrite.scope_instances"] / n_ops, "count"),
        "egraph.merge_calls": (merges / n_ops, "count"),
        "egraph.merge_new_ratio": (counts["egraph.merge_new"] / merges if merges else 0.0, "ratio"),
        "egraph.nodes": (sizes["nodes"] / n_ops, "count"),
        "layered_uf.find_calls": (counts["layered_uf.find"] / n_ops, "count"),
        "layered_uf.unions": (sizes["unions"] / n_ops, "count"),
        "lattice.check_calls": (counts["lattice.check"] / n_ops, "count"),
        "lattice.contexts": (sizes["contexts"] / n_ops, "count"),
        "views.nodes_of_calls": (calls["views.nodes_of"] / n_ops, "count"),
        "views.builds": (calls["views.build"] / n_ops, "count"),
        "views.cache_hit_ratio": (hits / gets if gets else 0.0, "ratio"),
        "views.materialized_share": (
            gets / calls["rewrite.ematch"] if calls["rewrite.ematch"] else 0.0, "ratio"
        ),
        "extract.calls": (calls["extract.extract"] / n_ops, "count"),
    }
    for name in PHASES + (
        "layered_uf.intersect", "lattice.declare", "views.nodes_of",
        "views.build", "extract.extract", "dsl.parse",
    ):
        out[f"{name}_ms"] = (duration[name] * ms, "ms")
    return out
