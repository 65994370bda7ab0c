"""Canonicalized per-context databases.

A canonical view of a context replaces every child reference with the child's
representative in that context and deduplicates the resulting nodes. Views of
coarser contexts are never larger than views of finer ones.

E-matching and lambda lifting read the cached view of a context, rebuilt only
after a mutation that can change that context (its change version moved; see
the egraph module), so a merge in one branch keeps the views of its siblings.
`OnTheFlyProvider` canonicalizes per query instead; it is the reference
implementation that tests compare the cached view against, and no engine path
uses it.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass

from .egraph import ClassId, EGraph, ENode, node_key
from .lattice import ContextId


@dataclass(frozen=True)
class CanonicalView:
    """Immutable snapshot of one context's canonicalized database."""

    context: ContextId
    classes: dict[ClassId, tuple[ENode, ...]]
    version: int

    def class_ids(self) -> list[ClassId]:
        return sorted(self.classes)

    def nodes_of(self, c: ClassId) -> tuple[ENode, ...]:
        return self.classes.get(c, ())

    def node_count(self) -> int:
        return sum(len(ns) for ns in self.classes.values())

    def class_count(self) -> int:
        return len(self.classes)


def build_view(eg: EGraph, ctx: ContextId) -> CanonicalView:
    eg.lattice.check(ctx)
    grouped: dict[ClassId, set[ENode]] = defaultdict(set)
    for root, nodes in eg.classes().items():
        grouped[eg.find(ctx, root)].update(eg.canonical_node(ctx, n) for n in nodes)
    classes = {c: tuple(sorted(ns, key=node_key)) for c, ns in grouped.items()}
    return CanonicalView(ctx, classes, eg.version_at(ctx))


class ViewCache:
    """Materialized views keyed by context; a view is reused until the
    context's change version (`EGraph.version_at`) moves past its stamp."""

    def __init__(self, eg: EGraph):
        self.eg = eg
        self._views: dict[ContextId, CanonicalView] = {}

    def get(self, ctx: ContextId) -> CanonicalView:
        view = self._views.get(ctx)
        if view is None or view.version != self.eg.version_at(ctx):
            view = build_view(self.eg, ctx)
            self._views[ctx] = view
        return view


class Strategy(enum.Enum):
    """Which database `Engine.ematch` reads; the engine itself always uses
    MATERIALIZED, and ON_THE_FLY selects the reference provider."""

    MATERIALIZED = "materialized"
    ON_THE_FLY = "on-the-fly"


class OnTheFlyProvider:
    """Canonicalizes per query without retaining a snapshot.

    Work is done lazily per requested class and discarded with the provider.
    """

    def __init__(self, eg: EGraph, ctx: ContextId):
        self.eg = eg
        self.ctx = ctx
        self._memo: dict[ClassId, tuple[ENode, ...]] = {}

    def class_ids(self) -> list[ClassId]:
        return self.eg.class_ids(self.ctx)

    def nodes_of(self, c: ClassId) -> tuple[ENode, ...]:
        got = self._memo.get(c)
        if got is None:
            got = tuple(sorted(self.eg.class_nodes(self.ctx, c), key=node_key))
            self._memo[c] = got
        return got
