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

Rows and stamps: matching reads a view as rows `(node, class)`, each
stamped with the version of the first cached view of its context that held
it. A rebuilt view keeps its predecessor's stamps for the rows they share
(per class: one int where all its rows agree), and `_rows(symbol, since)`
gives the rows stamped after `since`: the delta semi-naive matching joins
from (see the rewrite module). The join's indexes are built on first use.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat

from .egraph import ClassId, EGraph, ENode, FunctionSymbol, node_key
from .lattice import ContextId


@dataclass(frozen=True)
class CanonicalView:
    """Immutable snapshot of one context's canonicalized database."""

    context: ContextId
    classes: dict[ClassId, tuple[ENode, ...]]
    version: int
    # class -> first-seen stamp of its rows, one int or one per node; a
    # class not listed was first seen in this view
    _stamps: dict = field(default_factory=dict, compare=False, repr=False)
    # join indexes of class ids, built on first use by the matching thread
    _by_symbol: dict = field(default_factory=dict, compare=False, repr=False)
    _parent_index: dict = field(default_factory=dict, compare=False, repr=False)

    def class_ids(self) -> list[ClassId]:
        return sorted(self.classes)

    def nodes_of(self, c: ClassId) -> tuple[ENode, ...]:
        return self.classes.get(c, ())

    def _rows(self, symbol: FunctionSymbol, since: int) -> list[tuple[ENode, ClassId]]:
        """Rows (node, class) of symbol stamped after since."""
        if not self._by_symbol:
            for c, nodes in self.classes.items():
                for sym in {n.symbol for n in nodes}:
                    self._by_symbol.setdefault(sym, []).append(c)
        out = []
        for c in self._by_symbol.get(symbol, ()):
            st = self._stamps.get(c, self.version)
            if isinstance(st, int):
                st = repeat(st) if st > since else ()
            out += [(n, c) for n, s in zip(self.classes[c], st) if s > since and n.symbol == symbol]
        return out

    def _parents(self, symbol: FunctionSymbol, pos: int, child: ClassId) -> list:
        """Rows (node, class) of symbol whose child at pos is child."""
        index = self._parent_index.get(symbol)
        if index is None:
            index = self._parent_index[symbol] = {}
            for node, c in self._rows(symbol, -1):
                for key in enumerate(node.children):
                    got = index.setdefault(key, [])
                    if not got or got[-1] != c:
                        got.append(c)
        return [
            (n, c) for c in index.get((pos, child), ()) for n in self.classes[c]
            if n.symbol == symbol and n.children[pos] == child
        ]

    def node_count(self) -> int:
        return sum(len(ns) for ns in self.classes.values())

    def class_count(self) -> int:
        return len(self.classes)


def build_view(eg: EGraph, ctx: ContextId) -> CanonicalView:
    eg.lattice.check(ctx)
    grouped: dict[ClassId, set[ENode]] = defaultdict(set)
    for root, nodes in eg.classes().items():
        grouped[eg.uf._find(ctx, root)].update(eg.canonical_node(ctx, n) for n in nodes)
    classes = {c: tuple(sorted(ns, key=node_key)) for c, ns in grouped.items()}
    return CanonicalView(ctx, classes, eg.version_at(ctx))


def _carry_stamps(view: CanonicalView, previous: CanonicalView) -> None:
    """Give the rows of view that previous, an earlier view of the same
    context, already held their stamps there."""
    for c, nodes in view.classes.items():
        old = previous.classes.get(c)
        if old is not None:
            stamp = previous._stamps.get(c, previous.version)
            if old != nodes:
                seen = dict(zip(old, repeat(stamp) if isinstance(stamp, int) else stamp))
                stamp = tuple(seen.get(n, view.version) for n in nodes)
                stamp = stamp[0] if len(set(stamp)) == 1 else stamp
            view._stamps[c] = stamp


class ViewCache:
    """Materialized views keyed by context; a view is reused until the
    context's change version (`EGraph.version_at`) moves past its stamp."""

    def __init__(self, eg: EGraph):
        self.eg = eg
        self._views: dict[ContextId, CanonicalView] = {}

    def get(self, ctx: ContextId) -> CanonicalView:
        view = self._views.get(ctx)
        if view is None or view.version != self.eg.version_at(ctx):
            previous, view = view, build_view(self.eg, ctx)
            if previous is not None:
                _carry_stamps(view, previous)
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
