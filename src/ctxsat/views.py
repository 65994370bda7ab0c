"""Canonicalized per-context databases.

A canonical view of a context replaces every child reference with the child's
representative in that context and deduplicates the resulting nodes. Views of
coarser contexts are never larger than views of finer ones.

E-matching, lambda lifting and congruence repair read the cached view of a
context, and the bottom view is the e-graph's class index. The e-graph owns
the one cache (`EGraph.views`), which replaces a view only after a mutation
that can change its context (its change version moved; see the egraph
module), so a merge in one branch keeps the views of its siblings.
`OnTheFlyProvider` canonicalizes per query instead; it is the reference
implementation that tests compare the cached view against, and no engine
path uses it. Extraction builds a fresh view with `build_view`, which tests
also take as the reference; stats and read-only queries scan the node store.

Patching: every cached view is patched from its predecessor and the change
log (the roots lost at bottom and at the context, the nodes of the ids
created since). Bottom's first view is patched from an empty one; any other
context's first view is a copy of its cover's current view (of the bottom
view if it has several covers) patched from the whole log of the context's
layer. The links the context copied from its cover at declaration lost no
class of that view, so only the context's own merges move rows. A lost
root's rows move into its class now, new ids add their nodes' rows, and only
those classes and the classes with a row over a lost root (`_uses`: child
class -> parent classes) are re-canonicalized. `_sig` keeps one class per
row, and `clashes` lists pairs of live classes holding a common row, the
predecessor's still apart included: any two classes that share a row are
joined through them, so merging them restores congruence. The patch state
(`_sig`, `_uses` and the row log) is shared along a context's chain of
views, not copied: a superseded view's classes stay readable, but only the
newest view is patched and answers the join's lookups.

Row log: matching reads a view as rows `(node, class)`. Each patch appends
every row it adds to a class to its symbol's log as `(version, node,
class)`, at the new view's version; a first view starts from the live
entries of the log of the view it copies. Versions rise along the log, so
`_rows(symbol, since)` walks it back to since and keeps the rows the view
still holds: the delta semi-naive matching joins from (see the rewrite
module), and with since = -1 every row of the symbol, which a first join
starts from. `_parents` reads the rows over a child class from the classes
in `_uses`. The patch's own state is thus the join's only index.
"""

from __future__ import annotations

import enum
import weakref
from collections import defaultdict
from dataclasses import dataclass, field, replace

from .egraph import ClassId, EGraph, ENode, FunctionSymbol, node_key
from .lattice import BOTTOM, ContextId


@dataclass(frozen=True)
class CanonicalView:
    """Immutable snapshot of one context's canonicalized database."""

    context: ContextId
    classes: dict[ClassId, tuple[ENode, ...]]
    version: int
    # pairs of live classes holding a common row; cached views only
    clashes: list = field(default_factory=list, compare=False, repr=False)
    # patch state of a cached view (see the module docstring): row -> class,
    # child class -> tuple of parent classes (ints only, which the cyclic
    # garbage collector does not track), symbol -> row log of (version,
    # node, class) entries, and the change-log lengths read
    _sig: dict = field(default_factory=dict, compare=False, repr=False)
    _uses: dict = field(default_factory=dict, compare=False, repr=False)
    _log: dict = field(default_factory=dict, compare=False, repr=False)
    _marks: tuple = field(default=(0, 0, 0), compare=False, repr=False)

    def class_ids(self) -> list[ClassId]:
        return sorted(self.classes)

    def nodes_of(self, c: ClassId) -> tuple[ENode, ...]:
        return self.classes.get(c, ())

    def _rows(self, symbol: FunctionSymbol, since: int) -> list[tuple[ENode, ClassId]]:
        """Rows (node, class) of symbol logged after since that the view
        still holds; the log rises in version, so the walk back stops at
        since."""
        out = []
        for version, node, c in reversed(self._log.get(symbol, ())):
            if version <= since:
                break
            if node in self.classes.get(c, ()):
                out.append((node, c))
        return out

    def _parents(self, symbol: FunctionSymbol, pos: int, child: ClassId) -> list:
        """Rows (node, class) of symbol whose child at pos is child."""
        return [
            (n, c) for c in self._uses.get(child, ()) for n in self.classes.get(c, ())
            if n.symbol == symbol and n.children[pos] == child
        ]

    def node_count(self) -> int:
        return sum(len(ns) for ns in self.classes.values())

    def class_count(self) -> int:
        return len(self.classes)


def build_view(eg: EGraph, ctx: ContextId) -> CanonicalView:
    """A fresh view of ctx from a scan of the node store."""
    eg.lattice.check(ctx)
    rep = {c: eg.uf._find(ctx, c) for c in set(eg.nodes().values())}
    grouped: dict[ClassId, set[ENode]] = defaultdict(set)
    for node, c in eg.nodes().items():
        grouped[rep[c]].add(eg.canonical_node(ctx, node))
    classes = {c: tuple(sorted(ns, key=node_key)) for c, ns in grouped.items()}
    return CanonicalView(ctx, classes, eg.version_at(ctx))


def _add_rows(view: CanonicalView, c: ClassId, rows) -> None:
    """Record rows of class c in the view's sig and uses, and a clash with
    the class already holding a row."""
    sig, uses = view._sig, view._uses
    for row in rows:
        other = sig.setdefault(row, c)
        if other != c:
            view.clashes.append((other, c))
        for ch in row.children:
            parents = uses.get(ch, ())
            if c not in parents:
                uses[ch] = (*parents, c)


def _patch(eg: EGraph, prev: CanonicalView) -> CanonicalView:
    """The current view of prev's context, patched from prev and the change
    log since it; takes over prev's sig, uses and row log."""
    ctx, find = prev.context, eg.uf._find
    sig, uses, log = prev._sig, prev._uses, prev._log
    n_bot, n_ctx, n_ids = prev._marks
    # at bottom the two logs are one; a root met twice is skipped
    lost = eg.uf.lost[BOTTOM][n_bot:] + eg.uf.lost[ctx][n_ctx:]
    classes = prev.classes.copy()
    # dirty class -> rows to add to it; into: lost class -> its class now
    dirty: dict[ClassId, list[ENode]] = {}
    into: dict[ClassId, ClassId] = {}
    for x in lost:
        rows = classes.pop(x, None)
        if rows is None:
            continue
        into[x] = t = find(ctx, x)
        dirty.setdefault(t, []).extend(rows)
        for p in uses.pop(x, ()):
            dirty.setdefault(find(ctx, p), [])
    for i in range(n_ids, len(eg.uf)):
        dirty.setdefault(find(ctx, i), []).append(eg.created[i])
    # drop the rows of dirty classes from sig before re-adding any, so that
    # a row they still hold and a clean class holds too is reported
    for t, added in dirty.items():
        for row in (*classes.get(t, ()), *added):
            other = sig.get(row)
            if other == t or into.get(other) == t:
                del sig[row]
    view = CanonicalView(
        ctx, classes, eg.version_at(ctx), _sig=sig, _uses=uses, _log=log,
        _marks=(len(eg.uf.lost[BOTTOM]), len(eg.uf.lost[ctx]), len(eg.uf)),
    )
    for a, b in prev.clashes:
        if find(ctx, a) != find(ctx, b):
            view.clashes.append((find(ctx, a), find(ctx, b)))
    for t, added in dirty.items():
        old = classes.get(t, ())
        rows = {eg.canonical_node(ctx, n) for n in (*old, *added)}
        classes[t] = nodes = tuple(sorted(rows, key=node_key))
        _add_rows(view, t, nodes)
        held = set(old)
        for n in nodes:
            if n not in held:
                log.setdefault(n.symbol, []).append((view.version, n, t))
    return view


class ViewCache:
    """Materialized views keyed by context; a view is reused until the
    context's change version (`EGraph.version_at`) moves past its stamp,
    then patched (see the module docstring). Holds the e-graph weakly: the
    e-graph owns its cache, and a cycle would leave both to the cyclic
    garbage collector."""

    def __init__(self, eg: EGraph):
        self._eg = weakref.ref(eg)
        self._views: dict[ContextId, CanonicalView] = {}

    def get(self, ctx: ContextId) -> CanonicalView:
        eg = self._eg()
        view = self._views.get(ctx)
        if view is not None and view.version == eg.version_at(ctx):
            return view
        # a seed is patched even when its version is current: its marks
        # leave ctx's log to read
        view = self._views[ctx] = _patch(eg, view or self._seed(eg, ctx))
        return view

    def _seed(self, eg: EGraph, ctx: ContextId) -> CanonicalView:
        """What ctx's first view is patched from: at bottom an empty view,
        else a copy of its one cover's current view (of bottom's if it has
        several) with ctx's whole layer log still to read; the links it
        copied from the cover pop no class of that view. Only live row log
        entries are copied: a row dead below ctx stays dead at ctx."""
        if ctx == BOTTOM:
            return CanonicalView(BOTTOM, {}, 0)
        covers = eg.lattice.covers(ctx)
        base = self.get(min(covers) if len(covers) == 1 else BOTTOM)
        log = {
            sym: [e for e in rows if e[1] in base.classes.get(e[2], ())]
            for sym, rows in base._log.items()
        }
        return replace(
            base, context=ctx, _sig=base._sig.copy(), _uses=base._uses.copy(),
            _log=log, _marks=(base._marks[0], 0, base._marks[2]),
        )


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
