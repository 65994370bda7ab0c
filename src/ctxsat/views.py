"""The database: canonicalized per-context views and their indexes.

A canonical view of a context replaces every child reference with the child's
representative in that context and deduplicates the resulting nodes. Views of
coarser contexts are never larger than views of finer ones.

E-matching, lambda lifting and congruence repair read the cached view of a
context, and the bottom view is the e-graph's class index. The e-graph owns
the one cache (`EGraph.views`), which patches a view only once the change
log that can change its context has moved (the roots lost at bottom and at
the context, and the ids made; see the egraph module), so a merge in one
branch keeps the views of its siblings, and a change made through the
union-find directly is seen like any other. `OnTheFlyProvider` canonicalizes
per query instead; it is the reference implementation that tests compare the
cached view against, and no engine path uses it. Extraction builds a fresh
view with `build_view`, which tests also take as the reference; stats and
read-only queries scan the node store.

Patching: the cache keeps one view per context and patches it in place
from the change log (the roots lost at bottom and at the context, the nodes
of the ids created since): its classes, clashes, version and marks, and its
patch state, so a view anyone holds is the current one once a get has
patched it. Bottom's view starts empty; any other context's starts as a
copy of its cover's current view (of the bottom view if it has several
covers), made once, and is patched from the whole log of the context's
layer. The links the context copied from its cover at declaration lost no
class of that view, so only the context's own merges move rows. Only rows
that can change are re-canonicalized: a lost root's rows, which move into
its class now, new ids' rows, and the rows over a lost root of the classes
using it (`_uses`, the parent index); every other row keeps its entries,
and a class's rows tuple is replaced exactly when its rows change. An old
row's children are roots before the patch, so it is re-canonicalized
through the lost roots' classes, with no find. `_sig` maps a row to a
class holding it (a kept row whose entry left with a moved copy gets it
back; an entry never names a class that no longer holds its row), and
`clashes` lists pairs of live classes holding a common row, those still
apart from before the patch included: any two classes that share a row are
joined through them, so merging them restores congruence; with no clash,
`_sig[row]` is the one class holding row. So a logged row is still held by
its class when its `_sig` entry names that class, a dict probe; only with a
clash reported is a class's rows scanned as well (`_live`).

Parent index: `_uses` maps a child class to a dict (keys only) of the
classes holding a row over it, so that a listing is tested, added and
dropped in expected constant time however many parents a child has. A class
whose rows move into another leaves its rows' children's dicts, and its new
class is listed as it gains those rows, like any class gaining a row, so
only live parents are listed. A first view's seed copies the mapping, not
its dicts: both chains then share every dict, and each copies a dict on its
first write to it (`_own`, the children whose dict a chain owns).

Row log: matching reads a view as rows `(node, class)`. Each patch appends
every row it adds to a class to its symbol's log as `(version, node, class)`,
at the patched view's version, the e-graph's `version` at the patch (a later
patch follows a change, so it logs at a higher version); a first view starts
from the live entries of the log of the view it copies. An entry dies when
its row leaves its class; a patch counts those per symbol (`_dead`) and drops
a symbol's dead entries, keeping the order, once they outnumber its live
ones; a first view's seed drops the dead entries of the view it copies the
same way, in place, before copying each log whole. Versions rise along the
log, so `_rows(symbol, since)` walks it back to since and keeps the rows
the view still holds: the delta semi-naive matching joins from (see the
rewrite module), and with since = -1 every row of the symbol, which a first
join starts from. `_parents` reads the rows over a child class from the
classes in `_uses`, and `_logged` whether one row was logged in a class
after since. Only this module reads a view's indexes: every other module
reads a view through these methods and four more, whether a query's
symbols `moved` since a visit, the `holder` of a row, the classes that
`reach` a symbol's rows, and the `row_map` a bottom repair takes as the
node store. The queries over a view are the rewrite module's.
"""

from __future__ import annotations

import enum
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

from .egraph import ClassId, EGraph, ENode, FunctionSymbol, _new
from .lattice import BOTTOM, ContextId


@dataclass(slots=True)
class CanonicalView:
    """One context's canonicalized database. A cached view is patched in
    place (see the module docstring); a view from `build_view` is never
    changed."""

    context: ContextId
    classes: dict[ClassId, tuple[ENode, ...]]
    version: int
    # pairs of live classes holding a common row; cached views only
    clashes: list = field(default_factory=list, compare=False, repr=False)
    # patch state of a cached view (see the module docstring): row -> class,
    # child class -> a dict of its parent classes to None (ints only, which
    # the cyclic garbage collector does not track), symbol ->
    # row log of (version, node, class) entries, symbol -> dead entries in
    # its log, and the change-log positions read: (len(lost[BOTTOM]),
    # len(lost[context]), ids made)
    _sig: dict = field(default_factory=dict, compare=False, repr=False)
    _uses: dict = field(default_factory=dict, compare=False, repr=False)
    _log: dict = field(default_factory=dict, compare=False, repr=False)
    _dead: dict = field(default_factory=dict, compare=False, repr=False)
    _marks: tuple = field(default=(0, 0, 0), compare=False, repr=False)
    # the children whose parent dict in _uses is this chain's own
    _own: set = field(default_factory=set, compare=False, repr=False)

    def class_ids(self) -> list[ClassId]:
        return sorted(self.classes)

    def nodes_of(self, c: ClassId) -> tuple[ENode, ...]:
        return self.classes.get(c, ())

    def _rows(self, symbol: FunctionSymbol, since: int) -> list[tuple[ENode, ClassId]]:
        """Rows (node, class) of symbol logged after since that the view
        still holds, tested as `_live` tests them; the log rises in version,
        so the walk back stops at since."""
        out, get = [], self._sig.get
        classes = self.classes if self.clashes else {}
        for version, node, c in reversed(self._log.get(symbol, ())):
            if version <= since:
                break
            if get(node) == c or node in classes.get(c, ()):
                out.append((node, c))
        return out

    def _logged(self, row: ENode, c: ClassId, since: int) -> bool:
        """Whether row was logged in class c after since."""
        for version, node, k in reversed(self._log.get(row[0], ())):
            if version <= since:
                return False
            if k == c and node == row:
                return True
        return False

    def _parents(self, symbol: FunctionSymbol, pos: int, child: ClassId) -> list:
        """Rows (node, class) of symbol whose child at pos is child."""
        return [
            (n, c) for c in self._uses.get(child, ()) for n in self.classes.get(c, ())
            if n.symbol == symbol and n.children[pos] == child
        ]

    def moved(self, symbols, since: int) -> bool:
        """Whether a row of any of symbols was logged after since."""
        log = self._log
        for sym in symbols:
            if (entries := log.get(sym)) and entries[-1][0] > since:
                return True
        return False

    def holder(self, row) -> ClassId | None:
        """A class holding row (every row a class holds has a `_sig` entry),
        or None; with no clash reported, the one class holding row."""
        return self._sig.get(row)

    def reach(self, symbols) -> set[ClassId]:
        """The classes from which a row of one of symbols can be reached."""
        reach = {c for sym in symbols for _, c in self._rows(sym, -1)}
        todo, uses = [*reach], self._uses
        while todo:
            for c in uses.get(todo.pop(), ()):
                if c not in reach:
                    reach.add(c)
                    todo.append(c)
        return reach

    def row_map(self) -> dict[ENode, ClassId]:
        """A copy of the map from each row to a class holding it."""
        return self._sig.copy()


def build_view(eg: EGraph, ctx: ContextId) -> CanonicalView:
    """A fresh view of ctx from a scan of the node store."""
    eg.lattice.check(ctx)
    rep = {c: eg.uf._find(ctx, c) for c in set(eg.nodes().values())}
    grouped: dict[ClassId, set[ENode]] = defaultdict(set)
    for node, c in eg.nodes().items():
        grouped[rep[c]].add(eg.canonical_node(ctx, node))
    classes = {c: tuple(sorted(ns)) for c, ns in grouped.items()}
    return CanonicalView(ctx, classes, eg.version)


def marks(eg: EGraph, ctx: ContextId) -> tuple[int, int, int]:
    """The change log's current positions for ctx: a view patched up to
    them is current."""
    uf = eg.uf
    return len(uf.lost[BOTTOM]), len(uf.lost[ctx]), len(uf)


def _add_rows(view: CanonicalView, c: ClassId, rows) -> None:
    """Record rows of class c in the view's sig and uses, and a clash with
    the class already holding a row."""
    sig, uses, own = view._sig, view._uses, view._own
    for row in rows:
        other = sig.setdefault(row, c)
        if other != c:
            view.clashes.append((other, c))
        for ch in row.children:
            parents = uses.get(ch)
            if parents is None:
                uses[ch] = {c: None}
                own.add(ch)
            elif c not in parents:
                if ch not in own:  # shared with another chain: copied first
                    uses[ch] = parents = parents.copy()
                    own.add(ch)
                parents[c] = None


def _live(view: CanonicalView, entries: list) -> list:
    """The row log entries whose row its class still holds: those whose
    row's `_sig` entry names that class, and with a clash reported, as a
    row may then be held by a class its entry does not name, those found
    in their class's rows."""
    get = view._sig.get
    if view.clashes:
        classes = view.classes
        return [e for e in entries if get(e[1]) == e[2] or e[1] in classes.get(e[2], ())]
    return [e for e in entries if get(e[1]) == e[2]]


def _patch(eg: EGraph, view: CanonicalView) -> None:
    """Bring view up to the change log, in place: its classes, clashes,
    version and marks, and its sig, uses, row log and dead counts."""
    ctx, find, canon = view.context, eg.uf._find, eg.canonical_node
    classes, sig, uses, log, dead, own = (
        view.classes, view._sig, view._uses, view._log, view._dead, view._own
    )
    n_bot, n_ctx, n_ids = view._marks
    # at bottom the two logs are one
    lost = eg.uf.lost[BOTTOM][n_bot:] + (eg.uf.lost[ctx][n_ctx:] if ctx != BOTTOM else [])
    # dirty class -> rows to (re-)add to it; into: lost class -> its class
    # now; over: the classes with a row over a lost root; left: rows that
    # left a class, whose log entries are now dead
    dirty: dict[ClassId, list[ENode]] = {}
    into: dict[ClassId, ClassId] = {}
    over: set[ClassId] = set()
    left: list[ENode] = []
    for x in lost:
        rows = classes.pop(x, None)
        if rows is None:
            continue
        into[x] = t = find(ctx, x)
        dirty.setdefault(t, []).extend(rows)
        left += rows
        over.update(uses.pop(x, ()))
        # x holds no row from now on: it leaves its rows' children's
        # parents, and t is listed there as it gains the rows
        for n in rows:
            for ch in n.children:
                if x in uses.get(ch, ()):
                    if ch not in own:
                        uses[ch] = uses[ch].copy()
                        own.add(ch)
                    del uses[ch][x]
    for i in range(n_ids, len(eg.uf)):
        dirty.setdefault(find(ctx, i), []).append(canon(ctx, eg.created[i]))
    # uses lists only classes live before the patch, so a lost one's class
    # is in into
    get = into.get
    over = {get(p, p) for p in over}
    # a class keeps its rows over no lost root as they are
    lost_roots = into.keys()
    work = []
    for t in (*dirty, *over.difference(dirty)):
        redo, keep = dirty.get(t, []), classes.get(t, ())
        if t in over:
            stale = [n for n in keep if not lost_roots.isdisjoint(n.children)]
            if stale:
                keep = [n for n in keep if lost_roots.isdisjoint(n.children)]
                redo += stale
                left += stale
        if redo:
            work.append((t, keep, redo))
    # drop the sig entries of the rows to re-add before re-adding any, so
    # that a row they still hold and a clean class holds too is reported;
    # a kept row whose entry went with a moved copy points at its class
    dropped = set()
    for t, _, redo in work:
        for row in redo:
            other = sig.get(row)
            if other == t or into.get(other) == t:
                del sig[row]
                dropped.add(row)
    if dropped:
        for t, keep, _ in work:
            for row in dropped.intersection(keep):
                sig.setdefault(row, t)
    view.version, view._marks = eg.version, marks(eg, ctx)
    # a clash was between live classes, so a lost one's class is in into;
    # the list is replaced, not changed, as a seed shares its cover's
    before, view.clashes = view.clashes, []
    for a, b in before:
        a, b = into.get(a, a), into.get(b, b)
        if a != b:
            view.clashes.append((a, b))
    # a row's children were roots, so a lost one's class is in into
    for t, keep, redo in work:
        if len(redo) == 1 and lost_roots.isdisjoint(redo[0].children):
            # one row over no lost root, such as a new id's (three in four
            # on `ac`), needs no set, difference or sort
            new = [] if redo[0] in keep else redo
        else:
            fresh = {
                n if lost_roots.isdisjoint(n.children)
                else _new(ENode, (n.symbol, tuple(map(get, n.children, n.children))))
                for n in redo
            }
            new = sorted(fresh.difference(keep))
        classes[t] = tuple(sorted([*keep, *new]) if new else keep)
        _add_rows(view, t, new)
        for n in new:
            log.setdefault(n.symbol, []).append((view.version, n, t))
    # a symbol's log drops its dead entries once they outnumber the live ones
    for n in left:
        dead[n.symbol] = dead.get(n.symbol, 0) + 1
    for sym in {n.symbol for n in left}:
        if 2 * dead[sym] > len(log[sym]):
            _compact(view, sym)


def _compact(view: CanonicalView, sym: FunctionSymbol) -> None:
    """Drop the dead entries of sym's row log, in place, keeping the order."""
    view._log[sym][:] = _live(view, view._log[sym])
    view._dead[sym] = 0


class ViewCache:
    """Materialized views keyed by context, one each; a view is returned
    as it is while its `_marks` equal the change log's current positions
    for its context, else patched in place first (see the module
    docstring). Holds the e-graph weakly: the e-graph owns its cache, and a
    cycle would leave both to the cyclic garbage collector."""

    def __init__(self, eg: EGraph):
        self._eg = weakref.ref(eg)
        self._views: dict[ContextId, CanonicalView] = {}

    def get(self, ctx: ContextId) -> CanonicalView:
        eg, views = self._eg(), self._views
        view = views.get(ctx)
        if view is None:
            # ctx and the contexts its view is seeded through, down to one
            # with a view, seeded from there up: no recursion at any depth
            chain = [ctx]
            while chain[-1] != BOTTOM and (base := _base(eg, chain[-1])) not in views:
                chain.append(base)
            for c in reversed(chain):
                view = views[c] = self._seed(eg, c)
                _patch(eg, view)
        elif view._marks != marks(eg, ctx):
            _patch(eg, view)
        return view

    def _seed(self, eg: EGraph, ctx: ContextId) -> CanonicalView:
        """ctx's view before its first patch: at bottom an empty view, else
        a copy of its base's current view (`_base`) with ctx's whole layer
        log still to read; the links it copied from the cover pop no class
        of that view. The base view's dead row log entries are dropped
        first, in place, as a patch drops them (a row dead below ctx stays
        dead at ctx), so each log is copied whole."""
        if ctx == BOTTOM:
            return CanonicalView(BOTTOM, {}, 0)
        base = self.get(_base(eg, ctx))
        for sym, n in base._dead.items():
            if n:
                _compact(base, sym)
        # both chains now share every parent dict: each copies one on its
        # first write
        base._own.clear()
        return CanonicalView(
            ctx, base.classes.copy(), base.version, base.clashes,
            base._sig.copy(), base._uses.copy(),
            {sym: entries.copy() for sym, entries in base._log.items()}, {},
            (base._marks[0], 0, base._marks[2]),
        )


def _base(eg: EGraph, ctx: ContextId) -> ContextId:
    """ctx's one cover, or bottom if it has several: its first view's base."""
    covers = eg.lattice.covers(ctx)
    return min(covers) if len(covers) == 1 else BOTTOM


class Strategy(enum.Enum):
    """Which database `Engine.ematch` reads; the engine itself always uses
    MATERIALIZED, and ON_THE_FLY selects the reference provider."""

    MATERIALIZED = "materialized"
    ON_THE_FLY = "on-the-fly"


class OnTheFlyProvider:
    """Canonicalizes per query, lazily per requested class, and keeps no
    snapshot and no row log."""

    def __init__(self, eg: EGraph, ctx: ContextId):
        self.eg = eg
        self.ctx = ctx
        self._memo: dict[ClassId, tuple[ENode, ...]] = {}

    def class_ids(self) -> list[ClassId]:
        return self.eg.class_ids(self.ctx)

    def nodes_of(self, c: ClassId) -> tuple[ENode, ...]:
        got = self._memo.get(c)
        if got is None:
            got = tuple(sorted(self.eg.class_nodes(self.ctx, c)))
            self._memo[c] = got
        return got

    def _rows(self, symbol: FunctionSymbol, since: int) -> list[tuple[ENode, ClassId]]:
        """Every row (node, class) of symbol: the provider keeps no log."""
        return [(n, c) for c in self.class_ids() for n in self.nodes_of(c) if n.symbol == symbol]
