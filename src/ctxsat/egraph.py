"""Contextual e-graph: a global term store over per-context equivalences.

E-nodes are stored once, keyed by their symbol and bottom-canonical children.
Only the equivalence relation is contextual, so a merge at a context never
copies nodes; it just coarsens that context's partition (and, by order
preservation, every context above it).

rebuild() restores congruence separately in every context: after it returns,
any two stored nodes with the same symbol and children equal at context c
belong to classes equal at c. Congruence unions discovered at c are recorded
at c, the lowest context that justifies them.

Change log and repair: the union-find logs every root a layer loses
(LayeredUnionFind.lost), and add_node records the node each new id was
created for (`created`). That log is the e-graph's one record of change: the
roots c lost since some moment are the new entries of the bottom log and of
c's, and c's new rows are those of the ids made since. `version` counts the
ids made, the unions that merged and the contexts declared, so it moves with
every change, a union made through `uf` directly included; semi-naive
matching reads it as its clock. The e-graph owns one ViewCache, `views`,
which patches each context's one cached view in place from that log and
reports the view's clashes: two live classes that hold the same canonical
row, which congruence must merge. A repair, at bottom as at every other
context, unions the clashes of the context's view until the patched view
reports none, so its cost follows what changed. The bottom view is the
class index (`classes`, live): bottom root -> its bottom-canonical nodes.
Each bottom repair leaves the node store that add_node hash-conses against
a copy of the bottom view's row map, then each row's one class. The cache
holds the e-graph weakly, so the two form no reference cycle and reference
counting frees them.

FunctionSymbol, ENode and Term are named tuples, hashed and compared in C
(each equals the plain tuple with the same fields). The hot sites build an
ENode from its (symbol, children) pair with the C tuple constructor
(`_new(ENode, pair)`), not the named tuple's `__new__`, which runs in Python.
Ids are checked once, at the public entry points; the engine's own adds go
through `_add`, which trusts its ids and builds an ENode only for a node it
stores.

Right-hand sides are probed, as in egg's hash-consing: `_instantiate` runs
a rule's compiled right-hand side (see the rewrite module) over its
matches, and a step whose node is already stored costs an inline root
test per child (an id whose parent is a base root needs no find call) and
one probe of the node store, with no call of `_add`, which only a miss
reaches. Each match then makes its one union.

`intern` keeps a memo keyed by object identity: for each term object it was
called on, the term and the class it was interned into. An entry holds its
term, so no other object can take that id while the entry lives, and a hit
returns the bottom root of the stored class, which stays the term's class
because ids only ever merge. So a term restated by object (the DSL
hash-conses a program's terms per parse) costs one dict probe, even between
a bottom merge and the next rebuild, when a walk over the node store's old
keys could add a duplicate node. The memo never compares terms by value,
which for a deep tuple term would recurse in C.

`term_in_class` reads the cached view and walks its term without
recursion, so a term of any depth is found.

Single-writer: all mutation goes through one engine thread. Reads between
mutations (stats, class_nodes, find) are safe to share.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from .errors import (
    ArityMismatch,
    DuplicateSymbol,
    NegativeArity,
    UnknownNode,
    UnknownSymbol,
)
from .lattice import BOTTOM, ContextId, ContextLattice
from .layered_uf import LayeredUnionFind, NodeId

ClassId = NodeId


class FunctionSymbol(NamedTuple):
    name: str
    arity: int

    def __repr__(self):
        return f"{self.name}/{self.arity}"


class ENode(NamedTuple):
    symbol: FunctionSymbol
    children: tuple[ClassId, ...]


# tuple.__new__(ENode, (symbol, children)) builds an ENode in C
_new = tuple.__new__


def node_key(node: ENode):
    """Deterministic node order: symbol name, arity, then children. An ENode
    compares as this key does, so `sorted(nodes)` gives the same order."""
    return (node.symbol.name, node.symbol.arity, node.children)


class Term(NamedTuple):
    """A ground tree-shaped term, by symbol name (resolved at intern time).
    Equal to the plain tuple (symbol, children)."""

    symbol: str
    children: tuple["Term", ...] = ()

    def __str__(self):
        # without recursion, so a term of any depth prints; `todo` holds the
        # terms still to print, each after a space, and closing parentheses
        out, todo = [], [self]
        while todo:
            t = todo.pop()
            if type(t) is str:
                out.append(t)
            elif t.children:
                out.append(" (" + t.symbol)
                todo.append(")")
                todo += t.children[::-1]
            else:
                out.append(" " + t.symbol)
        return "".join(out)[1:]


def term(symbol: str, *children: Term) -> Term:
    return Term(symbol, tuple(children))


class EGraph:
    def __init__(self, lattice: ContextLattice | None = None):
        self.lattice = lattice or ContextLattice()
        self.uf = LayeredUnionFind(self.lattice)
        self._symbols: dict[tuple[str, int], FunctionSymbol] = {}
        self._arities: dict[str, set[int]] = {}
        # node -> class holding it; keys use bottom-canonical children
        self._nodes: dict[ENode, ClassId] = {}
        # the version the last rebuild finished at
        self._rebuilt_at = 0
        # id -> the node it was created for, as add_node saw it
        self.created: list[ENode] = []
        # id(term) -> (term, its class when interned), for each term intern
        # was called on; an entry holds its term, so the id stays its own
        self._interned: dict[int, tuple[Term, ClassId]] = {}
        from .views import ViewCache  # views imports this module

        self.views = ViewCache(self)

    # symbols

    def declare_function(self, name: str, arity: int) -> FunctionSymbol:
        if arity < 0:
            raise NegativeArity(f"function {name} declared with arity {arity}")
        key = (name, arity)
        if key in self._symbols:
            raise DuplicateSymbol(f"function {name}/{arity} already declared")
        sym = FunctionSymbol(name, arity)
        self._symbols[key] = sym
        self._arities.setdefault(name, set()).add(arity)
        return sym

    def symbol(self, name: str, arity: int) -> FunctionSymbol:
        try:
            return self._symbols[(name, arity)]
        except KeyError:
            pass
        if name in self._arities:
            raise ArityMismatch(
                f"{name} is declared with arity {sorted(self._arities[name])}, not {arity}"
            )
        raise UnknownSymbol(f"function {name!r} is not declared")

    def symbols(self) -> list[FunctionSymbol]:
        return list(self._symbols.values())

    # contexts

    def declare_context(self, name: str, covers: set[ContextId]) -> ContextId:
        cid = self.lattice.declare_context(name, covers)
        self.uf.register_context(cid)
        return cid

    def context(self, name: str) -> ContextId:
        return self.lattice.id_of(name)

    # nodes and terms

    def find(self, ctx: ContextId, c: ClassId) -> ClassId:
        return self.uf.find(ctx, c)

    def canonical_node(self, ctx: ContextId, node: ENode) -> ENode:
        # node's children must be known ids: they are not validated. An
        # unchanged node is returned as is, so views share the store's nodes
        children = tuple(map(self.uf._find, repeat(ctx), node.children))
        return node if children == node.children else _new(ENode, (node.symbol, children))

    def add_node(self, symbol: FunctionSymbol, children: tuple[ClassId, ...]) -> ClassId:
        """Hash-cons an e-node; fresh nodes start as singleton classes."""
        if len(children) != symbol.arity:
            raise ArityMismatch(
                f"{symbol!r} applied to {len(children)} children"
            )
        for ch in children:
            self.uf._check_node(ch)
        return self._add(symbol, children)

    # add_node for a symbol of the right arity over ids the package holds
    def _add(self, symbol: FunctionSymbol, children) -> ClassId:
        find = self.uf._base_find
        key = (symbol, tuple(map(find, children)))
        existing = self._nodes.get(key)
        if existing is not None:
            return find(existing)
        cls = self.uf.make_set()
        self.created.append(node := _new(ENode, key))
        self._nodes[node] = cls
        return cls

    def _instantiate(self, ctx: ContextId, rhs: tuple, matches: list[tuple]) -> None:
        """Add a compiled right-hand side (see the rewrite module) over each
        match, a slot tuple, and union it with the match's root at ctx. A
        step whose node is stored costs a root test per child and one probe
        of the node store; only a miss goes through `_add`."""
        p, nodes, base_find = self.uf._parent, self._nodes, self.uf._base_find
        add, union = self._add, self.uf._union
        steps, top = rhs
        for m in matches:
            env = [*m]
            for sym, args in steps:
                # an id's base root: its parent, unless that is no root
                kids = ()
                for a in args:
                    r = p[x := env[a]]
                    kids += (r if p[r] == r else base_find(x),)
                # a stored node's class, root or not: a later step roots
                # its children, and the union finds its own
                c = nodes.get((sym, kids))
                env.append(add(sym, kids) if c is None else c)
            union(ctx, m[0], env[top])

    def intern(self, t: Term) -> ClassId:
        """Add a term bottom-up; idempotent on structurally equal terms.

        Returns a bottom representative: apply find(ctx, .) before any
        context-sensitive comparison. Iterative, in post-order with children
        left to right, so any depth interns. A term object interned before
        costs one probe of the identity memo: its class then is still its
        class, as ids only merge, and the memo never compares terms by value.
        """
        hit = self._interned.get(id(t))
        if hit is not None:
            return self.uf._base_find(hit[1])
        # parents first, each one's last child first: reversed, that is
        # post-order with children left to right
        order, todo = [], [t]
        while todo:
            order.append(x := todo.pop())
            todo += x.children
        ids: list[ClassId] = []
        for x in reversed(order):
            k = len(ids) - len(x.children)
            ids[k:] = [self._add(self.symbol(x.symbol, len(x.children)), tuple(ids[k:]))]
        self._interned[id(t)] = t, ids[0]
        return ids[0]

    def merge(self, ctx: ContextId, a: ClassId, b: ClassId) -> ClassId:
        """Union two classes at ctx (visible at every context above)."""
        self.uf.union_new(ctx, a, b)
        return self.uf._find(ctx, a)

    def equiv(self, ctx: ContextId, a: ClassId, b: ClassId) -> bool:
        return self.uf.equiv(ctx, a, b)

    @property
    def version(self) -> int:
        """Moves with every change: the ids made, the unions that merged and
        the contexts declared."""
        return self.uf.changes + len(self.lattice)

    # congruence maintenance

    def rebuild(self) -> int:
        """Restore per-context congruence; returns the number of repairs.

        Repairs every context in one bottom-up sweep, which reaches the
        fixpoint: only the bottom repair changes the bottom relation, a
        repair at ctx writes unions only into the upset of ctx, and
        topo_order puts that upset after ctx. A context whose cached view is
        current and reports no clash costs one comparison of log positions;
        nothing at all is done while the version has not moved since the
        last rebuild.
        """
        if self.version == self._rebuilt_at:
            return 0
        repairs = sum(map(self._repair, self.lattice.topo_order()))
        self._rebuilt_at = self.version
        return repairs

    def _repair(self, ctx: ContextId) -> int:
        """Congruence closure at ctx: merge the clashes of ctx's patched view
        (classes whose nodes canonicalize alike) until it reports none. At
        bottom, the node store is then a copy of the repaired view's row map."""
        repairs, union = 0, self.uf._union
        while (view := self.views.get(ctx)).clashes:
            for a, b in view.clashes:
                if union(ctx, a, b):
                    repairs += 1
        if ctx == BOTTOM:
            self._nodes = view.row_map()
        return repairs

    # views

    def class_ids(self, ctx: ContextId) -> list[ClassId]:
        """Canonical representatives of every class at ctx, ascending."""
        self.lattice.check(ctx)
        return sorted({self.uf._find(ctx, c) for c in set(self._nodes.values())})

    def class_of_node(self, node: ENode) -> ClassId:
        canon = self.canonical_node(BOTTOM, node)
        try:
            return self.uf._find(BOTTOM, self._nodes[canon])
        except KeyError:
            raise UnknownNode(f"node {node} is not stored") from None

    def nodes(self) -> dict[ENode, ClassId]:
        return self._nodes

    def classes(self) -> dict[ClassId, tuple[ENode, ...]]:
        """The class index, the bottom view: root -> canonical nodes. Live:
        the cache patches this dict in place, so do not change it."""
        return self.views.get(BOTTOM).classes

    def class_nodes(self, ctx: ContextId, c: ClassId) -> set[ENode]:
        """Deduplicated ctx-canonical nodes of c's class at ctx, by a scan of
        the node store (a reference the cached views are tested against)."""
        r = self.find(ctx, c)
        return {
            self.canonical_node(ctx, node)
            for node, cls in self._nodes.items()
            if self.uf._find(ctx, cls) == r
        }

    def stats(self, ctx: ContextId) -> tuple[int, int]:
        """(class count, canonical node count) over the ctx view."""
        classes = self.class_ids(ctx)
        canon = {self.canonical_node(ctx, node) for node in self._nodes}
        return len(classes), len(canon)

    def term_in_class(self, ctx: ContextId, t: Term, c: ClassId) -> bool:
        """Is t derivable from c's class over ctx's cached view? Subterms are
        numbered breadth-first, so a child's number exceeds its parent's; the
        goals (subterm, class) reachable from (0, c) are decided from the
        highest number down, with no recursion and no Term hashed."""
        goal = (0, self.find(ctx, c))
        view = self.views.get(ctx)
        terms, kids = [t], []
        for t in terms:  # grows while it is walked
            kids.append(range(len(terms), len(terms) + len(t.children)))
            terms += t.children
        syms = [self.symbol(t.symbol, len(t.children)) for t in terms]
        # goal -> the child goals of each of its class's nodes that fits
        subgoals, work = {}, [goal]
        for p, d in work:  # grows while it is walked
            if (p, d) not in subgoals:
                fits = [n.children for n in view.nodes_of(d) if n.symbol == syms[p]]
                subgoals[p, d] = subs = [tuple(zip(kids[p], ch)) for ch in fits]
                work += [g for sub in subs for g in sub]
        holds = set()
        for g in sorted(subgoals, reverse=True):
            if any(map(holds.issuperset, subgoals[g])):
                holds.add(g)
        return goal in holds
