"""Layered union-find: one equivalence relation per context.

The bottom context's relation lives in an ordinary parent forest. Every
non-bottom context holds a sparse overlay dict mapping a base-canonical id to
a smaller id it was merged with in that context. A find at context c chases
base links and c's overlay links alternately; since every link points to a
strictly smaller id and the base representative is the minimum of its class,
the chase terminates at the class minimum, which doubles as the deterministic
representative.

Two maintenance duties keep overlays coherent:

- a union recorded at context c is written into the overlay of every context
  above c, so order preservation (c1 <= c2 implies the relation at c1 is
  contained in the one at c2) holds by construction;
- a union at bottom can strand overlay keys that are no longer
  base-canonical, so base unions immediately re-key affected overlay entries
  (the relation itself is unchanged by the repair).

A context's overlay is made in one place, `register_context`: the
constructor calls it for the contexts the lattice already holds, and the
e-graph as it declares each later one, so every read finds `_overlay[ctx]`
and the public entry points need only validate ctx with the lattice. A
context declared after unions have happened starts from its covers'
relations, which preserves order for late arrivals: a context with one
cover copies that cover's overlay dict (an empty one over bottom) and logs
no lost root, as it loses none of the cover's layer; a context with several
covers links in every overlay link of each cover.

Change log: `lost[ctx]` lists, in order, every id that stopped being a root
in ctx's layer (the base forest for bottom, the overlay otherwise). A root at
ctx stops being one through a base union or a link in ctx's overlay, so the
roots ctx lost since some moment are the new entries of `lost[BOTTOM]` and
`lost[ctx]`; cached views patch themselves from them (see the views module).
`changes` counts the ids made and the unions that merged, so it moves with
every change to some relation (the e-graph's `version` reads it).

Single-writer; partitions are returned as frozen sets safe to share.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import NotBelow, UnknownNode
from .lattice import BOTTOM, ContextId, ContextLattice

NodeId = int


class LayeredUnionFind:
    def __init__(self, lattice: ContextLattice):
        self.lattice = lattice
        self._parent: list[int] = []
        self._overlay: dict[ContextId, dict[int, int]] = {}
        # successful unions per recording context, for reports and saturation checks
        self.unions_at: dict[ContextId, int] = defaultdict(int)
        # per layer, the roots it lost, in order (see the module docstring)
        self.lost: dict[ContextId, list[int]] = defaultdict(list)
        self.changes = 0
        for c in lattice.ids():
            if c != BOTTOM:
                self.register_context(c)

    def __len__(self) -> int:
        return len(self._parent)

    def register_context(self, ctx: ContextId) -> None:
        """Initialize a freshly declared context from its covers' relations."""
        if ctx in self._overlay or ctx == BOTTOM:
            return
        # validates ctx before anything is written for it
        covers = self.lattice.covers(ctx)
        if len(covers) == 1:
            # the cover's relation, link for link: it lost no root of the
            # cover's layer, so lost[ctx] starts empty
            (cover,) = covers
            self._overlay[ctx] = {} if cover == BOTTOM else self._overlay[cover].copy()
            return
        self._overlay[ctx] = {}
        for cover in covers:
            if cover == BOTTOM:
                continue
            for k, v in list(self._overlay[cover].items()):
                self._link_in_layer(ctx, k, v)

    def make_set(self) -> NodeId:
        i = len(self._parent)
        self._parent.append(i)
        self.changes += 1
        return i

    def find(self, ctx: ContextId, x: NodeId) -> NodeId:
        self.lattice.check(ctx)
        self._check_node(x)
        return self._find(ctx, x)

    # find for ids the package already holds: no validation
    def _find(self, ctx: ContextId, x: NodeId) -> NodeId:
        p = self._parent
        r = p[x]
        if p[r] != r:
            r = self._base_find(x)
        if ctx == BOTTOM:
            return r
        ov = self._overlay[ctx]
        nxt = ov.get(r)
        if nxt is None:
            return r
        chain = []
        while nxt is not None:
            chain.append(r)
            r = self._base_find(nxt)
            nxt = ov.get(r)
        for k in chain:
            if k != r:
                ov[k] = r
        return r

    def equiv(self, ctx: ContextId, a: NodeId, b: NodeId) -> bool:
        self.lattice.check(ctx)
        self._check_node(a)
        self._check_node(b)
        return self._find(ctx, a) == self._find(ctx, b)

    def union_new(self, ctx: ContextId, a: NodeId, b: NodeId) -> bool:
        """Union a and b at ctx (and above); report whether anything merged
        at ctx."""
        self.lattice.check(ctx)
        self._check_node(a)
        self._check_node(b)
        return self._union(ctx, a, b)

    def partition(self, ctx: ContextId) -> frozenset[frozenset[NodeId]]:
        self.lattice.check(ctx)
        blocks: dict[int, list[int]] = defaultdict(list)
        for i in range(len(self._parent)):
            blocks[self._find(ctx, i)].append(i)
        return frozenset(frozenset(b) for b in blocks.values())

    def intersect_into(self, lo: ContextId, c1: ContextId, c2: ContextId) -> int:
        """Coarsen lo by every equality shared between c1 and c2.

        The new relation at lo is the transitive closure of the old one
        together with the intersection of the relations at c1 and c2. Base
        roots are grouped on the pair of their representatives in c1 and c2;
        roots in one group are pairwise equal in both contexts, so they may
        be merged at lo (an id is already merged with its base root). A base
        root that is an overlay key at neither context is its own
        representative in both, so only overlay keys need grouping, and a
        group whose two representatives agree also holds that representative.

        Keys of lo's own overlay are not grouped: such a key k is lo-equal
        to r = find(lo, k), no lo key, which as lo is below c1 and c2 has
        k's representatives there. So r is grouped itself (a key at c1 or
        c2) or heads k's group (its own representative at both), and k's
        merges, like its lo-class, are r's: dropping k changes neither the
        relation at lo nor the count. A group's head is not unioned with
        itself, so a key alone in its group, the common case, costs no
        union. Returns the number of merges that were new at lo.
        """
        if not (self.lattice.leq(lo, c1) and self.lattice.leq(lo, c2)):
            raise NotBelow(
                f"intersect target {self.lattice.name(lo)!r} is not below both "
                f"{self.lattice.name(c1)!r} and {self.lattice.name(c2)!r}"
            )
        keys = {k for c in (c1, c2) if c != BOTTOM for k in self._overlay[c]}
        if lo != BOTTOM:
            keys -= self._overlay[lo].keys()
        groups: dict[tuple[int, int], list[int]] = defaultdict(list)
        for k in keys:
            groups[(self._find(c1, k), self._find(c2, k))].append(k)
        count = 0
        for (r1, r2), members in groups.items():
            head = r1 if r1 == r2 else members[0]
            for other in members:
                if other != head and self._union(lo, head, other):
                    count += 1
        return count

    def total_unions(self) -> int:
        return sum(self.unions_at.values())

    # internal

    def _union(self, ctx: ContextId, a: NodeId, b: NodeId) -> bool:
        # a link writes only its own layer, so the upset is walked in any
        # order; the link at ctx merges, as the finds there differ
        if ctx == BOTTOM:
            if not self._base_union(a, b):
                return False
        elif self._find(ctx, a) == self._find(ctx, b):
            return False
        else:
            for u in self.lattice.upset(ctx):
                self._link_in_layer(u, a, b)
        self.unions_at[ctx] += 1
        self.changes += 1
        return True

    def _base_find(self, x: int) -> int:
        p = self._parent
        r = x
        while p[r] != r:
            r = p[r]
        while p[x] != r:
            p[x], x = r, p[x]
        return r

    def _base_union(self, a: int, b: int) -> bool:
        ra, rb = self._base_find(a), self._base_find(b)
        if ra == rb:
            return False
        winner, loser = min(ra, rb), max(ra, rb)
        self._parent[loser] = winner
        self.lost[BOTTOM].append(loser)
        for ctx, ov in self._overlay.items():
            if loser in ov:
                p = ov.pop(loser)
                self._link_in_layer(ctx, winner, p)
        return True

    def _link_in_layer(self, ctx: ContextId, a: int, b: int) -> bool:
        ra, rb = self._find(ctx, a), self._find(ctx, b)
        if ra == rb:
            return False
        winner, loser = min(ra, rb), max(ra, rb)
        self._overlay[ctx][loser] = winner
        self.lost[ctx].append(loser)
        return True

    def _check_node(self, x: NodeId) -> None:
        if type(x) is not int or not 0 <= x < len(self._parent):
            raise UnknownNode(f"node id {x!r} was never created")
