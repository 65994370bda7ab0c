"""Finite context lattice with a bottom element.

Contexts are opaque labels ordered by a user-declared cover relation. The
bottom context (index 0, named "bot" by default) sits below every other
element. Greatest lower bounds are validated to be unique eagerly at
declaration time, since meet is load-bearing for promoting contextual
equalities; least upper bounds are validated lazily because nothing in the
engine needs arbitrary joins.

Declaration is single-writer; the query operations (leq, meet, join, upset)
read per-element downsets, which never change, and upsets, which each
declaration grows in place by its one id, and are safe to call from any
thread once declaration has quiesced. A declaration extends the upsets below
it only once its validation has succeeded, so a refused one changes none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DuplicateContext, NoUpperBound, NotALattice, UnknownContext

ContextId = int

BOTTOM: ContextId = 0


@dataclass
class _Element:
    name: str
    covers: frozenset[int]
    below: frozenset[int]  # downset: every id <= this one, itself included
    above: set[int]  # upset: every id >= this one, itself included; grows


@dataclass
class ContextLattice:
    bottom_name: str = "bot"
    _elements: list[_Element] = field(default_factory=list)
    _by_name: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self._elements:
            self._elements.append(
                _Element(self.bottom_name, frozenset(), frozenset({BOTTOM}), {BOTTOM})
            )
            self._by_name[self.bottom_name] = BOTTOM

    def __len__(self) -> int:
        return len(self._elements)

    def ids(self) -> range:
        return range(len(self._elements))

    def name(self, c: ContextId) -> str:
        self._check(c)
        return self._elements[c].name

    def id_of(self, name: str) -> ContextId:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownContext(f"context {name!r} is not declared") from None

    def has_name(self, name: str) -> bool:
        return name in self._by_name

    def covers(self, c: ContextId) -> frozenset[int]:
        self._check(c)
        return self._elements[c].covers

    def declare_context(self, name: str, covers: set[ContextId] | frozenset[ContextId]) -> ContextId:
        """Add a new element strictly above every cover.

        An empty cover set means covering bottom. Raises NotALattice (and
        leaves the lattice unchanged) if the new element would give some pair
        of elements two incomparable maximal lower bounds.
        """
        if name in self._by_name:
            raise DuplicateContext(f"context {name!r} already declared")
        covers = frozenset(covers) if covers else frozenset({BOTTOM})
        for c in covers:
            self._check(c)
        new_id = len(self._elements)
        below = frozenset({new_id}).union(*(self._elements[c].below for c in covers))
        elem = _Element(name, covers, below, {new_id})
        self._elements.append(elem)
        # one cover g: meet(x, y) = meet(g, y) for every older y, and no older
        # pair gains a lower bound, so only a join of covers can break the lattice
        if len(covers) > 1:
            try:
                for other in range(new_id):
                    self._glb(new_id, other)
            except NotALattice:
                self._elements.pop()
                raise
        for c in below - {new_id}:
            self._elements[c].above.add(new_id)
        self._by_name[name] = new_id
        return new_id

    def leq(self, a: ContextId, b: ContextId) -> bool:
        self._check(a)
        self._check(b)
        return a in self._elements[b].below

    def meet(self, a: ContextId, b: ContextId) -> ContextId:
        self._check(a)
        self._check(b)
        return self._glb(a, b)

    def join(self, a: ContextId, b: ContextId) -> ContextId:
        """Least upper bound among declared elements.

        In a finite meet-semilattice the upper-bound set is closed under
        meet, so folding meet over it yields the least element whenever the
        set is non-empty.
        """
        self._check(a)
        self._check(b)
        uppers = [c for c in self.ids() if self.leq(a, c) and self.leq(b, c)]
        if not uppers:
            raise NoUpperBound(
                f"no declared context is above both "
                f"{self.name(a)!r} and {self.name(b)!r}"
            )
        out = uppers[0]
        for c in uppers[1:]:
            out = self._glb(out, c)
        return out

    def upset(self, c: ContextId) -> set[ContextId]:
        """Every id >= c: a live set that declarations grow; do not change it."""
        self._check(c)
        return self._elements[c].above

    def topo_order(self) -> list[ContextId]:
        """All ids, every element after everything below it.

        Declaration order is already topological because covers must exist
        before they are covered.
        """
        return list(self.ids())

    def check(self, c: ContextId) -> None:
        """Raise UnknownContext unless c is a declared id."""
        self._check(c)

    def _glb(self, a: int, b: int) -> int:
        lower = self._elements[a].below & self._elements[b].below
        maximal = [
            x for x in lower
            if not any(y != x and x in self._elements[y].below for y in lower)
        ]
        if len(maximal) != 1:
            names = sorted(self._elements[x].name for x in maximal)
            raise NotALattice(
                f"contexts {self._elements[a].name!r} and {self._elements[b].name!r} "
                f"have {len(maximal)} maximal lower bounds: {names}"
            )
        return maximal[0]

    def _check(self, c: ContextId) -> None:
        if not isinstance(c, int) or not 0 <= c < len(self._elements):
            raise UnknownContext(f"context id {c!r} is not declared")
