"""Finite context lattice with a bottom element.

Contexts are opaque labels ordered by a user-declared cover relation. The
bottom context (id 0, named "bot") sits below every other element. Each
element keeps its name, its covers and its downset as one int, a bitmask
with bit x set when x is at or below it. A declaration ORs its covers' masks
and writes nothing to older elements, so a refused one changes nothing.

Ids are topological, as a cover is declared before anything above it, so
each query is one mask operation or one short scan. `leq(a, b)` reads bit a
of b's mask. The AND of two masks holds the common lower bounds; its highest
id `top` has no bound above it, so the greatest lower bound exists exactly
when every bound is at or below `top` (checked eagerly at declaration, where
only a join of several covers can break it). The upper bounds of two
elements are closed under meet, so their least one lies below the others
and has the lowest id: `join` returns the lowest id above both. `upset(c)`
scans the ids from c up for bit c.

Declaration is single-writer; the queries are safe to call from any thread
once declaration has quiesced.
"""

from __future__ import annotations

from .errors import DuplicateContext, NoUpperBound, NotALattice, UnknownContext

ContextId = int

BOTTOM: ContextId = 0


class ContextLattice:
    def __init__(self):
        self._names: list[str] = ["bot"]
        self._covers: list[frozenset[int]] = [frozenset()]
        # per id, its downset: bit x is set when x is at or below it
        self._down: list[int] = [1 << BOTTOM]
        self._ids: dict[str, int] = {"bot": BOTTOM}

    def __len__(self) -> int:
        return len(self._down)

    def ids(self) -> range:
        return range(len(self._down))

    def name(self, c: ContextId) -> str:
        self._check(c)
        return self._names[c]

    def id_of(self, name: str) -> ContextId:
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownContext(f"context {name!r} is not declared") from None

    def has_name(self, name: str) -> bool:
        return name in self._ids

    def covers(self, c: ContextId) -> frozenset[int]:
        self._check(c)
        return self._covers[c]

    def declare_context(self, name: str, covers: set[ContextId] | frozenset[ContextId]) -> ContextId:
        """Add a new element strictly above every cover.

        An empty cover set means covering bottom. Raises NotALattice (and
        leaves the lattice unchanged) if the new element would give some pair
        of elements two incomparable maximal lower bounds.
        """
        if name in self._ids:
            raise DuplicateContext(f"context {name!r} already declared")
        covers = frozenset(covers) if covers else frozenset({BOTTOM})
        for c in covers:
            self._check(c)
        new_id = len(self._down)
        down = 1 << new_id
        for c in covers:
            down |= self._down[c]
        # one cover g: meet(x, y) = meet(g, y) for every older y, and no older
        # pair gains a lower bound, so only a join of covers can break the lattice
        if len(covers) > 1:
            for other in range(new_id):
                self._glb(name, self._names[other], down & self._down[other])
        self._names.append(name)
        self._covers.append(covers)
        self._down.append(down)
        self._ids[name] = new_id
        return new_id

    def leq(self, a: ContextId, b: ContextId) -> bool:
        self._check(a)
        self._check(b)
        return self._down[b] >> a & 1 == 1

    def meet(self, a: ContextId, b: ContextId) -> ContextId:
        self._check(a)
        self._check(b)
        return self._glb(self._names[a], self._names[b], self._down[a] & self._down[b])

    def join(self, a: ContextId, b: ContextId) -> ContextId:
        """Least upper bound among declared elements: the lowest id above
        both (see the module docstring)."""
        self._check(a)
        self._check(b)
        both = 1 << a | 1 << b
        down = self._down
        for x in range(max(a, b), len(down)):
            if down[x] & both == both:
                return x
        raise NoUpperBound(
            f"no declared context is above both "
            f"{self._names[a]!r} and {self._names[b]!r}"
        )

    def upset(self, c: ContextId) -> list[ContextId]:
        """Every id >= c, ascending, in a fresh list."""
        self._check(c)
        down = self._down
        out = []
        for x in range(c, len(down)):
            if down[x] >> c & 1:
                out.append(x)
        return out

    def topo_order(self) -> list[ContextId]:
        """All ids, every element after everything below it.

        Declaration order is already topological because covers must exist
        before they are covered.
        """
        return list(self.ids())

    def check(self, c: ContextId) -> None:
        """Raise UnknownContext unless c is a declared id."""
        self._check(c)

    def _glb(self, a: str, b: str, lower: int) -> int:
        """The greatest of `lower`, the common lower bounds of the contexts
        named a and b; NotALattice unless each bound is at or below it."""
        top = lower.bit_length() - 1
        if not lower & ~self._down[top]:
            return top
        # descending, a bound is maximal unless one listed before is above it
        maximal, covered = [], 0
        for x in range(top, -1, -1):
            if lower >> x & 1 and not covered >> x & 1:
                maximal.append(x)
                covered |= self._down[x]
        names = sorted(self._names[x] for x in maximal)
        raise NotALattice(
            f"contexts {a!r} and {b!r} have {len(maximal)} maximal lower bounds: {names}"
        )

    def _check(self, c: ContextId) -> None:
        if type(c) is not int or not 0 <= c < len(self._down):
            raise UnknownContext(f"context id {c!r} is not declared")
