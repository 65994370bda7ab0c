import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxsat.errors import DuplicateContext, NoUpperBound, NotALattice, UnknownContext
from ctxsat.lattice import BOTTOM, ContextLattice

from oracles import brute_glb, brute_lub


def branch_lattice():
    lat = ContextLattice()
    then = lat.declare_context("then", {BOTTOM})
    els = lat.declare_context("else", {BOTTOM})
    return lat, then, els


def test_bottom_exists_at_index_zero():
    lat = ContextLattice()
    assert lat.id_of("bot") == BOTTOM
    assert lat.name(BOTTOM) == "bot"
    assert len(lat) == 1


def test_two_incomparable_contexts_above_bottom():
    lat, then, els = branch_lattice()
    assert lat.leq(BOTTOM, then) and lat.leq(BOTTOM, els)
    assert not lat.leq(then, els)
    assert not lat.leq(els, then)


def test_two_element_chain():
    lat = ContextLattice()
    s = lat.declare_context("s", {BOTTOM})
    assert lat.leq(BOTTOM, s)
    assert not lat.leq(s, BOTTOM)
    assert set(lat.upset(s)) == {s}
    assert set(lat.upset(BOTTOM)) == {BOTTOM, s}


def test_declared_join_of_incomparable_pair():
    lat, a, b = branch_lattice()
    d = lat.declare_context("d", {a, b})
    assert lat.leq(a, d) and lat.leq(b, d)
    assert lat.join(a, b) == d
    assert lat.meet(a, d) == a


def test_leq_basics():
    lat, then, els = branch_lattice()
    for c in lat.ids():
        assert lat.leq(BOTTOM, c)
        assert lat.leq(c, c)
    assert not lat.leq(then, els)


def test_meet_examples():
    lat, then, els = branch_lattice()
    assert lat.meet(then, els) == BOTTOM
    assert lat.meet(then, BOTTOM) == BOTTOM
    assert lat.meet(then, then) == then


def test_join_examples():
    lat, then, els = branch_lattice()
    assert lat.join(BOTTOM, then) == then
    with pytest.raises(NoUpperBound):
        lat.join(then, els)


def test_upset_of_branch_is_itself():
    lat, then, els = branch_lattice()
    assert set(lat.upset(then)) == {then}


def test_duplicate_name_rejected():
    lat, then, _ = branch_lattice()
    with pytest.raises(DuplicateContext):
        lat.declare_context("then", {BOTTOM})


def test_unknown_cover_rejected():
    lat = ContextLattice()
    with pytest.raises(UnknownContext):
        lat.declare_context("x", {7})


def test_unknown_context_queries():
    lat = ContextLattice()
    with pytest.raises(UnknownContext):
        lat.leq(0, 3)
    with pytest.raises(UnknownContext):
        lat.upset(-1)
    with pytest.raises(UnknownContext):
        lat.id_of("nope")


def test_second_upper_bound_breaks_glb_uniqueness():
    lat, a, b = branch_lattice()
    lat.declare_context("c", {a, b})
    with pytest.raises(NotALattice):
        lat.declare_context("d", {a, b})
    # the failed declaration must not leave residue
    assert not lat.has_name("d")
    assert len(lat) == 4


def test_refused_join_names_both_maximal_lower_bounds():
    lat, a, b = branch_lattice()
    lat.declare_context("c", {a, b})
    with pytest.raises(NotALattice, match=r"'d' and 'c' have 2 maximal lower bounds: \['else', 'then'\]"):
        lat.declare_context("d", {a, b})


def test_a_3000_deep_chain_declares_in_little_memory_and_time():
    """Each element keeps its downset as one int, so a chain of d contexts
    holds O(d) words of masks, not O(d^2) set entries (about 470 MB here
    when each element stored its down- and upset as sets)."""
    d = 3000
    tracemalloc.start()
    try:
        start = time.perf_counter()
        lat = ContextLattice()
        top = BOTTOM
        for i in range(1, d + 1):
            top = lat.declare_context(f"c{i}", {top})
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert elapsed < 2, f"{elapsed:.2f} s"
    assert top == d and lat.name(top) == f"c{d}"
    assert lat.leq(BOTTOM, top) and lat.leq(top - 1, top) and lat.leq(top, top)
    assert not lat.leq(top, BOTTOM) and not lat.leq(top, top - 1)
    assert lat.meet(BOTTOM, top) == BOTTOM and lat.meet(top, top - 1) == top - 1
    assert lat.meet(1, top) == 1
    assert lat.upset(top) == [top] and lat.upset(top - 1) == [top - 1, top]
    assert lat.upset(BOTTOM) == list(range(d + 1))


def random_lattice(rng: random.Random, max_elems: int = 8) -> ContextLattice:
    lat = ContextLattice()
    n = rng.randint(0, max_elems - 1)
    for i in range(n):
        existing = list(lat.ids())
        covers = set(rng.sample(existing, k=rng.randint(1, min(2, len(existing)))))
        try:
            lat.declare_context(f"c{i}", covers)
        except NotALattice:
            pass
    return lat


@given(st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_meet_join_agree_with_brute_force(seed):
    lat = random_lattice(random.Random(seed))
    for a in lat.ids():
        # refused declarations in random_lattice leave no residue here
        assert lat.upset(a) == [x for x in lat.ids() if lat.leq(a, x)]
        for b in lat.ids():
            maximal = brute_glb(lat, a, b)
            assert len(maximal) == 1, "declaration-time validation should forbid this"
            assert lat.meet(a, b) == maximal[0]
            minimal = brute_lub(lat, a, b)
            if not minimal:
                with pytest.raises(NoUpperBound):
                    lat.join(a, b)
            else:
                j = lat.join(a, b)
                assert j in minimal
                assert all(lat.leq(j, u) for u in minimal)


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_lattice_laws(seed):
    lat = random_lattice(random.Random(seed))
    ids = list(lat.ids())
    for a in ids:
        assert lat.meet(a, a) == a
        for b in ids:
            assert lat.meet(a, b) == lat.meet(b, a)
            assert lat.leq(a, b) == (lat.meet(a, b) == a)
            try:
                j = lat.join(a, b)
            except NoUpperBound:
                continue
            assert lat.join(b, a) == j
            # absorption, both directions
            assert lat.meet(a, j) == a
            assert lat.join(a, lat.meet(a, b)) == a
            for c in ids:
                assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_bottom_is_unique_minimum(seed):
    lat = random_lattice(random.Random(seed))
    for c in lat.ids():
        assert lat.leq(BOTTOM, c)
        if c != BOTTOM:
            assert not lat.leq(c, BOTTOM)


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_single_cover_declarations_keep_meets_exact(seed):
    # single-cover declarations skip the glb validation; a join of two
    # covers is still validated, and a refused one changes nothing
    rng = random.Random(seed)
    lat = ContextLattice()
    for i in range(rng.randint(1, 12)):
        lat.declare_context(f"c{i}", {rng.choice(list(lat.ids()))})
    for a in lat.ids():
        for b in lat.ids():
            assert [lat.meet(a, b)] == brute_glb(lat, a, b)
    pairs = [(a, b) for a in lat.ids() for b in lat.ids()
             if a < b and not lat.leq(a, b) and not lat.leq(b, a)]
    if not pairs:
        return
    a, b = rng.choice(pairs)
    lat.declare_context("j1", {a, b})

    def snapshot():
        ids = list(lat.ids())
        return [(lat.name(x), lat.upset(x), [lat.meet(x, y) for y in ids]) for x in ids]

    before = snapshot()
    with pytest.raises(NotALattice):
        lat.declare_context("j2", {a, b})
    assert not lat.has_name("j2")
    assert snapshot() == before
