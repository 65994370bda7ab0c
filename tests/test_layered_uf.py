import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxsat.errors import NotALattice, NotBelow, UnknownContext, UnknownNode
from ctxsat.lattice import BOTTOM, ContextLattice
from ctxsat.layered_uf import LayeredUnionFind

from oracles import NaiveLayered, blocks_to_pairs


def branch_setup(n_ids=4):
    lat = ContextLattice()
    then = lat.declare_context("then", {BOTTOM})
    els = lat.declare_context("else", {BOTTOM})
    uf = LayeredUnionFind(lat)
    ids = [uf.make_set() for _ in range(n_ids)]
    return lat, uf, then, els, ids


def test_make_set_ids_are_dense():
    lat = ContextLattice()
    uf = LayeredUnionFind(lat)
    assert uf.make_set() == 0
    assert uf.make_set() == 1
    assert uf.find(BOTTOM, 0) == 0


def test_fresh_id_is_singleton_in_every_context():
    lat, uf, then, els, ids = branch_setup()
    x = uf.make_set()
    for c in lat.ids():
        assert uf.find(c, x) == x
    assert len(uf.partition(BOTTOM)) == len(ids) + 1


def test_contextual_union_invisible_below():
    lat, uf, then, els, (a, b, *_) = branch_setup()
    uf.union_new(then, a, b)
    assert uf.find(then, a) == uf.find(then, b)
    assert uf.find(BOTTOM, a) != uf.find(BOTTOM, b)
    assert uf.find(els, a) != uf.find(els, b)


def test_bottom_union_visible_everywhere():
    lat, uf, then, els, (a, b, *_) = branch_setup()
    uf.union_new(BOTTOM, a, b)
    for c in lat.ids():
        assert uf.equiv(c, a, b)


def test_union_is_reflexive_noop():
    lat, uf, then, els, (a, *_) = branch_setup()
    before = uf.partition(then)
    uf.union_new(then, a, a)
    assert uf.partition(then) == before


def test_transitivity_chain():
    lat, uf, then, els, (a, b, c, d) = branch_setup()
    uf.union_new(then, a, b)
    uf.union_new(then, b, d)
    assert uf.equiv(then, a, d)
    assert not uf.equiv(BOTTOM, a, d)


def test_smaller_id_is_representative():
    lat, uf, then, els, (a, b, c, d) = branch_setup()
    uf.union_new(BOTTOM, d, b)
    uf.union_new(then, c, a)
    assert uf.find(BOTTOM, d) == b
    assert uf.find(then, c) == a


def test_partition_counts_monotone_up_the_lattice():
    lat, uf, then, els, (a, b, c, d) = branch_setup()
    uf.union_new(then, a, b)
    uf.union_new(then, c, d)
    uf.union_new(BOTTOM, a, c)
    assert len(uf.partition(then)) <= len(uf.partition(BOTTOM))


def test_intersection_promotes_shared_equalities():
    # ternary-elimination shape: tern ~ body ~ true in both branches
    lat, uf, then, els, (tern, true, gt, le) = branch_setup()
    uf.union_new(then, tern, gt)
    uf.union_new(then, gt, true)
    uf.union_new(els, tern, le)
    uf.union_new(els, le, true)
    assert not uf.equiv(BOTTOM, tern, true)
    n = uf.intersect_into(BOTTOM, then, els)
    assert n == 1
    assert uf.equiv(BOTTOM, tern, true)
    assert not uf.equiv(BOTTOM, gt, true)
    assert not uf.equiv(BOTTOM, le, true)


def test_intersection_with_itself_promotes_everything():
    lat, uf, then, els, (a, b, c, d) = branch_setup()
    uf.union_new(then, a, b)
    uf.union_new(then, c, d)
    uf.intersect_into(BOTTOM, then, then)
    assert uf.partition(BOTTOM) == uf.partition(then)


def test_intersect_requires_lower_context():
    lat, uf, then, els, ids = branch_setup()
    with pytest.raises(NotBelow):
        uf.intersect_into(then, els, els)


def test_unknown_ids_and_contexts():
    lat, uf, then, els, ids = branch_setup()
    with pytest.raises(UnknownNode):
        uf.find(BOTTOM, 99)
    # an undeclared id leaves nothing behind, so asking twice raises twice
    for ctx in (-1, len(lat), "then", 17, 17):
        with pytest.raises(UnknownContext):
            uf.find(ctx, 0)


def test_late_context_sees_earlier_unions():
    lat = ContextLattice()
    s = lat.declare_context("s", {BOTTOM})
    uf = LayeredUnionFind(lat)
    a, b, c = (uf.make_set() for _ in range(3))
    uf.union_new(s, a, b)
    uf.union_new(BOTTOM, b, c)
    t = lat.declare_context("t", {s})
    uf.register_context(t)
    assert uf.equiv(t, a, b)
    assert uf.equiv(t, a, c)
    assert uf.equiv(s, a, c)
    assert not uf.equiv(BOTTOM, a, b)


def test_a_context_with_one_cover_registers_as_a_copy_of_it():
    """A context with one cover starts from a copy of its cover's overlay,
    after unions at the cover and below: it has the cover's partition and
    logs no lost root until a link in its own layer, and a later union at
    the cover still reaches it. A context with two covers links in their
    overlays, and logs each root that a link takes."""
    copied = linked = 0
    for seed in range(100):
        rng = random.Random(seed)
        lat = ContextLattice()
        s = lat.declare_context("s", {BOTTOM})
        r = lat.declare_context("r", {BOTTOM})
        uf, naive = LayeredUnionFind(lat), NaiveLayered(lat)
        ids = [uf.make_set() for _ in range(10)]
        for _ in ids:
            naive.make_set()

        def union(ctx, a, b):
            uf.union_new(ctx, a, b)
            naive.union(ctx, a, b)

        for _ in range(8):
            union(rng.choice([BOTTOM, s, r]), rng.choice(ids), rng.choice(ids))
        over_bottom = lat.declare_context("over-bottom", {BOTTOM})
        t = lat.declare_context("t", {s})
        both = lat.declare_context("both", {s, r})
        for ctx in (over_bottom, t, both):
            uf.register_context(ctx)
        assert uf._overlay[over_bottom] == {} and uf.lost[over_bottom] == []
        assert uf._overlay[t] == uf._overlay[s] and uf._overlay[t] is not uf._overlay[s]
        assert uf.lost[t] == []
        # each link loses one root of both's layer
        assert len(uf.lost[both]) == len(uf.partition(BOTTOM)) - len(uf.partition(both))
        copied += len(uf.partition(BOTTOM)) - len(uf.partition(t))
        linked += len(uf.lost[both])
        for ctx in lat.ids():
            assert uf.partition(ctx) == naive.partition(ctx), f"seed={seed} ctx={ctx}"
        assert uf.lost[t] == []
        a, b = next((a, b) for a in ids for b in ids if not uf.equiv(s, a, b))
        union(s, a, b)
        assert uf.equiv(t, a, b) and len(uf.lost[t]) == 1
        union(rng.choice([BOTTOM, s, t]), rng.choice(ids), rng.choice(ids))
        for ctx in lat.ids():
            assert uf.partition(ctx) == naive.partition(ctx), f"seed={seed} ctx={ctx}"
    assert copied > 100 and linked > 100


def test_base_union_rekeys_overlay_entries():
    # overlay key loses its base-canonicity when a smaller id joins its class
    lat = ContextLattice()
    s = lat.declare_context("s", {BOTTOM})
    uf = LayeredUnionFind(lat)
    i0, i1, i2, i3, i4, i5 = (uf.make_set() for _ in range(6))
    uf.union_new(s, i5, i2)      # overlay entry keyed 5
    uf.union_new(BOTTOM, i3, i5)  # 5's base root becomes 3
    assert uf.equiv(s, i5, i2)
    assert uf.equiv(s, i3, i2)
    assert not uf.equiv(BOTTOM, i5, i2)
    uf.union_new(BOTTOM, i0, i3)  # and again down to 0
    assert uf.equiv(s, i0, i2)
    assert uf.find(s, i2) == 0


# randomized scripts against the naive set-based model


def run_random_script(seed: int, n_ops: int = 18, max_ids: int = 8, max_ctx: int = 5):
    rng = random.Random(seed)
    lat = ContextLattice()
    uf = LayeredUnionFind(lat)
    ref = NaiveLayered(lat)
    for _ in range(rng.randint(1, 3)):
        uf.make_set()
        ref.make_set()

    pair_history = []

    def snapshot():
        return {c: blocks_to_pairs(uf.partition(c)) for c in lat.ids()}

    for _ in range(n_ops):
        op = rng.random()
        if op < 0.15 and len(lat) < max_ctx:
            existing = list(lat.ids())
            covers = set(rng.sample(existing, k=rng.randint(1, min(2, len(existing)))))
            try:
                cid = lat.declare_context(f"c{len(lat)}", covers)
            except NotALattice:
                continue
            uf.register_context(cid)
        elif op < 0.3 and ref.n < max_ids:
            uf.make_set()
            ref.make_set()
        elif op < 0.8 and ref.n >= 2:
            ctx = rng.randrange(len(lat))
            a, b = rng.randrange(ref.n), rng.randrange(ref.n)
            uf.union_new(ctx, a, b)
            ref.union(ctx, a, b)
        elif ref.n >= 2:
            c1, c2 = rng.randrange(len(lat)), rng.randrange(len(lat))
            lowers = [c for c in lat.ids() if lat.leq(c, c1) and lat.leq(c, c2)]
            lo = rng.choice(lowers)
            before = len(uf.partition(lo))
            n_new = uf.intersect_into(lo, c1, c2)
            ref.intersect_into(lo, c1, c2)
            assert n_new == before - len(uf.partition(lo))
        pair_history.append(snapshot())

    for c in lat.ids():
        assert uf.partition(c) == ref.partition(c), f"seed={seed} ctx={c}"
    for prev, cur in zip(pair_history, pair_history[1:]):
        for c in prev:
            assert prev[c] <= cur[c], f"relation shrank, seed={seed}"
    return lat, uf


def test_thousand_random_scripts_match_oracle():
    for seed in range(1200):
        run_random_script(seed)


def test_larger_random_scripts_match_oracle():
    # more ids and contexts: overlays with chains of keys, and intersections
    # whose groups mix overlay keys with their representatives
    for seed in range(300):
        run_random_script(seed + 50000, n_ops=80, max_ids=40, max_ctx=8)


def test_order_preservation_and_quotient_properties():
    for seed in range(400):
        lat, uf = run_random_script(seed * 7919 + 13)
        parts = {c: uf.partition(c) for c in lat.ids()}
        for c1 in lat.ids():
            for c2 in lat.ids():
                if not lat.leq(c1, c2):
                    continue
                fine, coarse = parts[c1], parts[c2]
                assert blocks_to_pairs(fine) <= blocks_to_pairs(coarse)
                assert len(coarse) <= len(fine)
                # every coarse block is an exact union of fine blocks
                for block in coarse:
                    covered = [f for f in fine if f <= block]
                    assert frozenset().union(*covered) == block


def test_intersection_on_nested_branches_agrees_with_grouping_every_id():
    """Proof by cases groups only the overlay keys its branches added, not
    lo's own. On nested branch pairs (two contexts covering one context,
    itself possibly a branch) every relation and every count of new merges
    agrees with the reference, which groups every id."""
    dropped = 0
    for seed in range(250):
        rng = random.Random(seed + 61000)
        lat = ContextLattice()
        uf, ref = LayeredUnionFind(lat), NaiveLayered(lat)
        for _ in range(rng.randint(4, 12)):
            uf.make_set()
            ref.make_set()
        branches = []
        for _ in range(30):
            op = rng.random()
            if op < 0.2 and len(lat) < 9:
                g = rng.randrange(len(lat))
                pair = [lat.declare_context(f"c{len(lat)}", {g}) for _ in range(2)]
                for c in pair:
                    uf.register_context(c)
                branches.append((g, *pair))
            elif op < 0.7 or not branches:
                ctx, a, b = rng.randrange(len(lat)), rng.randrange(ref.n), rng.randrange(ref.n)
                uf.union_new(ctx, a, b)
                ref.union(ctx, a, b)
            else:
                lo, c1, c2 = rng.choice(branches)
                if lo != BOTTOM:
                    own = uf._overlay[lo].keys()
                    dropped += bool(own & (uf._overlay[c1].keys() | uf._overlay[c2].keys()))
                assert uf.intersect_into(lo, c1, c2) == ref.intersect_into(lo, c1, c2)
                for c in lat.ids():
                    assert uf.partition(c) == ref.partition(c), f"seed={seed} ctx={c}"
    assert dropped >= 100


def test_intersection_unions_no_group_head_with_itself():
    """Proof by cases unions a group's members with its head, and a head
    with itself merges nothing: no union call of intersect_into repeats an
    id, so a key alone in its group, most groups here, costs none. The
    counts still agree with the reference."""
    calls = keys = 0
    for seed in range(150):
        rng = random.Random(seed + 62000)
        lat = ContextLattice()
        uf, ref = LayeredUnionFind(lat), NaiveLayered(lat)
        for _ in range(rng.randint(4, 12)):
            uf.make_set()
            ref.make_set()
        pairs = []
        union = uf._union

        def counted(ctx, a, b):
            pairs.append((a, b))
            return union(ctx, a, b)

        for _ in range(20):
            g = rng.randrange(len(lat))
            if rng.random() < 0.2 and len(lat) < 7:
                c1, c2 = (lat.declare_context(f"c{len(lat)}", {g}) for _ in range(2))
                uf.register_context(c1)
                uf.register_context(c2)
                for _ in range(rng.randint(1, 4)):
                    c, a, b = rng.choice((c1, c2)), rng.randrange(ref.n), rng.randrange(ref.n)
                    uf.union_new(c, a, b)
                    ref.union(c, a, b)
                keys += len(uf._overlay[c1].keys() | uf._overlay[c2].keys())
                uf._union, pairs[:] = counted, []
                assert uf.intersect_into(g, c1, c2) == ref.intersect_into(g, c1, c2)
                del uf._union
                assert all(a != b for a, b in pairs), f"seed={seed}"
                calls += len(pairs)
            else:
                c, a, b = rng.randrange(len(lat)), rng.randrange(ref.n), rng.randrange(ref.n)
                uf.union_new(c, a, b)
                ref.union(c, a, b)
    assert keys > 2 * calls > 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_random_scripts_hypothesis(seed):
    run_random_script(seed, n_ops=12, max_ids=6, max_ctx=4)
