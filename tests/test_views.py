import random
from collections import defaultdict

from ctxsat import (
    BOTTOM,
    EGraph,
    Engine,
    Strategy,
    ViewCache,
    build_view,
    qmap,
    term,
)
import pytest

from ctxsat.egraph import node_key
from ctxsat.errors import NotBelow
from ctxsat.views import OnTheFlyProvider

from test_egraph import random_egraph
from test_rewrite import match_set, random_pattern


def branch_graph():
    eg = EGraph()
    then = eg.declare_context("then", {BOTTOM})
    for name, arity in [("gt", 2), ("true", 0), ("a", 0), ("b", 0)]:
        eg.declare_function(name, arity)
    gt = eg.intern(term("gt", term("a"), term("b")))
    true = eg.intern(term("true"))
    eg.merge(then, gt, true)
    eg.rebuild()
    return eg, then, gt, true


def test_materialized_view_groups_contextual_class():
    eg, then, gt, true = branch_graph()
    view = build_view(eg, then)
    root = eg.find(then, gt)
    names = {n.symbol.name for n in view.nodes_of(root)}
    assert names == {"gt", "true"}
    bot_view = build_view(eg, BOTTOM)
    assert {n.symbol.name for n in bot_view.nodes_of(eg.find(BOTTOM, gt))} == {"gt"}


def test_view_node_count_shrinks_with_context():
    eg, then, gt, true = branch_graph()
    # contextual merges can only dedup nodes, never add
    assert build_view(eg, then).node_count() <= build_view(eg, BOTTOM).node_count()
    assert build_view(eg, then).class_count() <= build_view(eg, BOTTOM).class_count()


def test_empty_graph_view():
    eg = EGraph()
    view = build_view(eg, BOTTOM)
    assert view.class_count() == 0 and view.node_count() == 0


def test_view_cache_invalidation():
    eg, then, gt, true = branch_graph()
    cache = ViewCache(eg)
    v1 = cache.get(then)
    assert cache.get(then) is v1
    eg.declare_function("c", 0)
    eg.intern(term("c"))
    eg.rebuild()
    v2 = cache.get(then)
    assert v2 is not v1
    assert v2.version == eg.version


def test_qmap_factoring_identity_and_merge():
    eg, then, gt, true = branch_graph()
    q = qmap(eg, BOTTOM, then)
    assert q(eg.find(BOTTOM, gt)) == q(eg.find(BOTTOM, true))
    ident = qmap(eg, then, then)
    for c in eg.class_ids(then):
        assert ident(c) == c
    with pytest.raises(NotBelow):
        qmap(eg, then, BOTTOM)


def test_qmap_well_defined_on_random_graphs():
    for seed in range(80):
        eg, _, _ = random_egraph(seed + 900)
        eg.rebuild()
        lat = eg.lattice
        for fine in lat.ids():
            for coarse in lat.ids():
                if not lat.leq(fine, coarse):
                    continue
                q = qmap(eg, fine, coarse)
                blocks = {}
                for i in range(len(eg.uf)):
                    # factoring: q(find_fine(a)) == find_coarse(a) for every id
                    assert q(eg.find(fine, i)) == eg.find(coarse, i)
                    blocks.setdefault(eg.find(coarse, i), set()).add(eg.find(fine, i))
                # coarse classes are exact unions of fine classes
                fine_part = {
                    f: {i for i in range(len(eg.uf)) if eg.find(fine, i) == f}
                    for f in {eg.find(fine, i) for i in range(len(eg.uf))}
                }
                for coarse_root, fine_roots in blocks.items():
                    union = set()
                    for f in fine_roots:
                        union |= fine_part[f]
                    coarse_block = {
                        i for i in range(len(eg.uf)) if eg.find(coarse, i) == coarse_root
                    }
                    assert union == coarse_block
                assert len(set(q.mapping.values())) <= len(q.mapping)


def test_strategies_agree_on_random_graphs():
    for seed in range(60):
        eg, _, _ = random_egraph(seed + 3000, max_nodes=14, max_ctx=3)
        eg.rebuild()
        eng = Engine(eg)
        rng = random.Random(seed)
        symbols = eg.symbols()
        for _ in range(5):
            pat = random_pattern(rng, symbols, 2, 2)
            for ctx in eg.lattice.ids():
                assert match_set(eng, ctx, pat, Strategy.MATERIALIZED) == match_set(
                    eng, ctx, pat, Strategy.ON_THE_FLY
                )


def mutate(eg, rng, kind):
    """One mutation that changes the class index; no rebuild() follows."""
    classes = list(eg.nodes().values())
    if kind == "bottom-merge":
        eg.merge(BOTTOM, rng.choice(classes), rng.choice(classes))
    elif kind == "intersect-at-bottom":
        # intersecting a context with itself promotes all of its equalities
        c = max(eg.lattice.ids())
        eg.merge(c, rng.choice(classes), rng.choice(classes))
        eg.intersect_into(BOTTOM, c, c)
    else:
        # a fresh symbol makes the node new; its child id may be stale
        eg.add_node(eg.declare_function("g", 1), (rng.choice(classes),))


@pytest.mark.parametrize("kind", ["bottom-merge", "intersect-at-bottom", "add-node"])
def test_class_index_matches_scan_without_rebuild(kind):
    changed = 0
    for seed in range(150):
        eg, _, _ = random_egraph(seed + 7000)
        if seed % 2:
            eg.rebuild()
        before = len(eg.classes())
        mutate(eg, random.Random(seed), kind)
        changed += len(eg.classes()) != before
        for ctx in eg.lattice.ids():
            scan = defaultdict(set)
            for node, cls in eg.nodes().items():
                scan[eg.find(ctx, cls)].add(eg.canonical_node(ctx, node))
            assert eg.class_ids(ctx) == sorted(scan), f"seed={seed}"
            for c in range(len(eg.uf)):
                assert eg.class_nodes(ctx, c) == scan[eg.find(ctx, c)], f"seed={seed}"
            want = {c: tuple(sorted(ns, key=node_key)) for c, ns in scan.items()}
            for provider in (build_view(eg, ctx), OnTheFlyProvider(eg, ctx)):
                assert provider.class_ids() == sorted(want), f"seed={seed}"
                got = {c: provider.nodes_of(c) for c in want}
                assert got == want, f"seed={seed}"
    assert changed >= 50
