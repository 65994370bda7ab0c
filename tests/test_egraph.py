import random

import pytest

from ctxsat.egraph import EGraph, ENode, FunctionSymbol, Term, node_key, term
from ctxsat.errors import (
    ArityMismatch,
    DuplicateSymbol,
    NegativeArity,
    NotALattice,
    UnknownContext,
    UnknownNode,
    UnknownSymbol,
)
from ctxsat.lattice import BOTTOM, ContextLattice
from ctxsat.views import build_view

from oracles import blocks_to_pairs, naive_contextual_congruence, resolved


def arith_graph():
    eg = EGraph()
    then = eg.declare_context("then", {BOTTOM})
    for name, arity in [("mul", 2), ("shift", 1), ("x", 0), ("y", 0), ("2", 0)]:
        eg.declare_function(name, arity)
    return eg, then


def test_declare_function_duplicate():
    eg = EGraph()
    eg.declare_function("mul", 2)
    eg.declare_function("true", 0)
    with pytest.raises(DuplicateSymbol):
        eg.declare_function("mul", 2)


def test_declare_function_negative_arity():
    eg = EGraph()
    with pytest.raises(NegativeArity):
        eg.declare_function("f", -1)
    assert eg.symbols() == []


def test_intern_is_idempotent():
    eg, then = arith_graph()
    t = term("mul", term("x"), term("y"))
    assert eg.intern(t) == eg.intern(t)


def test_intern_undeclared_symbol():
    eg, then = arith_graph()
    with pytest.raises(UnknownSymbol):
        eg.intern(term("f", term("x")))
    with pytest.raises(ArityMismatch):
        eg.intern(term("mul", term("x")))


@pytest.mark.parametrize("bad", [-1, 99, "0", None])
def test_bad_ids_raise_at_every_entry_point(bad):
    eg, then = arith_graph()
    x = eg.intern(term("x"))
    shift, mul = eg.symbol("shift", 1), eg.symbol("mul", 2)
    calls = [
        lambda: eg.add_node(shift, (bad,)),
        lambda: eg.add_node(mul, (x, bad)),
        lambda: eg.merge(then, x, bad),
        lambda: eg.merge(BOTTOM, bad, x),
        lambda: eg.find(then, bad),
        lambda: eg.equiv(BOTTOM, x, bad),
        lambda: eg.uf.union_new(then, bad, x),
    ]
    for call in calls:
        with pytest.raises(UnknownNode):
            call()
    with pytest.raises(ArityMismatch):
        eg.add_node(mul, (x,))
    assert len(eg.uf) == 1 and eg.uf.total_unions() == 0


def test_a_bool_is_neither_a_context_id_nor_a_node_id():
    """`True` and `False` equal the ids 1 and 0, but name no context and no
    node: every public entry point rejects them, as any other non-id, and
    changes nothing."""
    eg = EGraph()
    then = eg.declare_context("then", {BOTTOM})
    f, _, _ = (eg.declare_function(name, arity) for name, arity in (("f", 1), ("a", 0), ("b", 0)))
    a, b = eg.intern(term("a")), eg.intern(term("b"))
    assert (then, a, b) == (True, False, True)
    for bad in (True, False):
        for call in (
            lambda: eg.find(bad, a),
            lambda: eg.lattice.name(bad),
            lambda: eg.lattice.leq(BOTTOM, bad),
            lambda: eg.merge(bad, a, b),
            lambda: eg.equiv(bad, a, a),
        ):
            with pytest.raises(UnknownContext):
                call()
        for call in (
            lambda: eg.find(BOTTOM, bad),
            lambda: eg.equiv(BOTTOM, bad, bad),
            lambda: eg.merge(then, a, bad),
            lambda: eg.add_node(f, (bad,)),
        ):
            with pytest.raises(UnknownNode):
                call()
    assert len(eg.uf) == 2 and eg.uf.total_unions() == 0

def test_nodes_and_symbols_are_values():
    f, f2 = FunctionSymbol("f", 2), FunctionSymbol("f", 2)
    assert f == f2 and hash(f) == hash(f2) and f is not f2
    a, b = ENode(f, (0, 1)), ENode(f2, tuple([0, 1]))
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != ENode(f, (1, 0)) and f != FunctionSymbol("f", 1)
    assert repr(f) == "f/2" and repr(FunctionSymbol("x", 0)) == "x/0"
    for obj, field in [(f, "name"), (f, "arity"), (a, "symbol"), (a, "children")]:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    g, h = FunctionSymbol("g", 1), FunctionSymbol("f", 1)
    nodes = [ENode(g, (0,)), ENode(f, (2, 0)), ENode(h, (3,)), ENode(f, (1, 5))]
    assert sorted(nodes, key=node_key) == [
        ENode(h, (3,)), ENode(f, (1, 5)), ENode(f, (2, 0)), ENode(g, (0,))
    ]


def test_unchecked_add_agrees_with_add_node():
    eg, then = arith_graph()
    x, y = eg.intern(term("x")), eg.intern(term("y"))
    mul = eg.symbol("mul", 2)
    xy = eg._add(mul, (x, y))
    assert eg.add_node(mul, (x, y)) == xy and eg._add(mul, [x, y]) == xy
    assert eg.add_node(mul, (y, x)) == eg._add(mul, (y, x)) != xy
    eg.merge(BOTTOM, x, y)
    eg.rebuild()
    assert eg.add_node(mul, (y, y)) == eg._add(mul, (y, y)) == eg.find(BOTTOM, xy)
    assert len(eg.uf) == 4


def test_intern_takes_any_depth():
    eg = EGraph()
    eg.declare_function("f", 1)
    eg.declare_function("a", 0)
    t = Term("a")
    for _ in range(5000):
        t = Term("f", (t,))
    top = eg.intern(t)
    assert top == 5000 and len(eg.uf) == 5001
    assert eg.intern(t) == top and len(eg.uf) == 5001


def test_reinterning_a_term_after_a_bottom_merge_adds_no_id():
    # with no rebuild, the node store is keyed by the old representatives,
    # so a walk would look up (f b) for (f a) and make a duplicate
    eg = EGraph()
    for name, arity in [("e", 0), ("b", 0), ("a", 0), ("f", 1)]:
        eg.declare_function(name, arity)
    e, b = eg.intern(term("e")), eg.intern(term("b"))
    t = term("f", term("a"))
    c = eg.intern(t)
    eg.merge(BOTTOM, eg.intern(term("a")), b)
    eg.merge(BOTTOM, c, e)
    n = len(eg.uf)
    assert eg.intern(t) == eg.find(BOTTOM, c) == e
    assert len(eg.uf) == n


def test_a_deep_term_interned_twice_is_one_class():
    eg = EGraph()
    eg.declare_function("f", 1)
    eg.declare_function("a", 0)
    terms = []
    for _ in range(2):
        t = Term("a")
        for _ in range(3000):
            t = Term("f", (t,))
        terms.append(t)
    assert terms[0] is not terms[1]
    assert eg.intern(terms[0]) == eg.intern(terms[1]) == 3000
    assert len(eg.uf) == 3001


def test_terms_are_tuples():
    t = term("f", term("a"), term("g", term("b")))
    assert t == ("f", (("a", ()), ("g", (("b", ()),))))
    assert Term("a") == Term("a", ()) == ("a", ())
    assert str(t) == "(f a (g b))"
    with pytest.raises(AttributeError):
        t.symbol = "g"


def test_intern_numbers_ids_in_post_order():
    eg, then = arith_graph()
    t = term("mul", term("shift", term("x")), term("mul", term("y"), term("x")))
    assert eg.intern(t) == 4
    assert [n.symbol.name for n in eg.created] == ["x", "shift", "y", "mul", "mul"]
    assert eg.created[3].children == (2, 0) and eg.created[4].children == (1, 3)


def test_contextual_congruence_after_rebuild():
    eg, then = arith_graph()
    xy = eg.intern(term("mul", term("x"), term("y")))
    eg.merge(then, eg.intern(term("x")), eg.intern(term("2")))
    eg.rebuild()
    ty = eg.intern(term("mul", term("2"), term("y")))
    eg.rebuild()
    assert eg.equiv(then, xy, ty)
    assert not eg.equiv(BOTTOM, xy, ty)


def test_bottom_merge_equal_everywhere():
    eg = EGraph()
    c = eg.declare_context("c", {BOTTOM})
    eg.declare_function("plus", 2)
    for n in ("1", "2", "3"):
        eg.declare_function(n, 0)
    a = eg.intern(term("plus", term("2"), term("1")))
    b = eg.intern(term("3"))
    eg.merge(BOTTOM, a, b)
    eg.rebuild()
    assert eg.equiv(BOTTOM, a, b)
    assert eg.equiv(c, a, b)


def test_merge_same_class_noop():
    eg, then = arith_graph()
    a = eg.intern(term("x"))
    eg.rebuild()
    v = eg.version
    eg.merge(then, a, a)
    assert eg.version == v
    assert eg.rebuild() == 0


def test_rebuild_without_pending_is_free():
    eg, then = arith_graph()
    eg.intern(term("mul", term("x"), term("y")))
    assert eg.rebuild() > -1
    assert eg.rebuild() == 0


def test_bottom_repair_rekeys_the_node_store():
    # (g b) is stored under b; once b joins a at bottom, interning (g a)
    # must find it under its new key instead of making a new class, also
    # when a read patched the bottom view before the rebuild
    for read_between in (False, True):
        eg = EGraph()
        for name, arity in [("g", 1), ("a", 0), ("b", 0)]:
            eg.declare_function(name, arity)
        a = eg.intern(term("a"))
        gb = eg.intern(term("g", term("b")))
        eg.merge(BOTTOM, eg.intern(term("b")), a)
        if read_between:
            eg.classes()
        eg.rebuild()
        ids = len(eg.uf)
        assert eg.intern(term("g", term("a"))) == eg.find(BOTTOM, gb)
        assert len(eg.uf) == ids


def test_a_union_made_through_the_union_find_is_seen():
    # views, rebuild and congruence read the union-find's own log, so a
    # union that bypasses EGraph.merge is repaired like any other
    eg, then = arith_graph()
    fx = eg.intern(term("shift", term("x")))
    fy = eg.intern(term("shift", term("y")))
    eg.rebuild()
    eg.views.get(then)
    assert eg.uf.union_new(then, eg.intern(term("x")), eg.intern(term("y")))
    assert resolved(eg.views.get(then)) == resolved(build_view(eg, then))
    assert eg.rebuild() == 1
    assert eg.equiv(then, fx, fy)
    assert not eg.equiv(BOTTOM, fx, fy)


def test_congruence_cascades_upward():
    # equal children at bottom must collapse parents in every context
    eg = EGraph()
    c = eg.declare_context("c", {BOTTOM})
    eg.declare_function("f", 1)
    eg.declare_function("a", 0)
    eg.declare_function("b", 0)
    fa = eg.intern(term("f", term("a")))
    fb = eg.intern(term("f", term("b")))
    eg.merge(BOTTOM, eg.intern(term("a")), eg.intern(term("b")))
    eg.rebuild()
    assert eg.equiv(BOTTOM, fa, fb)
    assert eg.equiv(c, fa, fb)


def test_class_nodes_are_deduplicated():
    eg, then = arith_graph()
    xy = eg.intern(term("mul", term("x"), term("y")))
    ty = eg.intern(term("mul", term("2"), term("y")))
    eg.merge(then, eg.intern(term("x")), eg.intern(term("2")))
    eg.rebuild()
    # under then the two mul nodes canonicalize identically
    nodes = eg.class_nodes(then, xy)
    muls = [n for n in nodes if n.symbol.name == "mul"]
    assert len(muls) == 1
    leaf = eg.class_nodes(BOTTOM, eg.intern(term("x")))
    assert len(leaf) == 1


def test_stats_and_monotone_class_count():
    eg = EGraph()
    s = eg.declare_context("s", {BOTTOM})
    eg.declare_function("mj", 2)
    eg.declare_function("hj", 2)
    eg.declare_function("r1", 0)
    eg.declare_function("r2", 0)
    mj = eg.intern(term("mj", term("r1"), term("r2")))
    hj = eg.intern(term("hj", term("r1"), term("r2")))
    eg.merge(s, mj, hj)
    eg.rebuild()
    assert eg.stats(s)[0] <= eg.stats(BOTTOM)[0]
    classes, nodes = eg.stats(BOTTOM)
    assert classes == 4 and nodes == 4
    assert eg.stats(s) == (3, 4)


def test_stats_empty():
    eg = EGraph()
    assert eg.stats(BOTTOM) == (0, 0)


def test_stats_match_recount():
    eg, then = arith_graph()
    eg.intern(term("mul", term("x"), term("y")))
    eg.intern(term("mul", term("2"), term("y")))
    eg.merge(then, eg.intern(term("x")), eg.intern(term("2")))
    eg.rebuild()
    for ctx in eg.lattice.ids():
        classes = {eg.find(ctx, c) for c in eg.nodes().values()}
        nodes = {eg.canonical_node(ctx, n) for n in eg.nodes()}
        assert eg.stats(ctx) == (len(classes), len(nodes))


def test_term_in_class():
    eg, then = arith_graph()
    xy = eg.intern(term("mul", term("x"), term("y")))
    eg.merge(then, eg.intern(term("x")), eg.intern(term("2")))
    eg.rebuild()
    assert eg.term_in_class(BOTTOM, term("mul", term("x"), term("y")), xy)
    assert eg.term_in_class(then, term("mul", term("2"), term("y")), xy)
    assert not eg.term_in_class(BOTTOM, term("mul", term("2"), term("y")), xy)


def test_term_in_class_finds_a_deep_term():
    # no recursion on the term's depth: a 3,000-deep (f ... (f a))
    eg = EGraph()
    eg.declare_function("f", 1)
    eg.declare_function("a", 0)
    t = term("a")
    for _ in range(3000):
        t = term("f", t)
    cls = eg.intern(t)
    assert eg.term_in_class(BOTTOM, t, cls)
    assert not eg.term_in_class(BOTTOM, t.children[0], cls)


# randomized congruence-closure oracle


def random_lattice(rng, max_ctx):
    lat = ContextLattice()
    for i in range(rng.randint(0, max_ctx - 1)):
        existing = list(lat.ids())
        covers = set(rng.sample(existing, k=rng.randint(1, min(2, len(existing)))))
        try:
            lat.declare_context(f"c{i}", covers)
        except NotALattice:
            pass
    return lat


def random_egraph(seed, max_nodes=20, max_ctx=4):
    rng = random.Random(seed)
    lat = random_lattice(rng, max_ctx)
    eg = EGraph(lat)
    syms = []
    for i in range(rng.randint(2, 4)):
        syms.append(eg.declare_function(f"k{i}", 0))
    for i in range(rng.randint(1, 3)):
        syms.append(eg.declare_function(f"f{i}", rng.randint(1, 2)))
    classes = []
    for s in syms:
        if s.arity == 0:
            classes.append(eg.add_node(s, ()))
    while len(eg.nodes()) < rng.randint(4, max_nodes):
        s = rng.choice(syms)
        children = tuple(rng.choice(classes) for _ in range(s.arity))
        classes.append(eg.add_node(s, children))
    node_list = [
        (node.symbol.name, node.children, cls) for node, cls in eg.nodes().items()
    ]
    merges = []
    for _ in range(rng.randint(0, 6)):
        ctx = rng.randrange(len(lat))
        a, b = rng.choice(classes), rng.choice(classes)
        merges.append((ctx, a, b))
        eg.merge(ctx, a, b)
    return eg, merges, node_list


def test_congruence_matches_naive_fixpoint():
    inputs = [(seed, 20, 4) for seed in range(220)]
    inputs += [(seed + 11000, 30, 6) for seed in range(600)]
    inputs += [(seed + 12000, 40, 8) for seed in range(200)]
    for seed, max_nodes, max_ctx in inputs:
        eg, merges, node_list = random_egraph(seed, max_nodes, max_ctx)
        eg.rebuild()
        # one bottom-up sweep is already a fixpoint: a second one, over
        # views built from scratch, finds nothing to repair
        eg.views._views.clear()
        eg._rebuilt_at = -1
        assert eg.rebuild() == 0, f"seed={seed}"
        oracle = naive_contextual_congruence(
            eg.lattice, node_list, len(eg.uf), merges
        )
        for ctx in eg.lattice.ids():
            got = eg.uf.partition(ctx)
            assert got == oracle[ctx], f"seed={seed} ctx={ctx}"


def test_equalities_never_lost_by_rebuild():
    for seed in range(60):
        eg, merges, _ = random_egraph(seed + 5000)
        before = {
            ctx: blocks_to_pairs(eg.uf.partition(ctx)) for ctx in eg.lattice.ids()
        }
        eg.rebuild()
        for ctx in eg.lattice.ids():
            assert before[ctx] <= blocks_to_pairs(eg.uf.partition(ctx))


def test_context_declared_over_two_covers_after_unions_is_congruent():
    # x = z holds at A and z = y at B; only C, declared later above both,
    # sees x = y, and so f(x) = f(y) by congruence
    eg = EGraph()
    a = eg.declare_context("A", {BOTTOM})
    b = eg.declare_context("B", {BOTTOM})
    for name, arity in [("x", 0), ("y", 0), ("z", 0), ("f", 1)]:
        eg.declare_function(name, arity)
    fx = eg.intern(term("f", term("x")))
    fy = eg.intern(term("f", term("y")))
    z = eg.intern(term("z"))
    eg.merge(a, eg.intern(term("x")), z)
    eg.merge(b, z, eg.intern(term("y")))
    eg.rebuild()
    c = eg.declare_context("C", {a, b})
    eg.rebuild()
    assert eg.equiv(c, fx, fy)
    assert not eg.equiv(a, fx, fy) and not eg.equiv(b, fx, fy)


def interleaved_run(seed):
    """Random add_node / merge / declare_context / rebuild steps; after each
    rebuild, every context must equal the naive per-context fixpoint."""
    rng = random.Random(seed)
    eg = EGraph()
    syms = [eg.declare_function(f"k{i}", 0) for i in range(3)]
    syms += [eg.declare_function("f", 1), eg.declare_function("g", 2)]
    classes = [eg.add_node(s, ()) for s in syms[:3]]
    node_list = [(s.name, (), c) for s, c in zip(syms, classes)]
    merges = []
    # two siblings, so that later contexts can join relations that disagree
    eg.declare_context("a", {BOTTOM})
    eg.declare_context("b", {BOTTOM})

    def rebuild_and_compare(step):
        eg.rebuild()
        oracle = naive_contextual_congruence(
            eg.lattice, node_list, len(eg.uf), merges
        )
        for ctx in eg.lattice.ids():
            got = eg.uf.partition(ctx)
            assert got == oracle[ctx], f"seed={seed} step={step} ctx={ctx}"

    for step in range(rng.randint(6, 20)):
        kind = rng.random()
        if kind < 0.35 and len(eg.nodes()) < 14:
            s = rng.choice(syms)
            children = tuple(rng.choice(classes) for _ in range(s.arity))
            cls = eg.add_node(s, children)
            classes.append(cls)
            node_list.append((s.name, children, cls))
        elif kind < 0.75:
            # mostly above bottom, where contexts can disagree
            ctx = rng.randrange(0 if rng.random() < 0.3 else 1, len(eg.lattice))
            a, b = rng.choice(classes), rng.choice(classes)
            merges.append((ctx, a, b))
            eg.merge(ctx, a, b)
        elif kind < 0.9 and len(eg.lattice) < 8:
            above = list(eg.lattice.ids())[1:]
            covers = {BOTTOM} if not above or rng.random() < 0.4 else set(
                rng.sample(above, k=min(rng.randint(1, 2), len(above)))
            )
            rebuild_and_compare(step)
            try:
                eg.declare_context(f"c{step}", covers)
            except NotALattice:
                continue
            rebuild_and_compare(step)
        else:
            rebuild_and_compare(step)
    rebuild_and_compare("end")


def test_interleaved_rebuilds_match_naive_fixpoint():
    for seed in range(2000):
        interleaved_run(seed)
