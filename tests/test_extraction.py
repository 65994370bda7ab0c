import itertools
import math
import random

import pytest

from ctxsat import BOTTOM, CostModel, EGraph, Term, extract, term
from ctxsat.errors import NoFiniteTerm
from ctxsat.extract import extract_from_view
from ctxsat.views import CanonicalView

from oracles import resolved, whole_view_extraction
from test_egraph import random_egraph


def enumerate_terms(eg, ctx, cls, depth):
    """All terms derivable from the class over the ctx view, to a depth."""
    if depth == 0:
        return set()
    out = set()
    for node in eg.class_nodes(ctx, cls):
        if not node.children:
            out.add(Term(node.symbol.name))
            continue
        child_terms = [enumerate_terms(eg, ctx, ch, depth - 1) for ch in node.children]
        for combo in itertools.product(*child_terms):
            out.add(Term(node.symbol.name, tuple(combo)))
    return out


def term_mentions(t, name):
    return t.symbol == name or any(term_mentions(c, name) for c in t.children)


def min_cost_at_depth(eg, ctx, cls, model, depth, memo=None):
    """Cheapest derivable term of depth <= depth, by explicit unrolling.

    With every symbol cost >= 1, a term of depth d costs at least d, so a
    bound exceeding any cost found this way also bounds the unrestricted
    optimum.
    """
    if memo is None:
        memo = {}
    root = eg.find(ctx, cls)
    key = (root, depth)
    if key in memo:
        return memo[key]
    if depth == 0:
        return float("inf")
    best = float("inf")
    memo[key] = best
    for node in eg.class_nodes(ctx, root):
        c = model.of(node.symbol.name)
        for ch in node.children:
            c += min_cost_at_depth(eg, ctx, ch, model, depth - 1, memo)
            if c >= best:
                break
        best = min(best, c)
    memo[key] = best
    return best


def simple_graph():
    eg = EGraph()
    for name, arity in [("plus", 2), ("1", 0), ("2", 0), ("3", 0)]:
        eg.declare_function(name, arity)
    p = eg.intern(term("plus", term("2"), term("1")))
    three = eg.intern(term("3"))
    eg.merge(BOTTOM, p, three)
    eg.rebuild()
    return eg, p


def test_extract_picks_cheapest_member():
    eg, p = simple_graph()
    res = extract(eg, BOTTOM, p)
    assert str(res.term) == "3"
    assert res.cost == 1


def test_extract_singleton_leaf():
    eg = EGraph()
    eg.declare_function("k", 0)
    cls = eg.intern(term("k"))
    eg.rebuild()
    res = extract(eg, BOTTOM, cls, CostModel({"k": 7}))
    assert str(res.term) == "k" and res.cost == 7


def test_extract_respects_context():
    eg = EGraph()
    c = eg.declare_context("c", {BOTTOM})
    for name, arity in [("f", 1), ("a", 0), ("b", 0)]:
        eg.declare_function(name, arity)
    fa = eg.intern(term("f", term("a")))
    b = eg.intern(term("b"))
    eg.merge(c, fa, b)
    eg.rebuild()
    assert str(extract(eg, BOTTOM, fa).term) == "(f a)"
    assert str(extract(eg, c, fa).term) == "b"


def test_extract_validity_and_determinism():
    eg, p = simple_graph()
    r1 = extract(eg, BOTTOM, p)
    r2 = extract(eg, BOTTOM, p)
    assert r1 == r2
    back = eg.intern(r1.term)
    eg.rebuild()
    assert eg.equiv(BOTTOM, back, p)


def test_forbid_blocks_symbol_and_its_wrappers():
    eg = EGraph()
    body_ctx = eg.declare_context("body", {BOTTOM})
    for name, arity in [("plus", 2), ("var", 1), ("x", 0), ("1", 0), ("2", 0), ("3", 0)]:
        eg.declare_function(name, arity)
    body = eg.intern(term("plus", term("var", term("x")), term("1")))
    eg.merge(body_ctx, eg.intern(term("var", term("x"))), eg.intern(term("2")))
    eg.merge(body_ctx, body, eg.intern(term("3")))
    eg.rebuild()
    x = eg.symbol("x", 0)
    # one normalizer: a name, a symbol, or an iterable of either
    for forbid in ("x", x, ["x"], (x,), {x, "var"}):
        res = extract(eg, body_ctx, body, forbid=forbid)
        assert not term_mentions(res.term, "x")
        assert not term_mentions(res.term, "var")
        assert str(res.term) == "3"
        with pytest.raises(NoFiniteTerm):
            extract(eg, BOTTOM, body, forbid=forbid)


def test_no_finite_term_when_forbid_blocks_everything():
    eg = EGraph()
    eg.declare_function("var", 1)
    eg.declare_function("x", 0)
    vx = eg.intern(term("var", term("x")))
    eg.rebuild()
    with pytest.raises(NoFiniteTerm):
        extract(eg, BOTTOM, vx, forbid="x")


def test_tie_break_prefers_smaller_symbol_name():
    eg = EGraph()
    for name in ("mm", "zz"):
        eg.declare_function(name, 0)
    a = eg.intern(term("mm"))
    b = eg.intern(term("zz"))
    eg.merge(BOTTOM, a, b)
    eg.rebuild()
    assert str(extract(eg, BOTTOM, a).term) == "mm"


def layered_random_graph(seed, tiers=4, per_tier=3):
    """DAG-shaped random graph: children only from strictly lower tiers, so
    every class has a term of depth <= tiers and the bounded enumeration
    oracle is exact."""
    rng = random.Random(seed)
    eg = EGraph()
    n_ctx = rng.randint(0, 2)
    for i in range(n_ctx):
        eg.declare_context(f"c{i}", {rng.randrange(i + 1)})
    syms = []
    for i in range(3):
        syms.append(eg.declare_function(f"k{i}", 0))
    for i in range(3):
        syms.append(eg.declare_function(f"f{i}", rng.randint(1, 2)))
    tiers_cls = [[eg.add_node(s, ()) for s in syms if s.arity == 0]]
    for _ in range(tiers - 1):
        tier = []
        pool = [c for t in tiers_cls for c in t]
        for _ in range(per_tier):
            s = rng.choice([s for s in syms if s.arity > 0])
            tier.append(eg.add_node(s, tuple(rng.choice(pool) for _ in range(s.arity))))
        tiers_cls.append(tier)
    all_cls = [c for t in tiers_cls for c in t]
    for _ in range(rng.randint(0, 3)):
        ctx = rng.randrange(len(eg.lattice))
        eg.merge(ctx, rng.choice(all_cls), rng.choice(all_cls))
    eg.rebuild()
    model = CostModel({s.name: rng.randint(1, 5) for s in syms})
    return eg, all_cls, model


def test_extract_cost_matches_bounded_brute_force():
    # depth 80 exceeds any cost reachable from these graphs (tier witnesses
    # cost at most 5 * 15), so the bounded optimum is the true optimum
    for seed in range(120):
        eg, classes, model = layered_random_graph(seed)
        for ctx in eg.lattice.ids():
            memo = {}
            for cls in classes:
                best = min_cost_at_depth(eg, ctx, cls, model, 80, memo)
                got = extract(eg, ctx, cls, model)
                assert got.cost == best, f"seed={seed}"
                assert model.term_cost(got.term) == got.cost


def test_extract_cost_matches_explicit_enumeration_small():
    # tiny graphs where listing every derivable term is feasible
    for seed in range(25):
        eg, classes, model = layered_random_graph(seed + 4000, tiers=3, per_tier=2)
        for cls in classes:
            terms = enumerate_terms(eg, BOTTOM, cls, 4)
            if not terms:
                continue
            best = min(model.term_cost(t) for t in terms)
            got = extract(eg, BOTTOM, cls, model)
            assert got.cost <= best
            if got.cost < best:
                # the optimum used depth > 4; the bounded DP must agree
                assert got.cost == min_cost_at_depth(eg, BOTTOM, cls, model, 80)


def test_extracted_term_is_always_present_in_class():
    for seed in range(40):
        eg, classes, model = layered_random_graph(seed + 777)
        for cls in classes:
            got = extract(eg, BOTTOM, cls, model)
            assert eg.term_in_class(BOTTOM, got.term, cls)


def test_cost_model_rejects_negative():
    with pytest.raises(ValueError):
        CostModel({"f": -1})
    m = CostModel()
    with pytest.raises(ValueError):
        m.set("f", -2)
    # NaN and infinite costs are rejected as well
    for bad in (math.nan, math.inf, -math.inf, float("1e400")):
        with pytest.raises(ValueError):
            CostModel({"f": bad})
        with pytest.raises(ValueError):
            CostModel(default=bad)
        with pytest.raises(ValueError):
            m.set("f", bad)
    assert m.of("f") == 1


class _Reads(dict):
    """A view's classes that count the lookups of a class extraction makes."""

    reads = 0

    def get(self, *args):
        self.reads += 1
        return super().get(*args)


def test_extract_from_view_agrees_with_a_whole_view_fixpoint():
    """Extraction reads only the classes reachable from the root; the costs,
    ties and terms are those of a fixpoint over every class of the view.
    A root whose cheapest usable leaf costs less than the floor of every
    other usable node (its symbol's cost plus the model's least cost per
    child) returns that leaf after one read of its own class; every other
    root, a leaf that ties a floor included, takes the fixpoint. Besides
    random costs, the models make every compound symbol free (so no leaf
    beats a floor) or make a leaf cost what a unary node's floor does."""
    outcomes = dict.fromkeys(["term", "none", "leaf exit", "fixpoint", "tie"], 0)
    for seed in range(150):
        # merges close cycles; zero costs make ties and zero-cost cycles
        eg, _, _ = random_egraph(seed + 23000, 16, 4)
        eg.rebuild()
        rng = random.Random(seed)
        names = sorted({s.name for s in eg.symbols()})
        models = [
            CostModel({n: rng.choice([0, 0.5, 1, 1, 2, 3]) for n in names}),
            CostModel({n: 0 if n[0] == "f" else rng.choice([0, 1, 2]) for n in names}),
            CostModel({n: 1 if n[0] == "f" else 2 for n in names}),
        ]
        for model, ctx in itertools.product(models, eg.lattice.ids()):
            least = min([model.default, *model.costs.values()])
            view = eg.views.get(ctx)
            classes = resolved(view)
            for root in classes:
                for forbid in (None, {rng.choice(names)}):
                    want = whole_view_extraction(classes, root, model.of, forbid or ())
                    probe = CanonicalView(ctx, _Reads(classes), view.version)
                    try:
                        got = extract_from_view(probe, root, model, forbid)
                    except NoFiniteTerm:
                        assert want is None, f"seed={seed} ctx={ctx} root={root}"
                        outcomes["none"] += 1
                    else:
                        assert (got.cost, got.term) == want, f"seed={seed} ctx={ctx} root={root}"
                        outcomes["term"] += 1
                    nodes = [n for n in classes[root] if n.symbol.name not in (forbid or ())]
                    leaf = min([model.of(n.symbol.name) for n in nodes if not n.children], default=None)
                    floors = [model.of(n.symbol.name) + n.symbol.arity * least for n in nodes if n.children]
                    exits = leaf is not None and all(leaf < k for k in floors)
                    assert (probe.classes.reads == 1) == exits, f"seed={seed} ctx={ctx} root={root}"
                    outcomes["leaf exit" if exits else "fixpoint"] += 1
                    outcomes["tie"] += leaf in floors
    assert min(outcomes.values()) > 100, outcomes


def test_a_deep_term_extracts_without_recursion():
    """A 3,000-deep (f ... (f a)) extracts, costs and prints; the term is
    read back without recursion, as comparing it would recurse."""
    eg = EGraph()
    eg.declare_function("f", 1)
    eg.declare_function("a", 0)
    t = term("a")
    for _ in range(3000):
        t = term("f", t)
    got = extract(eg, BOTTOM, eg.intern(t))
    assert got.cost == 3001
    t, depth = got.term, 0
    while t.symbol == "f":
        (t,) = t.children
        depth += 1
    assert depth == 3000 and t == term("a")
    assert CostModel().term_cost(got.term) == 3001
    assert str(got.term) == "(f " * 3000 + "a" + ")" * 3000
