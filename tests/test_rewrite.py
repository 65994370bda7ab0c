import itertools
import random
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from ctxsat import (
    BOTTOM,
    AtContext,
    AtOrAbove,
    Engine,
    FunctionSymbol,
    PatternApp,
    PatternVar,
    Rule,
    Strategy,
    extract,
    term,
)
from ctxsat.assume import nested_conditional_program
from ctxsat.corpus import CORPUS_NAMES, corpus_source
from ctxsat.dsl import Program, RunCmd, _forms, _term, execute, parse_program, run_source
from ctxsat.errors import DuplicateRule, NoFiniteTerm, UnboundRhsVariable
from ctxsat import rewrite, scopes
from ctxsat.rewrite import _term_to_pattern, pattern_vars
from ctxsat.views import CanonicalView, marks

from test_egraph import random_egraph


def pattern_present(eg, ctx, pat, subst, cls):
    if isinstance(pat, PatternVar):
        return eg.find(ctx, subst[pat.name]) == eg.find(ctx, cls)
    for node in eg.class_nodes(ctx, cls):
        if node.symbol != pat.symbol:
            continue
        if all(
            pattern_present(eg, ctx, a, subst, ch)
            for a, ch in zip(pat.args, node.children)
        ):
            return True
    return False


def brute_force_matches(engine, ctx, pattern):
    eg = engine.eg
    classes = eg.class_ids(ctx)
    names = sorted(pattern_vars(pattern))
    results = set()
    for root in classes:
        for choice in itertools.product(classes, repeat=len(names)):
            subst = dict(zip(names, choice))
            if pattern_present(eg, ctx, pattern, subst, root):
                results.add((root, tuple(sorted(subst.items()))))
    return results


def match_set(engine, ctx, pattern, strategy=None):
    return {
        (root, tuple(sorted(subst.items())))
        for subst, root in engine.ematch(ctx, pattern, strategy)
    }


def intro_engine():
    eng = Engine()
    eg = eng.eg
    then = eg.declare_context("then", {BOTTOM})
    for name, arity in [("mul", 2), ("shift", 1), ("x", 0), ("y", 0), ("2", 0)]:
        eg.declare_function(name, arity)
    xy = eg.intern(term("mul", term("x"), term("y")))
    eg.merge(then, eg.intern(term("x")), eg.intern(term("2")))
    eg.rebuild()
    return eng, then, xy


def test_ematch_uses_contextual_equalities():
    eng, then, xy = intro_engine()
    eg = eng.eg
    pat = PatternApp(
        eg.symbol("mul", 2),
        (PatternApp(eg.symbol("2", 0), ()), PatternVar("y")),
    )
    matches = eng.ematch(then, pat)
    assert len(matches) == 1
    subst, root = matches[0]
    assert root == eg.find(then, xy)
    assert subst["y"] == eg.find(then, eg.intern(term("y")))
    assert eng.ematch(BOTTOM, pat) == []


def test_ematch_fresh_symbol_is_empty():
    eng, then, xy = intro_engine()
    eg = eng.eg
    eg.declare_function("never", 1)
    pat = PatternApp(eg.symbol("never", 1), (PatternVar("a"),))
    assert eng.ematch(BOTTOM, pat) == []
    assert eng.ematch(then, pat) == []


def test_ematch_nonlinear_pattern():
    eng = Engine()
    eg = eng.eg
    eg.declare_function("f", 2)
    eg.declare_function("a", 0)
    eg.declare_function("b", 0)
    faa = eg.intern(term("f", term("a"), term("a")))
    fab = eg.intern(term("f", term("a"), term("b")))
    eg.rebuild()
    pat = PatternApp(eg.symbol("f", 2), (PatternVar("v"), PatternVar("v")))
    got = match_set(eng, BOTTOM, pat)
    assert got == {(faa, (("v", eg.find(BOTTOM, eg.intern(term("a")))),))}
    eg.merge(BOTTOM, eg.intern(term("a")), eg.intern(term("b")))
    eg.rebuild()
    got = match_set(eng, BOTTOM, pat)
    assert {root for root, _ in got} == {eg.find(BOTTOM, faa)}


def random_pattern(rng, symbols, depth, next_var):
    if depth == 0 or rng.random() < 0.3:
        return PatternVar(f"v{rng.randint(0, next_var)}")
    sym = rng.choice(symbols)
    return PatternApp(
        sym,
        tuple(random_pattern(rng, symbols, depth - 1, next_var) for _ in range(sym.arity)),
    )


def test_ematch_matches_brute_force_enumeration():
    for seed in range(120):
        max_nodes = 20 if seed % 10 == 0 else 12
        eg, _, _ = random_egraph(seed, max_nodes=max_nodes, max_ctx=3)
        eg.rebuild()
        eng = Engine(eg)
        rng = random.Random(seed * 31 + 7)
        symbols = eg.symbols()
        for _ in range(4):
            pat = random_pattern(rng, symbols, 2, 2)
            for ctx in eg.lattice.ids():
                expected = brute_force_matches(eng, ctx, pat)
                got = eng.ematch(ctx, pat, Strategy.MATERIALIZED)
                # complete, and each assignment exactly once
                assert len(got) == len(expected)
                assert match_set(eng, ctx, pat) == expected
                assert match_set(eng, ctx, pat, Strategy.MATERIALIZED) == expected
                assert match_set(eng, ctx, pat, Strategy.ON_THE_FLY) == expected


def test_ematch_since_returns_only_new_matches():
    for seed in range(100):
        eg, _, _ = random_egraph(seed, max_nodes=14, max_ctx=4)
        eg.rebuild()
        rng = random.Random(seed * 17 + 3)
        pats = [random_pattern(rng, eg.symbols(), 2, 2) for _ in range(3)]
        check_since_after_random_changes(Engine(eg), pats, rng, seed)


def test_ematch_since_returns_only_new_matches_of_deep_patterns():
    # from the innermost p, a since-mode join reaches the two atoms above
    # it as parents, one after the other, and checks ?x across and within
    # atoms on the way
    for seed in range(25):
        eg, _, _ = random_egraph(seed, max_nodes=8, max_ctx=3)
        rng = random.Random(seed * 13 + 5)
        p = eg.declare_function("p", 2)
        k0, k1 = eg.intern(term("k0")), eg.intern(term("k1"))
        for t in ("(p (p (p k0 k0) k1) k0)", "(p (p (p k1 k1) k1) k1)", "(p (p k0 k0) k1)"):
            eg.intern(parse_term(t))
        for _ in range(4):
            n = len(eg.uf)
            eg.add_node(p, (rng.choice((k0, k1, rng.randrange(n))), rng.randrange(n)))
        eg.rebuild()
        eng = Engine(eg)
        pats = [
            _term_to_pattern(eng, parse_term(t))
            for t in ("(p (p (p ?x ?x) ?y) ?x)", "(p (p (p ?x ?y) ?y) ?y)")
        ]
        pats.append(random_pattern(rng, eg.symbols(), 3, 1))
        check_since_after_random_changes(eng, pats, rng, seed)


def check_since_after_random_changes(eng, pats, rng, seed):
    """Record each pattern's matches at each context, change the graph at
    random, then require a since-mode call from the recorded version to
    return exactly the matches that are new or use a new row, and the full
    matches to equal brute force and the reference provider."""
    eg = eng.eg
    lat = eg.lattice
    symbols = eg.symbols()
    ctxs = list(lat.ids())
    recorded = {
        (ctx, p): (match_set(eng, ctx, p), eg.version, marks(eg, ctx))
        for ctx in ctxs
        for p in pats
    }
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice(["merge", "add-node", "intersect", "match"])
        n = len(eg.uf)
        if kind == "merge":
            eg.merge(rng.choice(ctxs), rng.randrange(n), rng.randrange(n))
        elif kind == "add-node":
            sym = rng.choice(symbols)
            eg.add_node(sym, tuple(rng.randrange(n) for _ in range(sym.arity)))
        elif kind == "intersect":
            c1, c2 = rng.choice(ctxs), rng.choice(ctxs)
            lo = rng.choice([c for c in ctxs if lat.leq(c, c1) and lat.leq(c, c2)])
            eg.uf.intersect_into(lo, c1, c2)
        else:
            # a view patched in between must pass the row log on
            match_set(eng, rng.choice(ctxs), rng.choice(pats))
    if rng.random() < 0.5:
        eg.rebuild()
    for (ctx, p), (before, version, at) in recorded.items():
        now = match_set(eng, ctx, p)
        new = {
            (root, tuple(sorted(subst.items())))
            for subst, root in eng.ematch(ctx, p, since=version)
        }
        assert new <= now, f"seed={seed}"
        assert now - new <= before, f"seed={seed}"
        # the change log did not move at ctx: no row of its view is new
        if marks(eg, ctx) == at and isinstance(p, PatternApp):
            assert not new, f"seed={seed}"  # a bare variable matches in full
        assert now == brute_force_matches(eng, ctx, p), f"seed={seed}"
        assert match_set(eng, ctx, p, Strategy.ON_THE_FLY) == now, f"seed={seed}"


def constant_graph(seed):
    """A random graph with p/2 and q/1 nodes over its constants and classes,
    merged at random contexts, and the constant z declared but not stored."""
    eg, _, _ = random_egraph(seed, max_nodes=12, max_ctx=4)
    rng = random.Random(seed)
    p, q = eg.declare_function("p", 2), eg.declare_function("q", 1)
    eg.declare_function("z", 0)
    k0, k1 = eg.intern(term("k0")), eg.intern(term("k1"))
    for t in ("(p k0 k0)", "(p k0 k1)", "(q k1)", "(p (q k1) k0)", "(q (p k1 k0))"):
        eg.intern(parse_term(t))
    for _ in range(6):
        n = len(eg.uf)
        sym = rng.choice((p, q))
        eg.add_node(sym, tuple(rng.choice((k0, k1, rng.randrange(n))) for _ in range(sym.arity)))
    for _ in range(rng.randint(0, 4)):
        n = len(eg.uf)
        eg.merge(rng.randrange(len(eg.lattice)), rng.randrange(n), rng.randrange(n))
    eg.rebuild()
    return eg


def parse_term(text):
    """A term, variables allowed, from its DSL text."""
    return _term(_forms(text), 0, True, {})


CONSTANT_PATTERNS = [
    "k0",  # a nullary root
    "(p k0 k0)", "(p k0 ?x)", "(p ?x ?x)",  # a repeated constant
    "(p (q k1) ?x)", "(q (p ?x k0))", "(p (q ?x) k0)",  # under a nested application
    "(p ?x z)", "(q z)",  # a constant that is not stored
]


def test_ematch_binds_constants_as_brute_force_does():
    found = 0
    for seed in range(60):
        eg = constant_graph(seed + 21000)
        eng = Engine(eg)
        rng = random.Random(seed)
        pats = [_term_to_pattern(eng, parse_term(t)) for t in CONSTANT_PATTERNS]
        consts = [s for s in eg.symbols() if s.arity == 0]
        pats += [
            PatternApp(sym, tuple(
                PatternApp(rng.choice(consts)) if rng.random() < 0.5
                else random_pattern(rng, eg.symbols(), 1, 1)
                for _ in range(sym.arity)
            ))
            for sym in rng.sample([s for s in eg.symbols() if s.arity], 2)
        ]
        for ctx in eg.lattice.ids():
            for pat in pats:
                expected = brute_force_matches(eng, ctx, pat)
                assert match_set(eng, ctx, pat) == expected, f"seed={seed} {pat}"
                assert match_set(eng, ctx, pat, Strategy.ON_THE_FLY) == expected
                assert len(eng.ematch(ctx, pat)) == len(expected)
                found += len(expected)
    assert found > 1000


ALL_CONSTANT_ROOTS = [
    "k0", "(p k0 k0)", "(p k0 k1)", "(p k1 k0)", "(q k1)", "(q k0)",
    "(p k1 z)", "(q z)",  # a constant that is not stored
]


def test_ematch_probes_a_root_bound_by_constants_as_brute_force_does():
    """A root whose arguments are all constants has one possible row, which
    a full join looks up in the view's sig instead of scanning the root
    symbol's rows, but only while the view reports no clash: merges not yet
    rebuilt can leave one row in two classes, and both are matches."""
    seen = {"clean": 0, "clashed": 0, "held twice": 0}
    for seed in range(40):
        eg = constant_graph(seed + 23000)
        eng = Engine(eg)
        rng = random.Random(seed)
        pats = [_term_to_pattern(eng, parse_term(t)) for t in ALL_CONSTANT_ROOTS]
        for step in range(3):
            for ctx in eg.lattice.ids():
                clashed = bool(eg.views.get(ctx).clashes)
                for pat in pats:
                    expected = brute_force_matches(eng, ctx, pat)
                    for strategy in Strategy:
                        got = match_set(eng, ctx, pat, strategy)
                        assert got == expected, f"seed={seed} step={step} {pat} {strategy}"
                    seen["clashed" if clashed else "clean"] += 1
                    seen["held twice"] += len(expected) > 1
            n = len(eg.uf)
            for _ in range(3):
                eg.merge(rng.randrange(len(eg.lattice)), rng.randrange(n), rng.randrange(n))
    assert min(seen.values()) >= 20, seen


def test_since_returns_every_match_through_a_constant_whose_class_moved():
    """p's rows do not change when the constant b joins a's class: only b's
    own row is new, and every match runs through it."""
    for at in ("bot", "then"):
        eng = Engine()
        eg = eng.eg
        eg.declare_context("then", {BOTTOM})
        for name, arity in [("p", 2), ("a", 0), ("b", 0), ("c", 0), ("d", 0)]:
            eg.declare_function(name, arity)
        # b is created last, so its class is the one that moves
        a = eg.intern(term("a"))
        for leaf in ("c", "d"):
            eg.intern(term("p", term("a"), term(leaf)))
        b = eg.intern(term("b"))
        eg.rebuild()
        pat = _term_to_pattern(eng, parse_term("(p b ?y)"))
        ctx = eg.context(at)
        assert eng.ematch(ctx, pat) == []
        since = eg.version
        eg.merge(ctx, a, b)
        eg.rebuild()
        new = {(root, tuple(sorted(s.items()))) for s, root in eng.ematch(ctx, pat, since=since)}
        assert len(new) == 2
        assert new == brute_force_matches(eng, ctx, pat)
        assert eng.ematch(ctx, pat, since=eg.version) == []


SYMBOLS = [("f", 2), ("g", 1), ("a", 0), ("b", 0), ("c", 0)]
# h occurs only in lambda bodies and in no rule: a rule that equated a body
# with its own application would make the scope walk create body contexts
# without end (the unbounded lambda instances of the ROADMAP)
SCOPE_SYMBOLS = [
    ("if", 3), ("true", 0), ("false", 0), ("eq", 2),
    ("app", 2), ("lam", 2), ("var", 1), ("x", 0), ("h", 2),
]


def random_term(rng, depth, leaves):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    name, arity = rng.choice(SYMBOLS[:2])
    args = " ".join(random_term(rng, depth - 1, leaves) for _ in range(arity))
    return f"({name} {args})"


def random_rewrite_program(seed: int) -> tuple[str, bool]:
    """Seeded rules over f, g and constants, terms under a conditional and a
    lambda application, and checks at bot and in a branch. Odd seeds give
    right-hand sides nested two deep; the flag says that every right-hand
    side is flat instead: a variable, or one application to variables."""
    rng = random.Random(seed)
    flat = seed % 2 == 0
    symbols = [FunctionSymbol(name, arity) for name, arity in SYMBOLS]
    lines = [f"(function {name} {arity})" for name, arity in SYMBOLS + SCOPE_SYMBOLS]
    lines += ["(scope-if if true false eq)", "(scope-lambda app lam var)"]
    rules = []
    for _ in range(rng.randint(1, 3)):
        lhs = random_pattern(rng, symbols, 2, 1)
        while isinstance(lhs, PatternVar):  # one bare-variable rule follows
            lhs = random_pattern(rng, symbols, 2, 1)
        leaves = [f"?{v}" for v in sorted(pattern_vars(lhs))] or ["a", "b"]
        if flat and leaves[0].startswith("?"):
            name, arity = rng.choice(SYMBOLS[:2])
            args = " ".join(rng.choice(leaves) for _ in range(arity))
            rhs = rng.choice([leaves[0], f"({name} {args})"])
        elif flat:
            rhs = rng.choice(leaves)
        else:
            rhs = random_term(rng, 2, leaves)
        rules.append((str(lhs), rhs))
    if seed % 3 == 0:
        rules.append(("?v", "(g ?v)"))  # bare variable
    if seed % 3 == 1:
        rules.append(("(f ?x ?x)", "?x"))  # nonlinear
    if seed % 3 == 2:
        rules.append(("(f a ?y)", "(g ?y)" if flat else "(g (f ?y a))"))  # ground leaf
    lines += [
        f"(rule r{i} {lhs} {rhs} :scope everywhere)" for i, (lhs, rhs) in enumerate(rules)
    ]
    leaves = ["a", "b", "c"]
    lines += [f"(term {random_term(rng, 3, leaves)})" for _ in range(2)]
    cond = rng.choice(["(eq a b)", "(eq (g a) c)", "(eq a (f b c))"])
    then, els = random_term(rng, 2, leaves), random_term(rng, 2, leaves)
    lines.append(f"(term (if {cond} {then} {els}))")
    body = f"(h (var x) {random_term(rng, 2, leaves + ['(var x)'])})"
    lines.append(f"(term (app (lam x {body}) {rng.choice(leaves)}))")
    lines.append(f"(run {rng.randint(2, 3) if flat else 2})")
    for ctx in ("bot", "then"):
        lines.append(
            f"(check-equal {ctx} {random_term(rng, 2, leaves)} {random_term(rng, 2, leaves)})"
        )
    return "\n".join(lines) + "\n", flat


def observed(out):
    eg = out.engine.eg
    lat = eg.lattice
    return (
        {lat.name(c): eg.uf.partition(c) for c in lat.ids()},
        len(eg.uf),
        dict(eg.nodes()),
        [(r.iterations, r.saturated) for r in out.reports],
        out.report_json(),
    )


def ids_before_first_run(source: str) -> int:
    commands = parse_program(source).commands
    first = next(i for i, cmd in enumerate(commands) if isinstance(cmd, RunCmd))
    return len(execute(Program(commands[:first])).engine.eg.uf)


def observed_on_old_ids(out, n: int):
    """What a run shows apart from the numbering of fresh ids and the
    context each union was recorded at: the relation on ids below n at
    every context, the node count, iterations, checks and class counts."""
    eg = out.engine.eg
    lat = eg.lattice
    report = out.report_json()
    del report["report"]["unions_per_context"]
    relation = {
        lat.name(c): {frozenset(i for i in block if i < n) for block in eg.uf.partition(c)}
        for c in lat.ids()
    }
    return relation, len(eg.nodes()), report


def test_semi_naive_run_equals_full_matching_run():
    """Skipping a match whose rows all predate the rule's last run at a
    context skips a right-hand side that was already added and merged there.
    Re-adding one made of variables, or of one application to them, finds
    the same nodes, so on such rule sets (and on the corpora) both runs are
    identical. A deeper right-hand side can meet a child merged at bottom
    since the last rebuild: re-adding it then finds or makes a node that is
    congruent to the old one but not yet in its class, and the full run
    merges that at the rule's context, a union rebuild would have made at
    bottom. Such runs still agree on the relation between ids that existed
    before the run, and on everything but union counts and fresh ids."""
    inputs = [(corpus_source(name), True) for name in CORPUS_NAMES]
    inputs += [random_rewrite_program(seed) for seed in range(200)]
    totals = [0, 0]
    for i, (source, exact) in enumerate(inputs):
        semi = run_source(source)
        # forgetting every rule's last version makes each iteration match in full
        full = run_source(source, iteration_hook=lambda e: e._matched_at.clear())
        if exact:
            assert observed(semi) == observed(full), f"input {i}"
        n = ids_before_first_run(source)
        assert observed_on_old_ids(semi, n) == observed_on_old_ids(full, n), f"input {i}"
        applied = [sum(r.rule_applications for r in out.reports) for out in (semi, full)]
        assert applied[0] <= applied[1], f"input {i}"
        totals = [t + a for t, a in zip(totals, applied)]
    assert totals[0] < totals[1]


def test_saturation_loop_applies_matches_in_ematch_order(monkeypatch):
    """The loop matches a rule through its compiled query and applies the
    slot tuples it gets, in their order, which fixes the ids right-hand
    sides make. Read with the rule's variable names, they are the list
    ematch returns for the rule's pattern, element by element, sorted by
    root and then by substitution."""
    ematch, applied = Engine.ematch, [0]

    def checked(self, ctx, pattern, strategy=None, since=None):
        got = ematch(self, ctx, pattern, strategy, since)
        for rule in self.rules:
            if self._compiled[rule.name][0] is pattern:
                listed = ematch(self, ctx, rule.lhs, strategy, since)
                assert [(dict(zip(pattern.names, m[1:])), m[0]) for m in got] == listed
                assert listed == sorted(listed, key=lambda sr: (sr[1], sorted(sr[0].items())))
                applied[0] += len(got)
        return got

    monkeypatch.setattr(Engine, "ematch", checked)
    for seed in range(60):
        run_source(random_rewrite_program(seed)[0])
    assert applied[0] > 1000


def test_add_rule_validation():
    eng = Engine()
    eg = eng.eg
    eg.declare_function("f", 1)
    eg.declare_function("g", 1)
    f, g = eg.symbol("f", 1), eg.symbol("g", 1)
    rule = Rule("r", PatternApp(f, (PatternVar("x"),)), PatternApp(g, (PatternVar("x"),)))
    eng.add_rule(rule)
    with pytest.raises(DuplicateRule):
        eng.add_rule(rule)
    with pytest.raises(UnboundRhsVariable):
        eng.add_rule(
            Rule("bad", PatternApp(f, (PatternVar("x"),)), PatternApp(g, (PatternVar("y"),)))
        )


def conditional_engine():
    eng = Engine()
    eg = eng.eg
    for name, arity in [
        ("true", 0), ("false", 0), ("if", 3), ("gt", 2),
        ("le", 2), ("not", 1), ("a", 0), ("b", 0),
    ]:
        eg.declare_function(name, arity)
    eng.add_conditional_scope("if", "true", "false")
    eng.add_rule(
        Rule(
            "le-is-not-gt",
            PatternApp(eg.symbol("le", 2), (PatternVar("x"), PatternVar("y"))),
            PatternApp(
                eg.symbol("not", 1),
                (PatternApp(eg.symbol("gt", 2), (PatternVar("x"), PatternVar("y"))),),
            ),
        )
    )
    eng.add_rule(
        Rule(
            "true-is-not-false",
            PatternApp(eg.symbol("true", 0), ()),
            PatternApp(eg.symbol("not", 1), (PatternApp(eg.symbol("false", 0), ()),)),
        )
    )
    ternary = term(
        "if", term("gt", term("a"), term("b")),
        term("gt", term("a"), term("b")),
        term("le", term("a"), term("b")),
    )
    root = eng.add_root(ternary)
    return eng, root


def test_apply_scopes_creates_branch_contexts():
    eng, root = conditional_engine()
    eg = eng.eg
    n = eng.apply_scopes()
    assert n == 1
    then = eg.context("then")
    els = eg.context("else")
    gt = eg.intern(term("gt", term("a"), term("b")))
    true = eg.intern(term("true"))
    false = eg.intern(term("false"))
    assert eg.equiv(then, gt, true)
    assert eg.equiv(els, gt, false)
    assert eg.equiv(then, root, gt)
    assert not eg.equiv(BOTTOM, gt, true)
    # second pass is cached
    assert eng.apply_scopes() == 0


def test_conditional_elimination_end_to_end():
    eng, root = conditional_engine()
    eg = eng.eg
    report = eng.run(5)
    assert report.saturated
    assert report.iterations <= 5
    true = eg.intern(term("true"))
    assert eg.equiv(BOTTOM, root, true)
    le = eg.intern(term("le", term("a"), term("b")))
    gt = eg.intern(term("gt", term("a"), term("b")))
    assert eg.equiv(eg.context("then"), gt, true)
    assert eg.equiv(eg.context("else"), le, true)
    assert not eg.equiv(BOTTOM, gt, true)
    assert not eg.equiv(BOTTOM, le, true)


def test_two_conditionals_with_one_condition_share_contexts():
    eng = Engine()
    eg = eng.eg
    for name, arity in [
        ("true", 0), ("false", 0), ("if", 3), ("c", 0),
        ("p", 0), ("q", 0), ("r", 0), ("s", 0),
    ]:
        eg.declare_function(name, arity)
    eng.add_conditional_scope("if", "true", "false")
    first = eng.add_root(term("if", term("c"), term("p"), term("q")))
    second = eng.add_root(term("if", term("c"), term("r"), term("s")))
    assert eng.apply_scopes() == 1
    then, els = eg.context("then"), eg.context("else")
    assert not eg.lattice.has_name("then#2")
    # both conditionals are scoped by the shared hypothesis
    assert eg.equiv(then, first, eg.intern(term("p")))
    assert eg.equiv(then, second, eg.intern(term("r")))
    assert eg.equiv(els, first, eg.intern(term("q")))
    assert eg.equiv(els, second, eg.intern(term("s")))
    assert not eg.equiv(then, first, second)


def test_intersection_only_promotes_pairs_shared_by_both_branches():
    eng, root = conditional_engine()
    eg = eng.eg
    eng.apply_scopes()
    for rule in eng.rules:
        query, rhs = eng._compiled[rule.name]
        for ctx in eng._admissible_contexts(rule.scope):
            eng.eg._instantiate(ctx, rhs, eng.ematch(ctx, query))
    eg.rebuild()
    then, els = eg.context("then"), eg.context("else")

    def pairs(ctx):
        return {
            (a, b)
            for block in eg.uf.partition(ctx)
            for a in block
            for b in block
        }

    before_bot = pairs(BOTTOM)
    then_pairs, else_pairs = pairs(then), pairs(els)
    assert eng.apply_intersections() > 0
    new = pairs(BOTTOM) - before_bot
    assert new
    assert new <= then_pairs and new <= else_pairs


def test_intersection_without_shared_equalities():
    eng = Engine()
    eg = eng.eg
    for name, arity in [
        ("true", 0), ("false", 0), ("if", 3), ("c", 0), ("p", 0), ("q", 0),
    ]:
        eg.declare_function(name, arity)
    eng.add_conditional_scope("if", "true", "false")
    eng.add_root(term("if", term("c"), term("p"), term("q")))
    eng.apply_scopes()
    eg.rebuild()
    assert eng.apply_intersections() == 0


def test_nested_conditional_lands_at_enclosing_context():
    # the inner conditional's promotion must use outer-branch knowledge and
    # stop at the outer branch context, not reach bottom
    eng = Engine()
    eg = eng.eg
    for name, arity in [
        ("true", 0), ("false", 0), ("if", 3), ("gt", 2), ("f", 1),
        ("a", 0), ("b", 0), ("c", 0), ("d", 0),
    ]:
        eg.declare_function(name, arity)
    eng.add_conditional_scope("if", "true", "false")
    # (f true) -> true makes the inner else-body true exactly where the
    # outer condition is known to hold
    eng.add_rule(
        Rule(
            "f-true",
            PatternApp(eg.symbol("f", 1), (PatternApp(eg.symbol("true", 0), ()),)),
            PatternApp(eg.symbol("true", 0), ()),
        )
    )
    outer_cond = term("gt", term("a"), term("b"))
    inner_cond = term("gt", term("c"), term("d"))
    inner = term("if", inner_cond, inner_cond, term("f", outer_cond))
    outer = term("if", outer_cond, inner, term("a"))
    eng.add_root(outer)
    eng.run(6)
    then = eg.context("then")
    inner_cls = eg.intern(inner)
    true = eg.intern(term("true"))
    eg.rebuild()
    assert eg.equiv(then, inner_cls, true)
    assert not eg.equiv(BOTTOM, inner_cls, true)
    # inner branch contexts chain above the outer then context
    tt = eg.context("then.then")
    assert eg.lattice.leq(then, tt)
    assert eg.lattice.meet(tt, eg.context("then.else")) == then


@pytest.mark.parametrize("moved", ["then", "else", "bot"])
def test_intersection_reruns_once_its_branches_move(moved):
    # p = q holds in the branch that does not move; the other gets it from
    # x = y, merged at that branch or at bottom
    eng = Engine()
    eg = eng.eg
    for name, arity in [("true", 0), ("false", 0), ("if", 3), ("k", 1)] + [
        (n, 0) for n in "cdepqxyz"
    ]:
        eg.declare_function(name, arity)
    eng.add_conditional_scope("if", "true", "false")
    eng.add_root(term("if", term("c"), term("d"), term("e")))
    eng.apply_scopes()
    then, els = eg.context("then"), eg.context("else")
    # ids x < y < p < q: the base union of x and y drops no overlay key
    x, y, p, q = (eg.intern(term(n)) for n in "xypq")
    if moved == "bot":
        for ctx, (a, b) in [(then, (x, y)), (els, (y, x))]:
            eg.merge(ctx, p, a)
            eg.merge(ctx, q, b)
    else:
        still, moving = (els, then) if moved == "then" else (then, els)
        eg.merge(still, p, q)
        eg.merge(moving, p, x)
        eg.merge(moving, q, y)
    eg.rebuild()
    assert eng.apply_intersections() == 0
    eg.intern(term("k", term("z")))  # new ids create no equality
    eg.rebuild()
    assert eng.apply_intersections() == 0
    eg.merge({"then": then, "else": els, "bot": BOTTOM}[moved], x, y)
    eg.rebuild()
    assert eng.apply_intersections() > 0
    assert eg.equiv(BOTTOM, p, q)


@pytest.mark.parametrize("depth", [4, 12, 32])
def test_conditional_tower_saturates_in_two_iterations(depth):
    # innermost first, one intersection pass carries the tower's promotions
    # down to bottom; the second iteration only confirms the fixpoint
    out = run_source(nested_conditional_program(depth))
    assert [(r.iterations, r.saturated) for r in out.reports] == [(2, True)]
    assert all(c.ok for c in out.checks)


CONDITIONS = ["(gt a b)", "(gt b c)", "(gt c a)", "(eq a b)", "(eq (f a) c)"]


def random_nested_conditional_program(seed: int) -> str:
    """Seeded terms of conditionals nested up to four deep over a few shared
    conditions, many of them true by cases (both branches reach true, or
    hold the same body), with negation rules and, by seed, an equality
    symbol and a commutative or idempotent rule."""
    rng = random.Random(seed)
    lines = [f"(function {name} {arity})" for name, arity in [
        ("true", 0), ("false", 0), ("if", 3), ("eq", 2), ("gt", 2), ("not", 1),
        ("f", 1), ("g", 2), ("a", 0), ("b", 0), ("c", 0),
    ]]
    lines.append("(scope-if if true false eq)" if seed % 2 else "(scope-if if true false)")
    lines.append("(rule not-false (not false) true :scope everywhere)")
    lines.append("(rule not-true (not true) false :scope everywhere)")
    if seed % 3 == 0:
        lines.append("(rule g-comm (g ?x ?y) (g ?y ?x) :scope everywhere)")
    if seed % 3 == 1:
        lines.append("(rule g-idem (g ?x ?x) ?x :scope everywhere)")

    def body(depth):
        r = rng.random()
        cond = rng.choice(CONDITIONS)
        if depth > 0 and r < 0.3:
            return f"(if {cond} {body(depth - 1)} {body(depth - 1)})"
        if depth > 0 and r < 0.55:
            inner = body(depth - 1) if rng.random() < 0.7 else cond
            return rng.choice([f"(if {cond} {inner} (not {cond}))", f"(if {cond} {inner} {inner})"])
        if r < 0.7:
            return rng.choice([cond, f"(not {cond})"])
        if r < 0.85:
            return f"(g {rng.choice('abc')} {rng.choice('abc')})"
        return rng.choice(["a", "b", "c", "(f a)", "true"])

    lines += [f"(term {body(rng.randint(1, 4))})" for _ in range(rng.randint(1, 2))]
    lines.append("(run 12)")
    return "\n".join(lines) + "\n"


def test_skipped_intersections_have_nothing_to_promote():
    # an instance skipped because its branches did not move would merge
    # nothing if it ran: after saturation, no instance promotes anything
    sources = [corpus_source(name) for name in CORPUS_NAMES]
    sources += [random_nested_conditional_program(seed) for seed in range(200)]
    for i, source in enumerate(sources):
        out = run_source(source)
        assert out.reports[-1].saturated, f"input {i}"
        eng = out.engine
        for inst in eng._cond_instances:
            assert eng.eg.uf.intersect_into(inst.gamma, inst.then_ctx, inst.else_ctx) == 0, f"input {i}"


def every_instance_in_creation_order(self) -> int:
    total = 0
    for inst in self._cond_instances:
        total += self.eg.uf.intersect_into(inst.gamma, inst.then_ctx, inst.else_ctx)
    return total


def test_intersection_order_and_skip_reach_the_reference_fixpoint(monkeypatch):
    """The reference intersects every instance, outermost first, on every
    iteration. Both reach the same relation at every context and the same
    nodes, and the new order needs no more iterations. On the corpora and
    towers the rules apply equally often. On random programs a rule at a
    context created later can match a root that the reference has not yet
    merged there, and match it again once it has, so the new run applies
    no more rules than the reference."""
    exact = [corpus_source(name) for name in CORPUS_NAMES]
    exact += [nested_conditional_program(d) for d in range(1, 7)]
    sources = exact + [random_nested_conditional_program(seed) for seed in range(200)]

    def observe(source):
        out = run_source(source)
        eg = out.engine.eg
        return (
            {eg.lattice.name(c): eg.uf.partition(c) for c in eg.lattice.ids()},
            len(eg.nodes()),
            sum(r.rule_applications for r in out.reports),
            sum(r.iterations for r in out.reports),
            out.reports[-1].saturated,
        )

    new = [observe(source) for source in sources]
    monkeypatch.setattr(Engine, "apply_intersections", every_instance_in_creation_order)
    ref = [observe(source) for source in sources]
    for i, (n, r) in enumerate(zip(new, ref)):
        assert n[4] and r[4], f"input {i}"
        assert n[:2] == r[:2], f"input {i}"
        assert n[3] <= r[3], f"input {i}"
        if i < len(exact):
            assert n[2] == r[2], f"input {i}"
        else:
            assert n[2] <= r[2], f"input {i}"
    assert sum(n[3] for n in new) < sum(r[3] for r in ref)


@contextmanager
def time_budget(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_conditionals_promoted_into_one_class_terminate():
    # both conditionals equal a by cases, so promotion puts both into a's
    # class; the walk then meets each inside the other's branches, which
    # must already know their own condition
    source = """
    (function true 0) (function false 0) (function if 3) (function gt 2)
    (function a 0) (function b 0) (scope-if if true false)
    (term (if (gt a b) a a)) (term (if (gt b a) a a)) (run 5)
    (check-equal bot (if (gt a b) a a) a)
    (check-equal bot (if (gt b a) a a) a)
    """
    with time_budget(10):
        out = run_source(source)
    assert out.reports[-1].saturated
    assert [c.ok for c in out.checks] == [True, True]
    # one instance per (enclosing context, undecided condition): each
    # condition at bot, and the other one inside each of those branches
    assert len(out.engine.eg.lattice) == 13


def test_condition_nested_in_its_own_branch_is_decided():
    eng = Engine()
    eg = eng.eg
    for name, arity in [
        ("true", 0), ("false", 0), ("if", 3), ("gt", 2), ("a", 0), ("b", 0),
    ]:
        eg.declare_function(name, arity)
    eng.add_conditional_scope("if", "true", "false")
    cond = term("gt", term("a"), term("b"))
    inner = term("if", cond, term("a"), term("b"))
    root = eng.add_root(term("if", cond, inner, term("b")))
    assert eng.run(5).saturated
    lat = eg.lattice
    assert [lat.name(c) for c in lat.ids()] == ["bot", "then", "else"]
    then = eg.context("then")
    a = eg.intern(term("a"))
    assert eg.equiv(then, eg.intern(inner), a)
    assert eg.equiv(then, root, a)
    assert not eg.equiv(BOTTOM, root, a)


def lambda_engine(body, value="2"):
    eng = Engine()
    eg = eng.eg
    for name, arity in [
        ("app", 2), ("lam", 2), ("var", 1), ("plus", 2),
        ("x", 0), ("1", 0), ("2", 0), ("3", 0), ("g", 1),
    ]:
        eg.declare_function(name, arity)
    eng.add_lambda_scope("app", "lam", "var")
    eng.add_rule(
        Rule(
            "two-plus-one",
            PatternApp(
                eg.symbol("plus", 2),
                (PatternApp(eg.symbol("2", 0), ()), PatternApp(eg.symbol("1", 0), ())),
            ),
            PatternApp(eg.symbol("3", 0), ()),
        )
    )
    app = term("app", term("lam", term("x"), body), term(value))
    root = eng.add_root(app)
    return eng, root


def extracts_avoiding(eg, ctx, cls, forbid):
    """Does extract find a term of the class with no forbidden symbol?"""
    try:
        extract(eg, ctx, cls, forbid=forbid)
    except NoFiniteTerm:
        return False
    return True


def test_avoidable_on_lambda_body():
    eng, root = lambda_engine(term("plus", term("var", term("x")), term("1")))
    eg = eng.eg
    eng.run(4)
    body_ctx = eg.context("body")
    body = eg.intern(term("plus", term("var", term("x")), term("1")))
    assert extracts_avoiding(eg, body_ctx, body, "x")
    var_only = eg.intern(term("var", term("x")))
    # the binder class itself is only avoidable because the argument joined it
    assert extracts_avoiding(eg, body_ctx, var_only, "x")
    assert not extracts_avoiding(eg, BOTTOM, var_only, "x")


def test_avoidable_agrees_with_term_enumeration():
    # tiered graphs have witnesses of depth <= 4, so depth-5 enumeration
    # decides avoidability exactly
    from test_extraction import enumerate_terms, layered_random_graph, term_mentions

    for seed in range(40):
        eg, classes, _ = layered_random_graph(seed + 6000, tiers=3, per_tier=2)
        rng = random.Random(seed)
        banned = rng.choice([s.name for s in eg.symbols() if s.arity == 0])
        for ctx in eg.lattice.ids():
            for cls in classes:
                expected = any(
                    not term_mentions(t, banned)
                    for t in enumerate_terms(eg, ctx, cls, 5)
                )
                got = extracts_avoiding(eg, ctx, cls, banned)
                assert got == expected, f"seed={seed}"


def test_avoidable_false_when_every_term_mentions_binder():
    eng = Engine()
    eg = eng.eg
    for name, arity in [("var", 1), ("x", 0), ("g", 1)]:
        eg.declare_function(name, arity)
    gx = eg.intern(term("g", term("var", term("x"))))
    eg.rebuild()
    with pytest.raises(NoFiniteTerm):
        extract(eg, BOTTOM, gx, forbid="x")


def test_lambda_lift_end_to_end():
    eng, root = lambda_engine(term("plus", term("var", term("x")), term("1")))
    eg = eng.eg
    report = eng.run(6)
    assert report.saturated
    three = eg.intern(term("3"))
    assert eg.equiv(BOTTOM, root, three)
    # the body class stays contextual
    body = eg.intern(term("plus", term("var", term("x")), term("1")))
    assert not eg.equiv(BOTTOM, body, three)
    assert eg.equiv(eg.context("body"), body, three)
    # witness re-check: the lifted class really holds a binder-free term
    from test_extraction import enumerate_terms, term_mentions

    derivable = enumerate_terms(eg, BOTTOM, root, 5)
    assert any(not term_mentions(t, "x") for t in derivable)


def test_lambda_lift_beta_reduces_through_structure():
    # (lam x (g (var x))) applied to 2 lifts to (g 2)
    eng, root = lambda_engine(term("g", term("var", term("x"))))
    eg = eng.eg
    eng.run(6)
    g2 = eg.intern(term("g", term("2")))
    eg.rebuild()
    assert eg.equiv(BOTTOM, root, g2)


def test_unapplied_lambda_lifts_nothing():
    eng = Engine()
    eg = eng.eg
    for name, arity in [("app", 2), ("lam", 2), ("var", 1), ("x", 0)]:
        eg.declare_function(name, arity)
    eng.add_lambda_scope("app", "lam", "var")
    eng.add_root(term("lam", term("x"), term("var", term("x"))))
    report = eng.run(3)
    assert report.saturated
    assert eng.apply_lambda_lifts() == 0
    assert not eg.lattice.has_name("body")


def test_empty_rule_set_saturates_immediately():
    eng = Engine()
    eng.eg.declare_function("a", 0)
    eng.add_root(term("a"))
    report = eng.run(10)
    assert report.saturated
    assert report.iterations == 1
    assert report.rule_applications == 0


def test_scoped_rule_unions_stay_at_or_above_scope():
    eng = Engine()
    eg = eng.eg
    s = eg.declare_context("s", {BOTTOM})
    t = eg.declare_context("t", {s})
    for name, arity in [("f", 1), ("g", 1), ("a", 0)]:
        eg.declare_function(name, arity)
    eng.add_rule(
        Rule(
            "swap",
            PatternApp(eg.symbol("f", 1), (PatternVar("x"),)),
            PatternApp(eg.symbol("g", 1), (PatternVar("x"),)),
            AtOrAbove("s"),
        )
    )
    eng.add_root(term("f", term("a")))
    before = dict(eg.uf.unions_at)
    eng.run(4)
    touched = {
        c for c in eg.uf.unions_at
        if eg.uf.unions_at[c] != before.get(c, 0)
    }
    assert touched <= set(eg.lattice.upset(s))
    assert eg.equiv(s, eg.intern(term("f", term("a"))), eg.intern(term("g", term("a"))))
    assert not eg.equiv(BOTTOM, eg.intern(term("f", term("a"))), eg.intern(term("g", term("a"))))
    assert eg.equiv(t, eg.intern(term("f", term("a"))), eg.intern(term("g", term("a"))))


def test_at_context_rule_fires_only_there():
    eng = Engine()
    eg = eng.eg
    s = eg.declare_context("s", {BOTTOM})
    t = eg.declare_context("t", {BOTTOM})
    for name, arity in [("f", 1), ("g", 1), ("a", 0)]:
        eg.declare_function(name, arity)
    eng.add_rule(
        Rule(
            "swap",
            PatternApp(eg.symbol("f", 1), (PatternVar("x"),)),
            PatternApp(eg.symbol("g", 1), (PatternVar("x"),)),
            AtContext("s"),
        )
    )
    eng.add_root(term("f", term("a")))
    eng.run(4)
    fa = eg.intern(term("f", term("a")))
    ga = eg.intern(term("g", term("a")))
    assert eg.equiv(s, fa, ga)
    assert not eg.equiv(t, fa, ga)
    assert not eg.equiv(BOTTOM, fa, ga)


def test_monotone_equalities_across_iterations():
    eng, root = conditional_engine()
    eg = eng.eg
    history = []

    def snap(engine):
        pairs = {}
        for ctx in engine.eg.lattice.ids():
            part = engine.eg.uf.partition(ctx)
            pairs[ctx] = {
                (a, b) for block in part for a in block for b in block
            }
        history.append(pairs)

    eng.run(5, iteration_hook=snap)
    for prev, cur in zip(history, history[1:]):
        for ctx, pairs in prev.items():
            assert pairs <= cur[ctx]


def test_equality_reflection_requires_opt_in():
    def build(with_eq):
        eng = Engine()
        eg = eng.eg
        for name, arity in [
            ("true", 0), ("false", 0), ("if", 3), ("eq", 2),
            ("mul", 2), ("shift", 1), ("x", 0), ("y", 0), ("2", 0),
        ]:
            eg.declare_function(name, arity)
        eng.add_conditional_scope("if", "true", "false", "eq" if with_eq else None)
        eng.add_rule(
            Rule(
                "mul2-to-shift",
                PatternApp(
                    eg.symbol("mul", 2),
                    (PatternApp(eg.symbol("2", 0), ()), PatternVar("y")),
                ),
                PatternApp(eg.symbol("shift", 1), (PatternVar("y"),)),
            )
        )
        eng.add_root(
            term("if", term("eq", term("x"), term("2")),
                 term("mul", term("x"), term("y")), term("y"))
        )
        eng.run(6)
        eg.rebuild()
        return eng

    eng = build(True)
    eg = eng.eg
    then = eg.context("then")
    assert eg.equiv(then, eg.intern(term("x")), eg.intern(term("2")))
    assert eg.equiv(
        then,
        eg.intern(term("mul", term("x"), term("y"))),
        eg.intern(term("shift", term("y"))),
    )
    eng = build(False)
    eg = eng.eg
    then = eg.context("then")
    assert not eg.equiv(then, eg.intern(term("x")), eg.intern(term("2")))


def test_lambda_lifts_by_a_stored_leaf_as_by_extraction(monkeypatch):
    """Lifting a body's cheap leaf by its stored class leaves each run as
    extracting it from the body context's view would: with no cheap leaf
    listed, every digest of `scripts/fingerprint.py` is the same. The
    corpora, the lambda chains of depth 2 to 4 and two costed variants of
    the lambda corpus run both ways; in the variants the body's cheapest
    binder-free term is (plus 2 1), as 3 costs 5, so the lift extracts,
    and with plus free no leaf is cheap at all. In the last program the
    binder itself is the body's one cheap leaf, which the lift skips."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
    import fingerprint
    import workloads

    sources = {name: corpus_source(name) for name in CORPUS_NAMES}
    for d in (2, 3, 4):
        for args in itertools.product((1, 2), repeat=d):
            op = workloads.lambda_op(list(args))
            sources[op.label] = op.source
    for costs in ("(cost 3 5)", "(cost 3 5)\n(cost plus 0)"):
        sources[costs] = corpus_source("lambda").replace("(run 6)", f"{costs}\n(run 6)")
    sources["binder"] = (
        "(function app 2) (function lam 2) (function var 1) (function x 0) (function 2 0)\n"
        "(scope-lambda app lam var)\n(rule unwrap (var ?v) ?v :scope everywhere)\n"
        "(cost x 0)\n(term (app (lam x (var x)) 2))\n(run 4)\n"
        "(extract bot (app (lam x (var x)) 2))\n"
    )
    extractions = []
    real = scopes.extract_from_view
    monkeypatch.setattr(scopes, "extract_from_view", lambda *a: extractions.append(1) or real(*a))

    def runs():
        out = {}
        for label, source in sources.items():
            extractions.clear()
            out[label] = fingerprint.digests(source), len(extractions)
        return out

    # a lift of the binder would nest body contexts without end
    with time_budget(30):
        with_leaves = runs()
        monkeypatch.setattr(scopes, "cheap_leaves", lambda eg, model: [])
        without = runs()
    assert {k: v[0] for k, v in with_leaves.items()} == {k: v[0] for k, v in without.items()}
    lifted_by_leaf = {k for k in sources if with_leaves[k][1] < without[k][1]}
    assert lifted_by_leaf == {"lambda", *(k for k in sources if k.startswith("lambda-"))}
    assert run_source(sources["(cost 3 5)"]).extracts[0].term == "(plus 2 1)"
    assert run_source(sources["binder"]).extracts[0].term == "2"


def test_idle_test_and_ground_probe_change_no_run(monkeypatch):
    """A rule visit that returns early, as idle (no row of the query's
    symbols logged since its last visit: `CanonicalView.moved` is false) or
    as absent (its root's arguments are constants and the view names no
    `CanonicalView.holder` of that row), leaves each run as the full join
    would: with `moved` forced to say yes, and every rule compiled as if
    its root had a variable argument, every digest of
    `scripts/fingerprint.py` is the same, on the corpora, the lambda chains
    of depth 2 to 4, the towers of depth 4 to 6, `ac_op(3, j)` and 200
    random rewrite programs. The idle test is taken on each family."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
    import fingerprint
    import workloads

    sources = {name: ("corpus", corpus_source(name)) for name in CORPUS_NAMES}
    for d in (2, 3, 4):
        for args in itertools.product((1, 2), repeat=d):
            op = workloads.lambda_op(list(args))
            sources[op.label] = "lambda", op.source
    for d in (4, 5, 6):
        for level in range(1, d + 1):
            op = workloads.tower_op(d, level)
            sources[op.label] = "tower", op.source
    for j in range(3):
        sources[f"ac-{j}"] = "ac", workloads.ac_op(3, j, random.Random(j)).source
    for seed in range(200):
        sources[f"random-{seed}"] = "random", random_rewrite_program(seed)[0]
    taken = {"idle": set(), "absent": set()}
    family = [None]
    moved, holder = CanonicalView.moved, CanonicalView.holder

    def counted_moved(*args):
        got = moved(*args)
        if not got:
            taken["idle"].add(family[0])
        return got

    def counted_holder(*args):
        got = holder(*args)
        if got is None:
            taken["absent"].add(family[0])
        return got

    def digests():
        out = {}
        for label, (kind, source) in sources.items():
            family[0] = kind
            out[label] = fingerprint.digests(source)
        return out

    monkeypatch.setattr(CanonicalView, "moved", counted_moved)
    monkeypatch.setattr(CanonicalView, "holder", counted_holder)
    fast = digests()
    monkeypatch.setattr(CanonicalView, "moved", lambda *args: True)
    compile_ = rewrite._compile
    monkeypatch.setattr(rewrite, "_compile", lambda p: compile_(p)._replace(ground=None))
    assert digests() == fast
    assert taken["idle"] == {"corpus", "lambda", "tower", "ac", "random"}
    # the towers' and the ac programs' rules have a variable under the root
    assert taken["absent"] == {"corpus", "lambda", "random"}


def test_a_ground_rules_root_row_decides_its_visit_as_the_join_would(monkeypatch):
    """A rule whose root's arguments are all constants is answered from its
    one root row's class (`CanonicalView.holder`) when the view reports no
    clash, a delta visit only if that row was logged since
    (`CanonicalView._logged`). Compiled without that knowledge, every such
    rule joins instead, and every digest of
    `scripts/fingerprint.py` is the same, on the corpora, the lambda chains
    of depth 2 to 4 and 200 random rewrite programs. Both outcomes of the
    delta test are taken."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
    import fingerprint
    import workloads

    sources = [corpus_source(name) for name in CORPUS_NAMES]
    sources += [
        workloads.lambda_op(list(args)).source
        for d in (2, 3, 4) for args in itertools.product((1, 2), repeat=d)
    ]
    sources += [random_rewrite_program(seed)[0] for seed in range(200)]
    delta = {"found": 0, "none": 0}
    real = CanonicalView._logged

    def counted(db, row, c, since):
        got = real(db, row, c, since)
        delta["found" if got else "none"] += 1
        return got

    monkeypatch.setattr(CanonicalView, "_logged", counted)
    fast = [fingerprint.digests(source) for source in sources]
    assert delta["found"] and delta["none"]
    taken = dict(delta)
    compile_ = rewrite._compile
    monkeypatch.setattr(rewrite, "_compile", lambda p: compile_(p)._replace(ground=None))
    assert [fingerprint.digests(source) for source in sources] == fast
    assert delta == taken


def test_a_lambda_instances_nodes_are_read_from_the_bottom_view_after_a_merge():
    """A lambda instance's lambda nodes and its binder class's nullary names
    are read from the bottom view as it stands: after bottom merges of the
    function class and of the binder class, both readings hold the merged
    classes' rows."""
    eng, root = lambda_engine(term("plus", term("var", term("x")), term("1")))
    eg = eng.eg
    eng.run(4)
    inst, = eng._lambda_instances
    binder = scopes._lambda_nodes(eg, inst.fn_class, inst.construct)[0].children[0]
    other = eg.intern(term("lam", term("3"), term("2")))
    eg.merge(BOTTOM, inst.fn_class, other)
    eg.merge(BOTTOM, binder, eg.intern(term("3")))
    eg.rebuild()
    assert len(scopes._lambda_nodes(eg, inst.fn_class, inst.construct)) == 2
    names = {n.symbol.name for n in eg.classes()[eg.find(BOTTOM, binder)] if n.symbol.arity == 0}
    assert names == {"x", "3"}
