"""Independent brute-force references the engine is checked against.

Everything here is deliberately naive: closures are computed by BFS over
explicit pair sets, congruence by a global fixpoint over all node pairs, and
pattern matching / extraction by bounded enumeration, and the reference
parser reads positions as it goes. None of it shares logic with the engine;
the parser builds the DSL's own command types, so results compare by value.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import defaultdict
from operator import itemgetter
from typing import NamedTuple

from ctxsat.dsl import (
    CheckCmd,
    ContextCmd,
    CostCmd,
    ExtractCmd,
    FunctionCmd,
    Program,
    RuleCmd,
    RunCmd,
    ScopeIfCmd,
    ScopeLambdaCmd,
    TermCmd,
)
from ctxsat.egraph import Term
from ctxsat.errors import CommandArityError, DslSyntaxError, UnboundRhsVariable, UnknownCommand
from ctxsat.extract import check_cost
from ctxsat.lattice import ContextLattice
from ctxsat.rewrite import AtContext, AtOrAbove, Everywhere


def closure_blocks(n: int, pairs) -> frozenset[frozenset[int]]:
    """Partition of range(n) induced by the reflexive-symmetric-transitive
    closure of the given pairs, via connected components."""
    adj = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    blocks = []
    for i in range(n):
        if i in seen:
            continue
        comp = {i}
        stack = [i]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        blocks.append(frozenset(comp))
    return frozenset(blocks)


def blocks_to_pairs(blocks) -> frozenset[tuple[int, int]]:
    out = set()
    for b in blocks:
        for x in b:
            for y in b:
                out.add((x, y))
    return frozenset(out)


class NaiveLayered:
    """Reference model: per-context edge sets, closed on demand.

    The relation at ctx is the closure of every edge recorded at any context
    at or below ctx, which is exactly the join (in the lattice of equivalence
    relations) of the per-context deltas.
    """

    def __init__(self, lattice: ContextLattice):
        self.lattice = lattice
        self.n = 0
        self.edges: dict[int, set[tuple[int, int]]] = defaultdict(set)

    def make_set(self) -> int:
        self.n += 1
        return self.n - 1

    def union(self, ctx: int, a: int, b: int) -> None:
        self.edges[ctx].add((a, b))

    def partition(self, ctx: int) -> frozenset[frozenset[int]]:
        pairs = []
        for c in self.lattice.ids():
            if self.lattice.leq(c, ctx):
                pairs.extend(self.edges[c])
        return closure_blocks(self.n, pairs)

    def block_of(self, ctx: int):
        out = {}
        for block in self.partition(ctx):
            for i in block:
                out[i] = block
        return out

    def intersect_into(self, lo: int, c1: int, c2: int) -> int:
        """Group every id on its pair of blocks at c1 and c2 and join each
        group at lo; returns the number of lo blocks it joined away."""
        b1 = self.block_of(c1)
        b2 = self.block_of(c2)
        before = len(self.partition(lo))
        groups = defaultdict(list)
        for i in range(self.n):
            groups[(b1[i], b2[i])].append(i)
        for g in groups.values():
            for other in g[1:]:
                self.edges[lo].add((g[0], other))
        return before - len(self.partition(lo))


def brute_glb(lattice: ContextLattice, a: int, b: int):
    lower = [c for c in lattice.ids() if lattice.leq(c, a) and lattice.leq(c, b)]
    maximal = [
        x for x in lower
        if not any(y != x and lattice.leq(x, y) for y in lower)
    ]
    return maximal


def brute_lub(lattice: ContextLattice, a: int, b: int):
    upper = [c for c in lattice.ids() if lattice.leq(a, c) and lattice.leq(b, c)]
    minimal = [
        x for x in upper
        if not any(y != x and lattice.leq(y, x) for y in upper)
    ]
    return minimal


def naive_contextual_congruence(lattice, nodes, n_ids, explicit):
    """Per-context congruence-closure fixpoint.

    nodes: list of (symbol_name, child_ids, class_id); explicit: list of
    (ctx, a, b) asserted merges. Returns {ctx: partition blocks} where every
    context's relation is closed under (a) everything asserted at or below
    it, (b) congruence, and (c) containment of lower contexts' relations.
    """
    pairs = {c: set() for c in lattice.ids()}
    for ctx, a, b in explicit:
        pairs[ctx].add((a, b))
    while True:
        changed = False
        part = {c: closure_blocks(n_ids, pairs[c]) for c in lattice.ids()}
        rel = {c: blocks_to_pairs(part[c]) for c in lattice.ids()}
        for c1 in lattice.ids():
            for c2 in lattice.ids():
                if c1 != c2 and lattice.leq(c1, c2):
                    missing = rel[c1] - rel[c2]
                    if missing:
                        pairs[c2] |= missing
                        changed = True
        for c in lattice.ids():
            root = {}
            for block in part[c]:
                r = min(block)
                for i in block:
                    root[i] = r
            for (s1, ch1, cls1), (s2, ch2, cls2) in itertools.combinations(nodes, 2):
                if s1 != s2 or len(ch1) != len(ch2):
                    continue
                if (root[cls1] != root[cls2]
                        and all(root[x] == root[y] for x, y in zip(ch1, ch2))):
                    pairs[c].add((cls1, cls2))
                    changed = True
        if not changed:
            return {c: closure_blocks(n_ids, pairs[c]) for c in lattice.ids()}


def resolved(view) -> dict:
    """A view's classes as a fresh dict: class -> rows."""
    return {c: view.nodes_of(c) for c in view.class_ids()}


def snapshot(view) -> tuple[int, dict]:
    """A cached view's version and a copy of its classes: the view itself is
    patched in place, so what it held at a check is kept by copying."""
    return view.version, resolved(view)


def view_index_mismatch(view, prev, symbols) -> str | None:
    """The first disagreement of a cached view's join lookups with a
    brute-force reading of its classes, or None if there is none.

    `_rows(sym, since)` must list, once each, the rows (node, class) that
    the view holds and did not hold at prev, where prev is a `snapshot` of
    the same context's view at an earlier check (or None, which reads as
    version -1 and no rows) and since is its version, and `_rows(sym, -1)`
    every row of sym the view holds, which a first join reads.
    `_parents(sym, pos, child)` must list the rows whose child at pos is
    child. Every row a class holds must have a `_sig` entry, clashes or
    not: a rule whose root's arguments are all constants returns no match
    when its one root row has none. When the view reports no clashes,
    `_sig[row]` must be the class holding each row. Clashes or not, every
    `_sig` entry must name a class that holds its row, so that an entry
    naming a logged row's class tells that the row is still held. Every
    class listed in `_uses` under a child must hold a row over it: a class
    that lost its rows leaves its children's lists, and each list is a dict.
    """

    def rows(classes):
        return {(n, c) for c, ns in classes.items() for n in ns}

    since, before = (-1, {}) if prev is None else prev
    held = rows(resolved(view))
    new = held - rows(before)
    parents = defaultdict(set)
    for n, c in held:
        for pos, child in enumerate(n.children):
            parents[(n.symbol, pos, child)].add((n, c))
    for sym in symbols:
        for after, want in ((since, new), (-1, held)):
            got = view._rows(sym, after)
            if len(got) != len(set(got)) or set(got) != {r for r in want if r[0].symbol == sym}:
                return f"_rows({sym.name}, {after}) at context {view.context}"
    for (sym, pos, child), want in parents.items():
        got = view._parents(sym, pos, child)
        if len(got) != len(set(got)) or set(got) != want:
            return f"_parents({sym.name}, {pos}, {child}) at context {view.context}"
    for n, c in held:
        if n not in view._sig:
            return f"no _sig entry for {n} of {c} at context {view.context}"
        if not view.clashes and view._sig[n] != c:
            return f"_sig[{n}] is not {c} at context {view.context}"
    for n, c in view._sig.items():
        if (n, c) not in held:
            return f"_sig[{n}] names {c}, which does not hold it, at context {view.context}"
    for child, listed in view._uses.items():
        if type(listed) is not dict:
            return f"_uses[{child}] is a {type(listed).__name__} at context {view.context}"
        for c in listed:
            if not any(child in n.children for n in view.nodes_of(c)):
                return f"_uses[{child}] lists {c}, with no row over it, at context {view.context}"
    return None


def whole_view_extraction(classes, root, cost_of, banned=()):
    """(cost, term) of a cheapest term of root's class over a view's classes
    (class -> nodes), avoiding the banned symbol names, or None if there is
    none. Costs are relaxed over every class at once until none falls. A
    class's term is built from its cheapest nodes by smaller symbol name,
    then smaller children, skipping a node with a child whose term would
    re-enter a class on the way down; a class's first built term is reused.
    """

    def node_cost(n):
        k = cost_of(n.symbol.name)
        for ch in n.children:
            k += cost.get(ch, math.inf)
        return k

    allowed = {c: [n for n in ns if n.symbol.name not in banned] for c, ns in classes.items()}
    cost = dict.fromkeys(classes, math.inf)
    while True:
        new = {c: min([cost[c], *map(node_cost, ns)]) for c, ns in allowed.items()}
        if new == cost:
            break
        cost = new
    if cost.get(root, math.inf) == math.inf:
        return None
    memo = {}

    def build(c, path):
        if c in memo or c in path:
            return memo.get(c)
        cheapest = [n for n in allowed[c] if node_cost(n) == cost[c]]
        for n in sorted(cheapest, key=lambda n: (n.symbol.name, n.children)):
            kids = []
            for ch in n.children:
                kids.append(build(ch, path | {c}))
                if kids[-1] is None:
                    break
            else:
                memo[c] = Term(n.symbol.name, tuple(kids))
                return memo[c]
        return None

    return cost[root], build(root, frozenset())


def reference_plan_join(atoms: list, consts: tuple, var_slots: list) -> dict:
    """`rewrite.plan_join` as a scan: each visited atom looks at every atom
    for its neighbours, so a plan takes time quadratic in the atoms.

    A static join plan for each non-constant atom of a compiled query
    (see the rewrite module), keyed by the atom it starts from.

    A partial match is a flat tuple: the constants' classes in the order of
    consts, then each visited row's fields (the class first, unless the row
    was reached through its class). A plan is (check, steps, project): the
    start row's check, then steps (symbol, position, child index or None,
    check), each reaching its atom through the class at that position
    (None) or as a parent at the child index over it. A check is None or
    two item getters that agree when each field equals the earlier field of
    its slot; a field equal by construction is not checked. project maps a
    full match to its root and the values of var_slots, in order."""
    plans = {}
    for start in range(len(atoms)):
        if start in consts:
            continue
        at = {atoms[j][2]: k for k, j in enumerate(consts)}  # slot -> position
        size = len(consts)

        def row(slots, skip=-1):
            """Place a row's fields at the next positions; its check."""
            nonlocal size
            pairs = []
            for k, s in enumerate(slots, size):
                if s not in at:
                    at[s] = k
                elif k != size + skip:
                    pairs.append((k, at[s]))
            size += len(slots)
            if not pairs:
                return None
            return itemgetter(*(k for k, _ in pairs)), itemgetter(*(p for _, p in pairs))

        _, args, out = atoms[start]
        first, steps = row((out, *args)), []
        done, frontier = {start, *consts}, [start]
        while frontier:
            _, args, out = atoms[frontier.pop()]
            for j, (sym_j, args_j, out_j) in enumerate(atoms):
                if j in done or (out_j not in args and out not in args_j):
                    continue
                done.add(j)
                frontier.append(j)
                if out_j in args:
                    steps.append((sym_j, at[out_j], None, row(args_j)))
                else:
                    pos = args_j.index(out)
                    steps.append((sym_j, at[out], pos, row((out_j, *args_j), 1 + pos)))
        keys = [at[0], *map(at.__getitem__, var_slots)]
        project = itemgetter(*keys) if len(keys) > 1 else lambda t, k=keys[0]: (t[k],)
        plans[start] = (first, steps, project)
    return plans


# --- the reference parser -------------------------------------------------
# A positional recursive-descent parser: every atom and list carries its
# line and column as it is read, and errors take theirs from the form at
# hand. `ctxsat.dsl.parse_program` must return the same commands and raise
# the same errors, with the same messages and positions.


class Atom(NamedTuple):
    text: str
    line: int = 0
    col: int = 0


class SList(NamedTuple):
    items: tuple
    line: int = 0
    col: int = 0


# a parenthesis, an atom (a run of characters that are none of these), a
# comment or a line break; spaces, tabs and carriage returns lie between
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*|\n")


def parse_sexprs(source: str) -> list:
    """All top-level s-expressions of the source, with positions (a column
    counts characters from 1 at the start of its line)."""
    out: list = []
    items, stack = out, []
    line, start = 1, 0  # start: where the line begins
    for m in _TOKEN.finditer(source):
        tok = m.group()
        if tok == "(":
            stack.append((items, line, m.start() - start + 1))
            items = []
        elif tok == ")":
            if not stack:
                raise DslSyntaxError("unbalanced parenthesis", line, m.start() - start + 1)
            outer, oline, ocol = stack.pop()
            outer.append(SList(tuple(items), oline, ocol))
            items = outer
        elif tok == "\n":
            line += 1
            start = m.end()
        elif tok[0] != ";":
            items.append(Atom(tok, line, m.start() - start + 1))
    if stack:
        _, oline, ocol = stack[-1]
        raise DslSyntaxError("unclosed parenthesis", oline, ocol)
    return out


def _sexp_to_term(sexp, allow_vars: bool) -> Term:
    if isinstance(sexp, Atom):
        if sexp.text.startswith("?") and not allow_vars:
            raise DslSyntaxError(
                f"pattern variable {sexp.text} not allowed here", sexp.line, sexp.col
            )
        return Term(sexp.text)
    if not sexp.items or not isinstance(sexp.items[0], Atom):
        raise DslSyntaxError("expected a symbol application", sexp.line, sexp.col)
    head = sexp.items[0].text
    if head.startswith("?"):
        raise DslSyntaxError(
            "a pattern variable cannot head an application", sexp.line, sexp.col
        )
    children = tuple(_sexp_to_term(s, allow_vars) for s in sexp.items[1:])
    return Term(head, children)


def term_vars(t: Term) -> set[str]:
    if t.symbol.startswith("?"):
        return {t.symbol}
    out: set[str] = set()
    for c in t.children:
        out |= term_vars(c)
    return out




def _expect_atom(sexp, what: str) -> str:
    if not isinstance(sexp, Atom):
        line, col = sexp.line, sexp.col
        raise DslSyntaxError(f"expected {what}", line, col)
    return sexp.text


def _expect_int(sexp, what: str) -> int:
    text = _expect_atom(sexp, what)
    try:
        return int(text)
    except ValueError:
        raise DslSyntaxError(f"expected {what}, got {text!r}", sexp.line, sexp.col) from None


def _arity(sexp: SList, low: int, high: int, usage: str):
    n = len(sexp.items) - 1
    if not low <= n <= high:
        raise CommandArityError(
            f"{usage} takes {low}{'' if low == high else f'..{high}'} arguments, got {n}",
            sexp.line,
            sexp.col,
        )


def _parse_scope(items, sexp):
    if len(items) == 1:
        word = _expect_atom(items[0], "scope")
        if word == "everywhere":
            return Everywhere()
        if word == "at-or-above":
            raise DslSyntaxError("at-or-above needs a context name", sexp.line, sexp.col)
        return AtContext(word)
    if len(items) == 2 and _expect_atom(items[0], "scope") == "at-or-above":
        return AtOrAbove(_expect_atom(items[1], "context name"))
    raise DslSyntaxError("bad :scope specification", sexp.line, sexp.col)




def _build_command(sexp):
    if isinstance(sexp, Atom):
        raise DslSyntaxError("expected a command list", sexp.line, sexp.col)
    if not sexp.items or not isinstance(sexp.items[0], Atom):
        raise DslSyntaxError("expected a command name", sexp.line, sexp.col)
    head = sexp.items[0].text
    args = sexp.items[1:]
    if head == "function":
        _arity(sexp, 2, 2, "function")
        name, arity = _expect_atom(args[0], "name"), _expect_int(args[1], "arity")
        if arity < 0:
            raise DslSyntaxError("arity must be >= 0", sexp.line, sexp.col)
        return FunctionCmd(name, arity)
    if head == "context":
        _arity(sexp, 2, 2, "context")
        name = _expect_atom(args[0], "name")
        covers_form = args[1]
        if (
            not isinstance(covers_form, SList)
            or not covers_form.items
            or _expect_atom(covers_form.items[0], "covers") != "covers"
        ):
            raise DslSyntaxError("expected (covers <name> ...)", sexp.line, sexp.col)
        covers = tuple(_expect_atom(a, "context name") for a in covers_form.items[1:])
        return ContextCmd(name, covers)
    if head == "cost":
        _arity(sexp, 2, 2, "cost")
        name = _expect_atom(args[0], "name")
        raw = _expect_atom(args[1], "value")
        try:
            value = float(raw)
        except ValueError:
            raise DslSyntaxError(f"bad cost value {raw!r}", sexp.line, sexp.col) from None
        try:
            check_cost(value)
        except ValueError as e:
            raise DslSyntaxError(str(e), sexp.line, sexp.col) from None
        return CostCmd(name, value)
    if head == "scope-if":
        _arity(sexp, 3, 4, "scope-if")
        names = [_expect_atom(a, "symbol name") for a in args]
        return ScopeIfCmd(*names)
    if head == "scope-lambda":
        _arity(sexp, 3, 3, "scope-lambda")
        return ScopeLambdaCmd(*(_expect_atom(a, "symbol name") for a in args))
    if head == "rule":
        _arity(sexp, 5, 6, "rule")
        name = _expect_atom(args[0], "rule name")
        lhs = _sexp_to_term(args[1], allow_vars=True)
        rhs = _sexp_to_term(args[2], allow_vars=True)
        if _expect_atom(args[3], ":scope") != ":scope":
            raise DslSyntaxError("expected :scope", sexp.line, sexp.col)
        scope = _parse_scope(list(args[4:]), sexp)
        unbound = term_vars(rhs) - term_vars(lhs)
        if unbound:
            raise UnboundRhsVariable(
                f"rule {name!r}: rhs variables {sorted(unbound)} "
                f"do not appear in the lhs"
            )
        return RuleCmd(name, lhs, rhs, scope)
    if head == "term":
        _arity(sexp, 1, 1, "term")
        return TermCmd(_sexp_to_term(args[0], allow_vars=False))
    if head == "run":
        _arity(sexp, 1, 1, "run")
        n = _expect_int(args[0], "iteration count")
        if n < 0:
            raise DslSyntaxError("iteration count must be >= 0", sexp.line, sexp.col)
        return RunCmd(n)
    if head in ("check-equal", "check-not-equal"):
        _arity(sexp, 3, 3, head)
        return CheckCmd(
            head == "check-not-equal",
            _expect_atom(args[0], "context name"),
            _sexp_to_term(args[1], allow_vars=False),
            _sexp_to_term(args[2], allow_vars=False),
        )
    if head == "extract":
        _arity(sexp, 2, 4, "extract")
        ctx = _expect_atom(args[0], "context name")
        t = _sexp_to_term(args[1], allow_vars=False)
        forbid = None
        rest = args[2:]
        if rest:
            if len(rest) != 2 or _expect_atom(rest[0], ":forbid") != ":forbid":
                raise DslSyntaxError("expected :forbid <name>", sexp.line, sexp.col)
            forbid = _expect_atom(rest[1], "symbol name")
        return ExtractCmd(ctx, t, forbid)
    raise UnknownCommand(f"unknown command {head!r}", sexp.line, sexp.col)


def reference_parse_program(source: str) -> Program:
    """Commands as `ctxsat.dsl.parse_program` returns them, or its error."""
    return Program(tuple(_build_command(s) for s in parse_sexprs(source)))


