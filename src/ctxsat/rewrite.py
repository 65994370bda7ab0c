"""Rewrite rules, scoping constructs, and the saturation loop.

Rules are tree patterns with variables. A rule's scope decides which
contexts it fires in: everywhere (every declared context), a single named
context, or every context at or above a named one. The named context may
be one a scoping construct makes during the run: the rule fires nowhere
until it exists, and `Engine.run` raises UnknownContext if it still does
not when the run returns. A match found at context c is merged at c, never
below, so derived equalities live exactly where their justification does.

Scoping constructs introduce contexts during the run:

- a conditional node seen at context g gets fresh branch contexts covering g
  in which the condition is equated with the true and false constants and
  the node with the respective branch body; the branch contexts of one
  conditional are later intersected back into g (proof by cases), innermost
  conditional first;
- a lambda application seen at g gets a body context covering g in which the
  bound variable is equated with the argument; once the body class contains
  a term that avoids the variable, a cheapest such term is equated with the
  application at g (a provably cheapest leaf by its stored class, any other
  term extracted from the body context's view).

Where a conditional construct names an equality symbol, any class that a
context proves equal to true and that contains an equality node has that
equality's operands merged in the same context.

Constructs discover their nodes by occurrence: the engine walks the graph
from the root terms, descending into branch bodies under the branch context
and everywhere else under the current one, so nested conditionals land their
intersections at the enclosing branch context rather than at bottom. The
walk skips a class from which no conditional or application node can be
reached (`_reach`, read from the bottom view's rows and parent index when
the walk starts): nothing below such a class instantiates or merges, and a
class that reaches a construct is reached only through classes that do too,
so the walk meets instances and merges in the same order.

E-matching is relational: a left-hand side compiles to a conjunctive query
with one atom `f(children) -> class` per application, evaluated by one
join (`views._join`) over the rows `(node, class)` of a view, which
extends a match through an atom's class or through the rows over a
class. A constant (a nullary atom other than the root) is bound to its
stored node's class before the join, so a parent row over another class
fails at once, and a constant that is not stored matches nothing. A first
join starts from the root symbol's rows in the view's row log (see the
views module). Runs are semi-naive: each rule joins, once from each
non-constant atom, only from the rows logged after its last run at the
context; if a constant's own row was logged since, every match holds it,
so the rule joins in full. Rows change monotonically, so a match built
only from older rows was found then and its right-hand side added and
merged; skipping it leaves the relation as the next rebuild would.
(Re-adding a nested right-hand side before that rebuild can meet a child
merged at bottom meanwhile, so a run that re-matched everything may number
fresh ids, and count unions per context, differently.)

Two tests let a rule visit that cannot match cost a few dictionary probes
(`_idle`, `_absent`). A delta call returns before binding anything when
none of its query's distinct symbols logged a row since. A rule whose
root's arguments are all constants has one root row once the constants are
bound, and every row a view's class holds has a `_sig` entry, so when that
row has none the call returns before any join, first or delta.

Each rule compiles once, in `add_rule` (`_compile` lives in the views
module next to `plan_join`, `_compile_rhs` in the egraph module next to
`EGraph._instantiate`, which runs its steps): its query with a join plan
from each atom, and its right-hand side as post-order steps over a match's
slot tuple (root, values in variable-name order), in which a variable is
its position and each step takes the next one. The loop gets slot tuples
from `ematch` and applies them in their sorted order, which numbers fresh
ids: a step whose node is stored costs a probe of the node store, only a
new node is added (`_add`), and each match makes one union at the rule's
context through the union-find's `_union`, which trusts the engine's ids.
A visit that finds no match applies and counts nothing, and matching
changes no version, so the loop reads the version again only after an
application.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .egraph import ClassId, EGraph, ENode, FunctionSymbol, Term, _compile_rhs
from .errors import DuplicateRule, NoFiniteTerm, UnboundRhsVariable
from .extract import CostModel, cheap_leaves, extract_from_view
from .lattice import BOTTOM, ContextId
from .views import OnTheFlyProvider, Strategy, _compile, _join, _Query


@dataclass(frozen=True)
class PatternVar:
    name: str

    def __str__(self):
        return f"?{self.name}"


@dataclass(frozen=True)
class PatternApp:
    symbol: FunctionSymbol
    args: tuple["Pattern", ...] = ()

    def __str__(self):
        if not self.args:
            return self.symbol.name
        return f"({self.symbol.name} {' '.join(map(str, self.args))})"


Pattern = PatternVar | PatternApp


def pattern_vars(p: Pattern) -> set[str]:
    out, todo = set(), [p]
    while todo:
        p = todo.pop()
        if isinstance(p, PatternVar):
            out.add(p.name)
        else:
            todo += p.args
    return out


@dataclass(frozen=True)
class Everywhere:
    def __str__(self):
        return "everywhere"


@dataclass(frozen=True)
class AtContext:
    context: str

    def __str__(self):
        return self.context


@dataclass(frozen=True)
class AtOrAbove:
    context: str

    def __str__(self):
        return f"at-or-above {self.context}"


RuleScope = Everywhere | AtContext | AtOrAbove


@dataclass(frozen=True)
class Rule:
    name: str
    lhs: Pattern
    rhs: Pattern
    scope: RuleScope = Everywhere()


@dataclass(frozen=True)
class ConditionalScope:
    if_sym: FunctionSymbol
    true_sym: FunctionSymbol
    false_sym: FunctionSymbol
    eq_sym: FunctionSymbol | None = None


@dataclass(frozen=True)
class LambdaScope:
    app_sym: FunctionSymbol
    lam_sym: FunctionSymbol
    var_sym: FunctionSymbol


@dataclass
class _CondInstance:
    gamma: ContextId
    cond: ClassId
    then_ctx: ContextId
    else_ctx: ContextId


@dataclass
class _LambdaInstance:
    gamma: ContextId
    app_class: ClassId
    fn_class: ClassId
    value_class: ClassId
    body_ctx: ContextId
    construct: LambdaScope


@dataclass
class SaturationReport:
    iterations: int = 0
    rule_applications: int = 0
    saturated: bool = False


class Engine:
    """One e-graph plus its rules, scope constructs, and saturation state."""

    def __init__(
        self,
        egraph: EGraph | None = None,
        cost_model: CostModel | None = None,
    ):
        self.eg = egraph or EGraph()
        self.cost_model = cost_model or CostModel()
        self.rules: list[Rule] = []
        self.conditionals: list[ConditionalScope] = []
        self.lambdas: list[LambdaScope] = []
        self.roots: list[ClassId] = []
        self._cond_instances: list[_CondInstance] = []
        self._lambda_instances: list[_LambdaInstance] = []
        # (rule name, ctx) -> eg.version when the rule last matched there
        self._matched_at: dict[tuple[str, ContextId], int] = {}
        # rule name -> its compiled query and right-hand side, set by add_rule
        self._compiled: dict[str, tuple[_Query, tuple]] = {}

    # registration

    def add_rule(self, rule: Rule) -> None:
        if any(r.name == rule.name for r in self.rules):
            raise DuplicateRule(f"rule {rule.name!r} already registered")
        unbound = pattern_vars(rule.rhs) - pattern_vars(rule.lhs)
        if unbound:
            raise UnboundRhsVariable(
                f"rule {rule.name!r}: rhs variables {sorted(unbound)} "
                f"do not appear in the lhs"
            )
        self.rules.append(rule)
        query = _compile(rule.lhs)
        self._compiled[rule.name] = query, _compile_rhs(rule.rhs, query.names)

    def add_conditional_scope(
        self, if_name: str, true_name: str, false_name: str, eq_name: str | None = None
    ) -> ConditionalScope:
        sc = ConditionalScope(
            self.eg.symbol(if_name, 3),
            self.eg.symbol(true_name, 0),
            self.eg.symbol(false_name, 0),
            self.eg.symbol(eq_name, 2) if eq_name else None,
        )
        self.eg.add_node(sc.true_sym, ())
        self.eg.add_node(sc.false_sym, ())
        self.conditionals.append(sc)
        return sc

    def add_lambda_scope(self, app_name: str, lam_name: str, var_name: str) -> LambdaScope:
        sc = LambdaScope(
            self.eg.symbol(app_name, 2),
            self.eg.symbol(lam_name, 2),
            self.eg.symbol(var_name, 1),
        )
        self.lambdas.append(sc)
        return sc

    def add_root(self, t: Term) -> ClassId:
        cls = self.eg.intern(t)
        self.roots.append(cls)
        return cls

    # e-matching

    def ematch(
        self,
        ctx: ContextId,
        pattern: Pattern,
        strategy: Strategy | None = None,
        since: int | None = None,
    ) -> list[tuple[dict[str, ClassId], ClassId]]:
        """All (substitution, root class) pairs making the pattern present in
        the ctx-canonical database, deduplicated under find(ctx).

        The database is the cached view of ctx; Strategy.ON_THE_FLY reads the
        reference provider instead, so tests can compare the two. `since`, an
        `eg.version` read after an earlier call, keeps only matches using a
        row logged after it (a bare variable, and the reference, which keeps
        no log, match in full). Given a rule's compiled query instead of a
        pattern, as the saturation loop passes, returns the same matches as
        slot tuples (root, values in variable-name order)."""
        eg = self.eg
        eg.lattice.check(ctx)
        # a rule's query compiled in add_rule; any other pattern compiles
        # here, plans included
        query = pattern if isinstance(pattern, _Query) else _compile(pattern)
        atoms, consts, names, plans, symbols, ground = query
        if strategy is Strategy.ON_THE_FLY:
            db, since, ground = OnTheFlyProvider(eg, ctx), None, None
        else:
            db = eg.views.get(ctx)
        if not atoms:
            found = [(c, c) for c in db.class_ids()]
        elif since is not None and _idle(db, symbols, since):
            return []
        else:
            fixed = []  # the constants' classes, in the order of consts, as plans read them
            for j in consts:
                cls = eg._nodes.get((atoms[j][0], ()))
                if cls is None:
                    return []
                fixed.append(eg.uf._find(ctx, cls))
            if ground is not None and _absent(db, atoms[0][0], fixed, ground):
                return []
            # a constant's new row is in every match
            if since is not None:
                for j in consts:
                    if db._newest(atoms[j][0]) > since and db._rows(atoms[j][0], since):
                        since = None
                        break
            if since is not None:
                starts = [(plan, db._rows(atoms[i][0], since)) for i, plan in plans.items()]
            else:
                f = atoms[0][0]
                if strategy is Strategy.ON_THE_FLY:
                    seeds = [(n, c) for c in db.class_ids() for n in db.nodes_of(c) if n.symbol == f]
                else:
                    seeds = db._rows(f, -1)
                starts = [(plans[0], seeds)]
            found = {m for plan, seeds in starts for m in _join(db, plan, fixed, seeds)}
        matches = sorted(found)
        if query is pattern:
            return matches
        return [(dict(zip(names, m[1:])), m[0]) for m in matches]

    def _apply(self, ctx: ContextId, rhs: tuple, matches: list[tuple]) -> None:
        """Add a compiled right-hand side over each match, a slot tuple, and
        union it with the match's root at ctx (`EGraph._instantiate`). The
        ids are the engine's own, so the union skips `EGraph.merge`'s
        checks."""
        self.eg._instantiate(ctx, rhs, matches)

    def _admissible_contexts(self, scope: RuleScope) -> list[ContextId]:
        """The contexts a rule of this scope fires in; none while its
        context is not declared, as a construct may make it later in the
        run (`run` rejects a name still unknown when it returns)."""
        lat = self.eg.lattice
        if isinstance(scope, Everywhere):
            return lat.topo_order()
        if not lat.has_name(scope.context):
            return []
        c = lat.id_of(scope.context)
        return [c] if isinstance(scope, AtContext) else sorted(lat.upset(c))

    # scope discovery

    def apply_scopes(self) -> int:
        """Walk occurrences from the roots, instantiating scope constructs.

        Returns the number of new scope instances. A conditional instance
        assumes its condition in its branch contexts when it is created, so
        the walk never enters a branch that does not know its condition; a
        condition assumed on the enclosing context chain counts as decided.
        Every conditional or application the walk meets is equated with its
        branch body, or its variable bound, in the instance's contexts right
        then; nothing is re-asserted afterwards. These merges are never at
        bottom, so the class index the walk reads stays valid; the merges of
        decided conditionals are at the walk's own context, possibly bottom,
        and wait until the walk is done.
        """
        if not self.conditionals and not self.lambdas:
            return 0
        eg, find = self.eg, self.eg.uf._find
        members = eg.classes()
        if_syms = {sc.if_sym: sc for sc in self.conditionals}
        app_syms = {sc.app_sym: sc for sc in self.lambdas}
        lam_syms = {sc.lam_sym for sc in self.lambdas}
        reach = _reach(eg.views.get(BOTTOM), [*if_syms, *app_syms])

        cond_keys = {
            (inst.gamma, find(BOTTOM, inst.cond)): inst
            for inst in self._cond_instances
        }
        lam_keys = {
            (inst.gamma, find(BOTTOM, inst.app_class)): inst
            for inst in self._lambda_instances
        }

        new_instances = 0
        deferred_merges: list[tuple[ContextId, ClassId, ClassId]] = []
        seen: set[tuple[ContextId, ClassId]] = set()
        work = deque((BOTTOM, find(BOTTOM, r)) for r in self.roots)

        while work:
            gamma, cls = work.popleft()
            cls = find(BOTTOM, cls)
            if cls not in reach or (gamma, cls) in seen:
                continue
            seen.add((gamma, cls))
            for node in members[cls]:
                sc = if_syms.get(node.symbol)
                if sc is not None:
                    cond, then_cls, else_cls = node.children
                    work.append((gamma, cond))
                    true_cls = eg.class_of_node(ENode(sc.true_sym, ()))
                    false_cls = eg.class_of_node(ENode(sc.false_sym, ()))
                    if find(gamma, cond) == find(gamma, true_cls):
                        deferred_merges.append((gamma, cls, then_cls))
                        work.append((gamma, then_cls))
                        continue
                    if find(gamma, cond) == find(gamma, false_cls):
                        deferred_merges.append((gamma, cls, else_cls))
                        work.append((gamma, else_cls))
                        continue
                    key = (gamma, find(BOTTOM, cond))
                    inst = cond_keys.get(key)
                    if inst is None:
                        then_ctx = self._fresh_context(gamma, "then")
                        else_ctx = self._fresh_context(gamma, "else")
                        eg.merge(then_ctx, cond, true_cls)
                        eg.merge(else_ctx, cond, false_cls)
                        inst = _CondInstance(gamma, cond, then_ctx, else_ctx)
                        cond_keys[key] = inst
                        self._cond_instances.append(inst)
                        new_instances += 1
                    eg.merge(inst.then_ctx, cls, then_cls)
                    eg.merge(inst.else_ctx, cls, else_cls)
                    work.append((inst.then_ctx, then_cls))
                    work.append((inst.else_ctx, else_cls))
                    continue
                sc = app_syms.get(node.symbol)
                if sc is not None and self._lambda_nodes(node.children[0], sc):
                    fn_cls, value_cls = node.children
                    work.append((gamma, fn_cls))
                    work.append((gamma, value_cls))
                    key = (gamma, cls)
                    inst = lam_keys.get(key)
                    if inst is None:
                        body_ctx = self._fresh_context(gamma, "body")
                        inst = _LambdaInstance(
                            gamma, cls, fn_cls, value_cls, body_ctx, sc
                        )
                        lam_keys[key] = inst
                        self._lambda_instances.append(inst)
                        new_instances += 1
                    for lam_node in self._lambda_nodes(inst.fn_class, sc):
                        var_cls = eg._add(sc.var_sym, (lam_node.children[0],))
                        eg.merge(inst.body_ctx, var_cls, inst.value_class)
                    for lam_node in self._lambda_nodes(fn_cls, sc):
                        work.append((inst.body_ctx, lam_node.children[1]))
                    continue
                if node.symbol in lam_syms:
                    # body is scoped through applications only
                    continue
                for ch in node.children:
                    work.append((gamma, ch))

        for gamma, a, b in deferred_merges:
            self.eg.merge(gamma, a, b)
        self._reflect_equalities()
        return new_instances

    def _lambda_nodes(self, fn_cls: ClassId, sc: LambdaScope) -> list[ENode]:
        nodes = self.eg.classes()[self.eg.uf._find(BOTTOM, fn_cls)]
        return [n for n in nodes if n.symbol == sc.lam_sym]

    def _reflect_equalities(self) -> None:
        """In any context where an equality node is proven true, merge its
        operands there. Active only for constructs that declare an equality
        symbol."""
        eg, find = self.eg, self.eg.uf._find
        for sc in self.conditionals:
            if sc.eq_sym is None:
                continue
            true_cls = eg.class_of_node(ENode(sc.true_sym, ()))
            eq_nodes = sorted(
                (
                    (node, cls)
                    for node, cls in eg.nodes().items()
                    if node.symbol == sc.eq_sym
                ),
                key=lambda nc: nc[0].children,
            )
            for ctx in eg.lattice.topo_order():
                for node, cls in eq_nodes:
                    if find(ctx, cls) == find(ctx, true_cls):
                        eg.merge(ctx, node.children[0], node.children[1])

    def _fresh_context(self, gamma: ContextId, kind: str) -> ContextId:
        lat = self.eg.lattice
        prefix = "" if gamma == BOTTOM else f"{lat.name(gamma)}."
        base = f"{prefix}{kind}"
        name = base
        k = 1
        while lat.has_name(name):
            k += 1
            name = f"{base}#{k}"
        return self.eg.declare_context(name, {gamma})

    # promotion

    def apply_intersections(self) -> int:
        """Proof by cases: intersect each conditional's branch relations back
        into its enclosing context, innermost (highest gamma) first, so one
        pass carries a promotion down to bottom."""
        intersect = self.eg.uf.intersect_into
        return sum(
            intersect(inst.gamma, inst.then_ctx, inst.else_ctx)
            for inst in sorted(self._cond_instances, key=lambda i: -i.gamma)
        )

    def apply_lambda_lifts(self) -> int:
        """Equate each application with a cheapest binder-free body term.

        The leaf case is decided from the union-find and the node store:
        `cheap_leaves` lists, once per call (a `(cost ...)` command can
        change the model between runs), the stored leaves cheaper than any
        compound node can be, and a body whose class at the body context
        holds one that is not its binder is equated with the first such
        leaf's stored class, with no view of the body context read and no
        term built or interned. That leaf is the term extraction from the
        body's class would return. Any other body's cheapest binder-free
        term is extracted from the body context's view and interned."""
        count = 0
        eg, find = self.eg, self.eg.uf._find
        leaves = self._lambda_instances and cheap_leaves(eg, self.cost_model)
        for inst in self._lambda_instances:
            for lam_node in self._lambda_nodes(inst.fn_class, inst.construct):
                binder_cls, body_cls = lam_node.children
                forbid = self._binder_names(binder_cls)
                if not forbid:
                    continue
                ctx = inst.body_ctx
                body = find(ctx, body_cls)
                lifted = next(
                    (c for name, c in leaves if name not in forbid and find(ctx, c) == body), None
                )
                if lifted is None:
                    try:
                        res = extract_from_view(eg.views.get(ctx), body, self.cost_model, forbid)
                    except NoFiniteTerm:
                        # every term of the body mentions the binder
                        continue
                    lifted = eg.intern(res.term)
                if find(inst.gamma, inst.app_class) != find(inst.gamma, lifted):
                    eg.merge(inst.gamma, inst.app_class, lifted)
                    count += 1
        return count

    def _binder_names(self, binder_cls: ClassId) -> set[str]:
        nodes = self.eg.classes()[self.eg.uf._find(BOTTOM, binder_cls)]
        return {n.symbol.name for n in nodes if n.symbol.arity == 0}

    # saturation

    def run(self, max_iterations: int, iteration_hook=None) -> SaturationReport:
        """Iterate scope introduction, rules, repair, intersection, and
        lifting until nothing changes or the cap is hit."""
        report = SaturationReport()
        eg, ematch, matched_at = self.eg, self.ematch, self._matched_at
        for _ in range(max_iterations):
            before = eg.version
            eg.rebuild()
            self.apply_scopes()
            # matching changes nothing: only an application moves the version
            version = eg.version
            for rule in self.rules:
                name = rule.name
                query, rhs = self._compiled[name]
                for ctx in self._admissible_contexts(rule.scope):
                    key = (name, ctx)
                    matches = ematch(ctx, query, since=matched_at.get(key))
                    matched_at[key] = version
                    if matches:
                        self._apply(ctx, rhs, matches)
                        report.rule_applications += len(matches)
                        version = eg.version
            eg.rebuild()
            self.apply_intersections()
            self.apply_lambda_lifts()
            eg.rebuild()
            report.iterations += 1
            if iteration_hook is not None:
                iteration_hook(self)
            if eg.version == before:
                report.saturated = True
                break
        for rule in self.rules:
            if not isinstance(rule.scope, Everywhere):
                eg.lattice.id_of(rule.scope.context)  # raises UnknownContext
        return report


def _idle(db, symbols: tuple, since: int) -> bool:
    """Whether no row of any of a query's symbols was logged after since."""
    log = db._log
    for sym in symbols:
        entries = log.get(sym)
        if entries and entries[-1][0] > since:
            return False
    return True


def _reach(view, symbols: list) -> set:
    """The classes of a view from which a node of one of symbols can be
    reached: those holding one, and the parents of a class in the set."""
    reach = {c for sym in symbols for _, c in view._rows(sym, -1)}
    todo, uses = [*reach], view._uses
    while todo:
        for c in uses.get(todo.pop(), ()):
            if c not in reach:
                reach.add(c)
                todo.append(c)
    return reach


def _absent(db, symbol: FunctionSymbol, fixed: list, ground: tuple) -> bool:
    """Whether no class of the view holds the root row over the constants'
    classes; every row a class holds has a `_sig` entry."""
    return (symbol, tuple([fixed[k] for k in ground])) not in db._sig
