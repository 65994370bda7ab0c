"""The query engine: patterns, rewrite rules, their compiler, the join
plans, the join, and the semi-naive saturation loop. The database they read
is the views module's, and a view is read here only through its methods.

Rules are tree patterns with variables. A rule's scope decides which
contexts it fires in: everywhere (every declared context), a single named
context, or every context at or above a named one. The named context may
be one a scoping construct makes during the run: the rule fires nowhere
until it exists, and `Engine.run` raises UnknownContext if it still does
not when the run returns. A match found at context c is merged at c, never
below, so derived equalities live exactly where their justification does.

E-matching is relational: a left-hand side compiles to a conjunctive query
with one atom `f(children) -> class` per application, evaluated by one
join (`_join`) over the rows `(node, class)` of a view, which extends a
match through an atom's class or through the rows over a class. A constant
(a nullary atom other than the root) is bound to its stored node's class
before the join, so a parent row over another class fails at once, and a
constant that is not stored matches nothing. A first join starts from the
root symbol's rows (`_rows` with since = -1). Runs are semi-naive: each
rule joins, once from each non-constant atom, only from the rows logged
after its last run at the context; if a constant's own row was logged
since, every match holds it, so the rule joins in full. Rows change
monotonically, so a match built only from older rows was found then and
its right-hand side added and merged; skipping it leaves the relation as
the next rebuild would. (Re-adding a nested right-hand side before that
rebuild can meet a child merged at bottom meanwhile, so a run that
re-matched everything may number fresh ids, and count unions per context,
differently.)

Join plans: `plan_join` fixes once per compiled query, for each atom a
join can start from, the visit order, how each atom is reached (through a
bound class or as a parent) and which fields bind, check or repeat a slot,
each plan in time linear in the query's atoms; `_join` runs a plan on flat
tuples, with no search and no binding per field.

Two tests let a rule visit that cannot match cost a few dictionary probes.
A delta call returns before binding anything when none of its query's
distinct symbols `moved` since. A rule whose root's arguments are all
constants has one root row once the constants are bound: when the view
names no `holder` for it, the call returns before any join. With no clash
reported the holder is the one class holding the row, so it decides the
visit with no join at all: its one match is the row's class, in a delta
call only if the row was logged in it since. With clashes, and under
Strategy.ON_THE_FLY, the rule joins as any other.

Patterns are built here too: `_term_to_pattern` turns a program's term,
in which a symbol starting with `?` is a variable, into a pattern over the
e-graph's declared symbols. Each rule compiles once, in `add_rule`, and
only this module reads the pattern classes' fields: `_compile` turns its
left-hand side into a query (`_Query`) with a join plan from each atom
(`plan_join`), and `_compile_rhs` its right-hand side into post-order
steps over a match's slot tuple (root, values in variable-name order), in
which a variable is its position and each step takes the next one. The
loop gets slot tuples from `ematch` and applies them in their sorted
order, which numbers fresh ids, through `EGraph._instantiate` (see the
egraph module). A visit that finds no match applies and counts nothing,
and matching changes no version, so the loop reads the version again only
after an application.

`Engine` binds the functions of the scopes module, which make contexts
during the run, as its methods; `run` calls every phase through the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from . import scopes
from .egraph import ClassId, EGraph, FunctionSymbol, Term
from .errors import DuplicateRule, UnboundRhsVariable
from .extract import CostModel
from .lattice import ContextId
from .views import OnTheFlyProvider, Strategy


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


def _term_to_pattern(engine: Engine, t: Term) -> Pattern:
    # symbols are looked up in pre-order, so the first unknown one raises
    out, todo = [], [(t, None)]
    while todo:
        t, sym = todo.pop()
        if sym is not None:
            k = len(out) - sym.arity
            out[k:] = [PatternApp(sym, tuple(out[k:]))]
        elif t.symbol.startswith("?"):
            out.append(PatternVar(t.symbol[1:]))
        else:
            todo.append((t, engine.eg.symbol(t.symbol, len(t.children))))
            todo += [(c, None) for c in reversed(t.children)]
    return out[0]


class _Query(NamedTuple):
    """A compiled left-hand side: atoms (symbol, argument slots, class
    slot), root first with its class in slot 0; the constants (nullary
    atoms other than the root), by atom index; the variable names, sorted;
    the static join plan from each non-constant atom (`plan_join`); the
    atoms' distinct symbols; and, when every argument of the root is a
    constant, the position of each argument's class in the constants'
    classes (else None)."""

    atoms: list
    consts: tuple
    names: list
    plans: dict
    symbols: tuple
    ground: tuple | None


def _compile(pattern: Pattern) -> _Query:
    """The query of a left-hand side."""
    # pre-order without recursion: a var's slot is its first visit's, an
    # application's atom is filled in once its args' slots end `vals`
    atoms, slots, vals, todo = [], {}, [], [(pattern, None)]
    while todo:
        p, i = todo.pop()
        if i is not None:
            k = len(vals) - len(p.args)
            atoms[i] = (p.symbol, tuple(vals[k:]), vals[k - 1])
            del vals[k:]
        elif isinstance(p, PatternVar):
            vals.append(slots.setdefault(p.name, len(slots) + len(atoms)))
        else:
            vals.append(len(slots) + len(atoms))
            todo.append((p, len(atoms)))
            atoms.append(None)
            todo += [(a, None) for a in reversed(p.args)]
    consts = tuple(i for i, atom in enumerate(atoms) if i and not atom[1])
    names = sorted(slots)
    at, ground = {atoms[j][2]: k for k, j in enumerate(consts)}, None
    if atoms and at.keys() >= set(atoms[0][1]):
        ground = tuple(at[s] for s in atoms[0][1])
    plans = plan_join(atoms, consts, [slots[n] for n in names])
    return _Query(atoms, consts, names, plans, tuple(dict.fromkeys(a[0] for a in atoms)), ground)


def plan_join(atoms: list, consts: tuple, var_slots: list) -> dict:
    """A static join plan for each non-constant atom of a compiled query,
    keyed by the atom it starts from.

    A partial match is a flat tuple: the constants' classes in the order of
    consts, then each visited row's fields (the class first, unless the row
    was reached through its class). A plan is (check, steps, project): the
    start row's check, then steps (symbol, position, child index or None,
    check), each reaching its atom through the class at that position
    (None) or as a parent at the child index over it. A check is None or
    two item getters that agree when each field equals the earlier field of
    its slot; a field equal by construction is not checked. project maps a
    full match to its root and the values of var_slots, in order.

    The visit is depth first from the start atom; an atom's unvisited
    neighbours (the atoms that make one of its arguments or use its class)
    are pushed in ascending index, so the last one pushed is visited next."""
    # an atom's neighbours: the atoms whose class is one of its arguments,
    # and the atom its class is an argument of, listed once, so that a plan
    # takes time linear in the atoms. A compiled query is a tree numbered
    # in pre-order, so a slot is the class of one atom at most, and each
    # list, its parent first, comes out ascending.
    maker = {atom[2]: j for j, atom in enumerate(atoms)}
    near = [[] for _ in atoms]
    for j, atom in enumerate(atoms):
        for s in atom[1]:
            i = maker.get(s)
            if i is not None:
                near[j].append(i)
                near[i].append(j)
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
            i = frontier.pop()
            _, args, out = atoms[i]
            for j in near[i]:
                if j in done:
                    continue
                sym_j, args_j, out_j = atoms[j]
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


def _join(db, plan: tuple, fixed: list, seeds) -> list[tuple]:
    """The matches (root, values in variable-name order) of a plan from
    its start rows seeds (node, class), the constants' classes fixed."""
    check, steps, project = plan
    nodes_of = db.nodes_of
    partial = _keep(check, [(*fixed, c, *n.children) for n, c in seeds])
    for sym, at, pos, check in steps:
        if not partial:
            return []
        if pos is None:
            partial = [t + n.children for t in partial for n in nodes_of(t[at]) if n.symbol == sym]
        else:
            partial = [(*t, c, *n.children) for t in partial for n, c in db._parents(sym, pos, t[at])]
        partial = _keep(check, partial)
    return list(map(project, partial))


def _keep(check, rows: list[tuple]) -> list[tuple]:
    """The rows whose fields pass a plan's check."""
    if check is None:
        return rows
    left, right = check
    return [t for t in rows if left(t) == right(t)]


def _compile_rhs(pattern: Pattern, names: list) -> tuple[list, int]:
    """A right-hand side's steps (symbol, args), in post-order with children
    left to right, the order a recursive instantiation adds them in, over a
    match's slot tuple: an arg is a position in the tuple extended by the
    steps' classes (the root at 0, the variables in name order from 1, then
    step i at 1 + len(names) + i). Also the position of its class."""
    at = {name: k for k, name in enumerate(names, 1)}
    steps, vals, todo = [], [], [(pattern, False)]
    while todo:
        p, ready = todo.pop()
        if isinstance(p, PatternVar):
            vals.append(at[p.name])
        elif ready:
            k = len(vals) - len(p.args)
            steps.append((p.symbol, tuple(vals[k:])))
            vals[k:] = [len(at) + len(steps)]
        else:
            todo += [(p, True), *((a, False) for a in reversed(p.args))]
    return steps, vals[0]


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
        self.conditionals: list[scopes.ConditionalScope] = []
        self.lambdas: list[scopes.LambdaScope] = []
        self.roots: list[ClassId] = []
        self._cond_instances: list[scopes._CondInstance] = []
        self._lambda_instances: list[scopes._LambdaInstance] = []
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

    add_conditional_scope = scopes.add_conditional_scope
    add_lambda_scope = scopes.add_lambda_scope

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
        elif since is not None and not db.moved(symbols, since):
            return []
        else:
            fixed = []  # the constants' classes, in the order of consts, as plans read them
            for j in consts:
                cls = eg._nodes.get((atoms[j][0], ()))
                if cls is None:
                    return []
                fixed.append(eg.uf._find(ctx, cls))
            if ground is not None:
                row = (atoms[0][0], tuple([fixed[k] for k in ground]))  # the one root row
                if (c := db.holder(row)) is None:
                    return []
            # a constant's new row is in every match
            if since is not None:
                for j in consts:
                    if db._rows(atoms[j][0], since):
                        since = None
                        break
            if ground is not None and not db.clashes:
                found = [(c,)] if since is None or db._logged(row, c, since) else []
            else:
                if since is not None:
                    starts = [(plan, db._rows(atoms[i][0], since)) for i, plan in plans.items()]
                else:
                    starts = [(plans[0], db._rows(atoms[0][0], -1))]
                found = {m for plan, seeds in starts for m in _join(db, plan, fixed, seeds)}
        matches = sorted(found)
        if query is pattern:
            return matches
        return [(dict(zip(names, m[1:])), m[0]) for m in matches]

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
        return [c] if isinstance(scope, AtContext) else lat.upset(c)

    # the scope phases (see the scopes module)

    apply_scopes = scopes.apply_scopes
    apply_intersections = scopes.apply_intersections
    apply_lambda_lifts = scopes.apply_lambda_lifts

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
                        eg._instantiate(ctx, rhs, matches)
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

