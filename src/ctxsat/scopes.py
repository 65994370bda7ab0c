"""Scoping constructs, the walk that meets them, and what they prove.

A construct recognizes a node, opens child contexts under assumptions, and
returns facts to the enclosing context:

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
context proves equal to true and that holds an equality row of the bottom
view has that equality's operands merged in the same context.

Constructs discover their nodes by occurrence: the walk starts from the
root terms, descending into branch bodies under the branch context and
everywhere else under the current one, so nested conditionals land their
intersections at the enclosing branch context rather than at bottom. The
walk skips a class from which no conditional or application node can be
reached (`CanonicalView.reach`, read from the bottom view when the walk
starts): nothing below such a class instantiates or merges, and a class
that reaches a construct is reached only through classes that do too, so
the walk meets instances and merges in the same order.

An instance's lambda nodes, and the nullary names of each binder class,
are read from the bottom view whenever the walk or a lift needs them
(`_lambda_nodes`). No view index is read here: the database is the views
module's, the queries the rewrite module's. The public functions take the
engine (`rewrite.Engine`), which binds them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .egraph import ClassId, ENode, FunctionSymbol
from .errors import NoFiniteTerm
from .extract import cheap_leaves, extract_from_view
from .lattice import BOTTOM, ContextId


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


# registration


def add_conditional_scope(
    eng, if_name: str, true_name: str, false_name: str, eq_name: str | None = None
) -> ConditionalScope:
    sc = ConditionalScope(
        eng.eg.symbol(if_name, 3),
        eng.eg.symbol(true_name, 0),
        eng.eg.symbol(false_name, 0),
        eng.eg.symbol(eq_name, 2) if eq_name else None,
    )
    eng.eg.add_node(sc.true_sym, ())
    eng.eg.add_node(sc.false_sym, ())
    eng.conditionals.append(sc)
    return sc


def add_lambda_scope(eng, app_name: str, lam_name: str, var_name: str) -> LambdaScope:
    sc = LambdaScope(
        eng.eg.symbol(app_name, 2),
        eng.eg.symbol(lam_name, 2),
        eng.eg.symbol(var_name, 1),
    )
    eng.lambdas.append(sc)
    return sc


# the walk


def apply_scopes(eng) -> int:
    """Walk occurrences from the roots, instantiating scope constructs.

    Returns the number of new scope instances. A conditional instance
    assumes its condition in its branch contexts when it is created, so
    the walk never enters a branch that does not know its condition; a
    condition assumed on the enclosing context chain counts as decided.
    Every conditional or application the walk meets is equated with its
    branch body, or its variable bound, in the instance's contexts right
    then; nothing is re-asserted afterwards. These merges are never at
    bottom, so the class index and the constants' classes the walk reads
    once stay valid; the merges of decided conditionals are at the walk's
    own context, possibly bottom, and wait until the walk is done.
    """
    if not eng.conditionals and not eng.lambdas:
        return 0
    eg, find = eng.eg, eng.eg.uf._find
    members = eg.classes()
    # if symbol -> the classes of its construct's true and false constants
    if_syms = {
        sc.if_sym: [eg.class_of_node(ENode(s, ())) for s in (sc.true_sym, sc.false_sym)]
        for sc in eng.conditionals
    }
    app_syms = {sc.app_sym: sc for sc in eng.lambdas}
    lam_syms = {sc.lam_sym for sc in eng.lambdas}
    reach = eg.views.get(BOTTOM).reach([*if_syms, *app_syms])

    cond_keys = {
        (inst.gamma, find(BOTTOM, inst.cond)): inst
        for inst in eng._cond_instances
    }
    lam_keys = {
        (inst.gamma, find(BOTTOM, inst.app_class)): inst
        for inst in eng._lambda_instances
    }

    new_instances = 0
    deferred_merges: list[tuple[ContextId, ClassId, ClassId]] = []
    seen: set[tuple[ContextId, ClassId]] = set()
    work = deque((BOTTOM, find(BOTTOM, r)) for r in eng.roots)

    while work:
        gamma, cls = work.popleft()
        cls = find(BOTTOM, cls)
        if cls not in reach or (gamma, cls) in seen:
            continue
        seen.add((gamma, cls))
        for node in members[cls]:
            constants = if_syms.get(node.symbol)
            if constants is not None:
                true_cls, false_cls = constants
                cond, then_cls, else_cls = node.children
                work.append((gamma, cond))
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
                    then_ctx = _fresh_context(eg, gamma, "then")
                    else_ctx = _fresh_context(eg, gamma, "else")
                    eg.merge(then_ctx, cond, true_cls)
                    eg.merge(else_ctx, cond, false_cls)
                    inst = _CondInstance(gamma, cond, then_ctx, else_ctx)
                    cond_keys[key] = inst
                    eng._cond_instances.append(inst)
                    new_instances += 1
                eg.merge(inst.then_ctx, cls, then_cls)
                eg.merge(inst.else_ctx, cls, else_cls)
                work.append((inst.then_ctx, then_cls))
                work.append((inst.else_ctx, else_cls))
                continue
            sc = app_syms.get(node.symbol)
            lams = _lambda_nodes(eg, node.children[0], sc) if sc is not None else ()
            if lams:
                fn_cls, value_cls = node.children
                work.append((gamma, fn_cls))
                work.append((gamma, value_cls))
                key = (gamma, cls)
                inst = lam_keys.get(key)
                if inst is None:
                    body_ctx = _fresh_context(eg, gamma, "body")
                    inst = _LambdaInstance(
                        gamma, cls, fn_cls, value_cls, body_ctx, sc
                    )
                    lam_keys[key] = inst
                    eng._lambda_instances.append(inst)
                    new_instances += 1
                for lam_node in _lambda_nodes(eg, inst.fn_class, inst.construct):
                    var_cls = eg._add(sc.var_sym, (lam_node.children[0],))
                    eg.merge(inst.body_ctx, var_cls, inst.value_class)
                for lam_node in lams:
                    work.append((inst.body_ctx, lam_node.children[1]))
                continue
            if node.symbol in lam_syms:
                # body is scoped through applications only
                continue
            for ch in node.children:
                work.append((gamma, ch))

    for gamma, a, b in deferred_merges:
        eg.merge(gamma, a, b)
    _reflect_equalities(eng)
    return new_instances


def _lambda_nodes(eg, fn_cls: ClassId, sc: LambdaScope) -> list[ENode]:
    nodes = eg.classes()[eg.uf._find(BOTTOM, fn_cls)]
    return [n for n in nodes if n.symbol == sc.lam_sym]


def _reflect_equalities(eng) -> None:
    """In each context, merge the operands of every equality row of the
    bottom view that the context proves true (see the module docstring)."""
    eg, find = eng.eg, eng.eg.uf._find
    for sc in eng.conditionals:
        if sc.eq_sym is None:
            continue
        true_cls = eg.class_of_node(ENode(sc.true_sym, ()))
        eq_rows = sorted(eg.views.get(BOTTOM)._rows(sc.eq_sym, -1), key=lambda nc: nc[0].children)
        for ctx in eg.lattice.topo_order():
            for node, cls in eq_rows:
                if find(ctx, cls) == find(ctx, true_cls):
                    eg.merge(ctx, node.children[0], node.children[1])


def _fresh_context(eg, gamma: ContextId, kind: str) -> ContextId:
    lat = eg.lattice
    base = kind if gamma == BOTTOM else f"{lat.name(gamma)}.{kind}"
    name = base
    k = 1
    while lat.has_name(name):
        k += 1
        name = f"{base}#{k}"
    return eg.declare_context(name, {gamma})


# proof by cases


def apply_intersections(eng) -> int:
    """Proof by cases: intersect each conditional's branch relations back
    into its enclosing context, innermost (highest gamma) first, so one
    pass carries a promotion down to bottom."""
    intersect = eng.eg.uf.intersect_into
    return sum(
        intersect(inst.gamma, inst.then_ctx, inst.else_ctx)
        for inst in sorted(eng._cond_instances, key=lambda i: -i.gamma)
    )


# lambda lifts


def apply_lambda_lifts(eng) -> int:
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
    eg, find = eng.eg, eng.eg.uf._find
    leaves = eng._lambda_instances and cheap_leaves(eg, eng.cost_model)
    for inst in eng._lambda_instances:
        for lam_node in _lambda_nodes(eg, inst.fn_class, inst.construct):
            binder_cls, body_cls = lam_node.children
            binder = eg.classes()[find(BOTTOM, binder_cls)]
            forbid = {n.symbol.name for n in binder if n.symbol.arity == 0}
            if not forbid:
                continue
            ctx = inst.body_ctx
            body = find(ctx, body_cls)
            lifted = next(
                (c for name, c in leaves if name not in forbid and find(ctx, c) == body), None
            )
            if lifted is None:
                try:
                    res = extract_from_view(eg.views.get(ctx), body, eng.cost_model, forbid)
                except NoFiniteTerm:
                    # every term of the body mentions the binder
                    continue
                lifted = eg.intern(res.term)
            if find(inst.gamma, inst.app_class) != find(inst.gamma, lifted):
                eg.merge(inst.gamma, inst.app_class, lifted)
                count += 1
    return count
