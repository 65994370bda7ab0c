"""Baseline encoding: assumptions as explicit e-nodes in a flat e-graph.

Instead of layering equivalence relations, this encoder wraps each branch of
a conditional in an assumption node carrying the condition, in an ordinary
single-relation e-graph. Generated pushdown rules move assumption wrappers
into the expression tree; resolution rules discharge a wrapper whose payload
matches (or contradicts) its constraint, and a conditional whose branches
both reach the true constant collapses to true.

The encoder exists for size comparison only: it runs the same program logic
under both encodings and reports canonical node counts at saturation. The
wrapped copies it creates are the cost the layered representation avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsl import (
    ContextCmd,
    CostCmd,
    FunctionCmd,
    Program,
    RuleCmd,
    ScopeIfCmd,
    ScopeLambdaCmd,
    TermCmd,
    execute,
)
from .egraph import Term
from .errors import UnsupportedCorpus
from .lattice import BOTTOM
from .rewrite import Engine, Everywhere, PatternApp, PatternVar, Rule

ASSUME_TRUE = "assume-true"
ASSUME_FALSE = "assume-false"


@dataclass(frozen=True)
class AssumeComparison:
    assume_nodes: int
    layered_nodes: int
    iterations: int

    def to_json(self) -> dict:
        return {
            "assume_nodes": self.assume_nodes,
            "layered_nodes": self.layered_nodes,
            "iterations": self.iterations,
        }


def _validate(program: Program) -> ScopeIfCmd | None:
    scope = None
    for cmd in program.commands:
        if isinstance(cmd, ScopeLambdaCmd):
            raise UnsupportedCorpus("lambda scopes have no assumption encoding")
        if isinstance(cmd, ContextCmd):
            raise UnsupportedCorpus("explicit contexts have no assumption encoding")
        if isinstance(cmd, RuleCmd) and not isinstance(cmd.scope, Everywhere):
            raise UnsupportedCorpus(
                f"rule {cmd.name!r} is context-scoped; only everywhere rules "
                f"can run under the assumption encoding"
            )
        if isinstance(cmd, FunctionCmd) and cmd.name in (ASSUME_TRUE, ASSUME_FALSE):
            raise UnsupportedCorpus(f"symbol name {cmd.name!r} is reserved")
        if isinstance(cmd, ScopeIfCmd):
            if scope is not None:
                raise UnsupportedCorpus("multiple conditional scopes")
            scope = cmd
    return scope


def _wrap(t: Term, sc: ScopeIfCmd | None) -> Term:
    """t with each conditional's branches wrapped in assumption nodes on its
    (wrapped) condition, built without recursion: the subterms listed
    parents first, each one's last child first, come reversed in post-order
    with children left to right, so a term's wrapped children end `built`
    in order."""
    order, todo = [], [t]
    while todo:
        order.append(x := todo.pop())
        todo += x.children
    built: list[Term] = []
    for x in reversed(order):
        k = len(built) - len(x.children)
        kids = tuple(built[k:])
        del built[k:]
        if sc is not None and x.symbol == sc.if_name and len(kids) == 3:
            c, th, el = kids
            kids = (c, Term(ASSUME_TRUE, (c, th)), Term(ASSUME_FALSE, (c, el)))
        built.append(Term(x.symbol, kids))
    return built[0]


def _machinery_rules(eng: Engine, fn_cmds: list[FunctionCmd], sc: ScopeIfCmd | None):
    """Wrapper algebra for the assumption encoding.

    A wrapped term never becomes equal to its unwrapped payload: wrappers
    move through operators in both directions and are only discharged by
    the conditional that introduced them. Collapsing a wrapper onto its
    payload would let congruence export assumption-local facts globally,
    which is unsound.
    """
    eg = eng.eg
    at = eg.symbol(ASSUME_TRUE, 2)
    af = eg.symbol(ASSUME_FALSE, 2)
    c = PatternVar("c")
    x = PatternVar("x")
    rules = []
    for cmd in fn_cmds:
        if cmd.arity == 0:
            continue
        sym = eg.symbol(cmd.name, cmd.arity)
        args = tuple(PatternVar(f"x{i}") for i in range(cmd.arity))
        for wrap, tag in ((at, "at"), (af, "af")):
            rules.append(
                Rule(
                    f"{tag}-push-{cmd.name}",
                    PatternApp(wrap, (c, PatternApp(sym, args))),
                    PatternApp(sym, tuple(PatternApp(wrap, (c, a)) for a in args)),
                )
            )
            if cmd.arity == 1:
                # unary operators commute back into the wrapper; multi-child
                # pull-up would silently strengthen sibling contexts
                rules.append(
                    Rule(
                        f"{tag}-pull-{cmd.name}",
                        PatternApp(sym, (PatternApp(wrap, (c, x)),)),
                        PatternApp(wrap, (c, PatternApp(sym, (x,)))),
                    )
                )
    for wrap, tag in ((at, "at"), (af, "af")):
        rules.append(
            Rule(
                f"{tag}-idem",
                PatternApp(wrap, (c, PatternApp(wrap, (c, x)))),
                PatternApp(wrap, (c, x)),
            )
        )
    if sc is not None:
        true_pat = PatternApp(eg.symbol(sc.true_name, 0), ())
        false_pat = PatternApp(eg.symbol(sc.false_name, 0), ())
        # resolution stays inside the wrapper; this encoding has no sound
        # way to promote facts shared by both branches back to the top
        rules.append(
            Rule("at-resolve", PatternApp(at, (c, c)), PatternApp(at, (c, true_pat)))
        )
        rules.append(
            Rule("af-resolve", PatternApp(af, (c, c)), PatternApp(af, (c, false_pat)))
        )
        if sc.eq_name:
            eq_sym = eg.symbol(sc.eq_name, 2)
            u, v = PatternVar("u"), PatternVar("v")
            eq_uv = PatternApp(eq_sym, (u, v))
            rules.append(
                Rule(
                    "at-eq-left",
                    PatternApp(at, (eq_uv, u)),
                    PatternApp(at, (eq_uv, v)),
                )
            )
            rules.append(
                Rule(
                    "at-eq-right",
                    PatternApp(at, (eq_uv, v)),
                    PatternApp(at, (eq_uv, u)),
                )
            )
    return rules


def assume_encode(program: Program, max_iterations: int = 60) -> AssumeComparison:
    """Run a conditional program under both encodings and compare sizes.

    Returns canonical e-node counts at saturation for the assumption-based
    e-graph and the layered one, plus the layered run's iteration count.
    """
    sc = _validate(program)

    layered = execute(program)
    layered_nodes = layered.engine.eg.stats(BOTTOM)[1]
    iterations = sum(r.iterations for r in layered.reports)

    eng = Engine()
    eg = eng.eg
    fn_cmds = [c for c in program.commands if isinstance(c, FunctionCmd)]
    for cmd in fn_cmds:
        eg.declare_function(cmd.name, cmd.arity)
    eg.declare_function(ASSUME_TRUE, 2)
    eg.declare_function(ASSUME_FALSE, 2)
    for rule in _machinery_rules(eng, fn_cmds, sc):
        eng.add_rule(rule)
    from .dsl import _term_to_pattern  # shared pattern resolution

    for cmd in program.commands:
        if isinstance(cmd, RuleCmd):
            eng.add_rule(
                Rule(
                    cmd.name,
                    _term_to_pattern(eng, cmd.lhs),
                    _term_to_pattern(eng, cmd.rhs),
                    cmd.scope,
                )
            )
        elif isinstance(cmd, TermCmd):
            eng.add_root(_wrap(cmd.term, sc))
        elif isinstance(cmd, CostCmd):
            eng.cost_model.set(cmd.name, cmd.value)
    eng.run(max_iterations)
    assume_nodes = eg.stats(BOTTOM)[1]
    return AssumeComparison(assume_nodes, layered_nodes, iterations)


def nested_conditional_program(depth: int, run_cap: int | None = None) -> str:
    """Source of the nested-conditional family used for size comparisons.

    Level i tests its own condition; each then branch nests the next level
    and each else branch holds the negated condition, which a single general
    rule connects back to true.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lines = [
        "; nested conditional tower, depth "
        + str(depth),
        "(function true 0)",
        "(function false 0)",
        "(function if 3)",
        "(function gt 2)",
        "(function not 1)",
    ]
    for i in range(1, depth + 1):
        lines.append(f"(function a{i} 0)")
        lines.append(f"(function b{i} 0)")
    lines.append("(scope-if if true false)")
    lines.append("(rule true-is-not-false true (not false) :scope everywhere)")

    def tower(i: int) -> str:
        g = f"(gt a{i} b{i})"
        if i == 1:
            return f"(if {g} {g} (not {g}))"
        return f"(if {g} {tower(i - 1)} (not {g}))"

    lines.append(f"(term {tower(depth)})")
    lines.append(f"(run {run_cap or 2 * depth + 4})")
    lines.append(f"(check-equal bot {tower(depth)} true)")
    return "\n".join(lines) + "\n"
