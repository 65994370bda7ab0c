"""Baseline encoding: assumptions as explicit e-nodes in a flat e-graph.

Instead of layering equivalence relations, this encoder wraps each branch of
a conditional in an assumption node carrying the condition, in an ordinary
single-relation e-graph. Generated pushdown rules move assumption wrappers
into the expression tree, and unary operators back out; resolution rules
rewrite, inside a wrapper, a payload equal to the wrapper's own condition
to the true (or false) constant, and under an equality condition one
operand to the other.

The encoder exists for size comparison only: it runs the same program logic
under both encodings and reports canonical node counts at saturation. The
wrapped copies it creates are the cost the layered representation avoids.
Both encodings run through `dsl.execute`: the assumption encoding is a
program of its own, the wrapper algebra given as rules over terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsl import (
    ContextCmd,
    CostCmd,
    FunctionCmd,
    Program,
    RuleCmd,
    RunCmd,
    ScopeIfCmd,
    ScopeLambdaCmd,
    TermCmd,
    execute,
)
from .egraph import Term
from .errors import UnsupportedCorpus
from .lattice import BOTTOM
from .rewrite import Everywhere

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


def _machinery_rules(fn_cmds: list[FunctionCmd], sc: ScopeIfCmd | None) -> list[RuleCmd]:
    """Wrapper algebra for the assumption encoding.

    A wrapped term never becomes equal to its unwrapped payload: wrappers
    move through operators in both directions and are only discharged by
    the conditional that introduced them. Collapsing a wrapper onto its
    payload would let congruence export assumption-local facts globally,
    which is unsound.
    """
    c, x = Term("?c", ()), Term("?x", ())
    wraps = ((ASSUME_TRUE, "at"), (ASSUME_FALSE, "af"))
    rules = []  # (name, lhs, rhs)
    for cmd in fn_cmds:
        if cmd.arity == 0:
            continue
        args = tuple(Term(f"?x{i}", ()) for i in range(cmd.arity))
        for wrap, tag in wraps:
            rules.append((
                f"{tag}-push-{cmd.name}",
                Term(wrap, (c, Term(cmd.name, args))),
                Term(cmd.name, tuple(Term(wrap, (c, a)) for a in args)),
            ))
            if cmd.arity == 1:
                # unary operators commute back into the wrapper; multi-child
                # pull-up would silently strengthen sibling contexts
                rules.append((
                    f"{tag}-pull-{cmd.name}",
                    Term(cmd.name, (Term(wrap, (c, x)),)),
                    Term(wrap, (c, Term(cmd.name, (x,)))),
                ))
    for wrap, tag in wraps:
        rules.append((f"{tag}-idem", Term(wrap, (c, Term(wrap, (c, x)))), Term(wrap, (c, x))))
    if sc is not None:
        # resolution stays inside the wrapper; this encoding has no sound
        # way to promote facts shared by both branches back to the top
        for (wrap, tag), const in zip(wraps, (sc.true_name, sc.false_name)):
            rules.append((f"{tag}-resolve", Term(wrap, (c, c)), Term(wrap, (c, Term(const, ())))))
        if sc.eq_name:
            u, v = Term("?u", ()), Term("?v", ())
            eq_uv = Term(sc.eq_name, (u, v))
            for side, a, b in (("left", u, v), ("right", v, u)):
                rules.append((
                    f"at-eq-{side}", Term(ASSUME_TRUE, (eq_uv, a)), Term(ASSUME_TRUE, (eq_uv, b))
                ))
    return [RuleCmd(*r, Everywhere()) for r in rules]


def assume_encode(program: Program, max_iterations: int = 60) -> AssumeComparison:
    """Run a conditional program under both encodings and compare sizes.

    Returns canonical e-node counts at saturation for the assumption-based
    e-graph and the layered one, plus the layered run's iteration count.
    The assumption encoding is a program of its own, run by `execute` as
    the layered one is: the program's functions, the two wrapper symbols,
    the wrapper algebra, then the program's rules, terms (wrapped) and
    costs in their order, and one run of max_iterations.
    """
    sc = _validate(program)

    layered = execute(program)
    layered_nodes = layered.engine.eg.stats(BOTTOM)[1]
    iterations = sum(r.iterations for r in layered.reports)

    fn_cmds = [c for c in program.commands if isinstance(c, FunctionCmd)]
    machinery = _machinery_rules(fn_cmds, sc)
    reserved = {r.name for r in machinery}
    for cmd in program.commands:
        if isinstance(cmd, RuleCmd) and cmd.name in reserved:
            raise UnsupportedCorpus(f"rule name {cmd.name!r} is reserved")
    encoded = Program((
        *fn_cmds,
        FunctionCmd(ASSUME_TRUE, 2),
        FunctionCmd(ASSUME_FALSE, 2),
        *machinery,
        *(TermCmd(_wrap(c.term, sc)) if isinstance(c, TermCmd) else c
          for c in program.commands if isinstance(c, (RuleCmd, TermCmd, CostCmd))),
        RunCmd(max_iterations),
    ))
    assume_nodes = execute(encoded).engine.eg.stats(BOTTOM)[1]
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

    # without recursion: the levels' openers outermost first, level 1's
    # then branch (its own condition), the else branches innermost first
    gs = [f"(gt a{i} b{i})" for i in range(1, depth + 1)]
    tower = "".join([*(f"(if {g} " for g in reversed(gs)), gs[0], *(f" (not {g}))" for g in gs)])
    lines.append(f"(term {tower})")
    lines.append(f"(run {run_cap or 2 * depth + 4})")
    lines.append(f"(check-equal bot {tower} true)")
    return "\n".join(lines) + "\n"
