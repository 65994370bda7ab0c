"""S-expression front end: parsing, pretty-printing, and execution.

A program is an ordered command sequence run against a single engine.
Declarations must precede use. Pattern variables are atoms starting with
`?`; numerals are ordinary nullary symbols, so arithmetic facts are rules in
the program, not builtins.

Commands:

    (function <name> <arity>)
    (context <name> (covers <name> ...))
    (cost <name> <value>)
    (scope-if <if> <true> <false> [<eq>])
    (scope-lambda <app> <lam> <var>)
    (rule <name> <lhs> <rhs> :scope <everywhere | ctx | at-or-above ctx>)
    (term <t>)
    (run <n>)
    (check-equal <ctx> <t1> <t2>)
    (check-not-equal <ctx> <t1> <t2>)
    (extract <ctx> <t> [:forbid <name>])
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .egraph import Term
from .errors import (
    CommandArityError,
    CtxSatError,
    DslError,
    DslSyntaxError,
    UnboundRhsVariable,
    UnknownCommand,
)
from .extract import check_cost, extract
from .rewrite import (
    AtContext,
    AtOrAbove,
    Engine,
    Everywhere,
    PatternApp,
    PatternVar,
    Rule,
    RuleScope,
    SaturationReport,
)

# s-expressions (named tuples, which a parse makes one per token)


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


# commands


@dataclass(frozen=True)
class FunctionCmd:
    name: str
    arity: int

    def to_sexpr(self):
        return f"(function {self.name} {self.arity})"


@dataclass(frozen=True)
class ContextCmd:
    name: str
    covers: tuple[str, ...]

    def to_sexpr(self):
        covers = " ".join(self.covers)
        return f"(context {self.name} (covers {covers}))"


@dataclass(frozen=True)
class CostCmd:
    name: str
    value: float

    def to_sexpr(self):
        v = int(self.value) if float(self.value).is_integer() else self.value
        return f"(cost {self.name} {v})"


@dataclass(frozen=True)
class ScopeIfCmd:
    if_name: str
    true_name: str
    false_name: str
    eq_name: str | None = None

    def to_sexpr(self):
        eq = f" {self.eq_name}" if self.eq_name else ""
        return f"(scope-if {self.if_name} {self.true_name} {self.false_name}{eq})"


@dataclass(frozen=True)
class ScopeLambdaCmd:
    app_name: str
    lam_name: str
    var_name: str

    def to_sexpr(self):
        return f"(scope-lambda {self.app_name} {self.lam_name} {self.var_name})"


@dataclass(frozen=True)
class RuleCmd:
    name: str
    lhs: Term
    rhs: Term
    scope: RuleScope

    def to_sexpr(self):
        return f"(rule {self.name} {self.lhs} {self.rhs} :scope {self.scope})"


@dataclass(frozen=True)
class TermCmd:
    term: Term

    def to_sexpr(self):
        return f"(term {self.term})"


@dataclass(frozen=True)
class RunCmd:
    iterations: int

    def to_sexpr(self):
        return f"(run {self.iterations})"


@dataclass(frozen=True)
class CheckCmd:
    negated: bool
    context: str
    left: Term
    right: Term

    @property
    def label(self) -> str:
        kind = "check-not-equal" if self.negated else "check-equal"
        return f"{kind} {self.context} {self.left} {self.right}"

    def to_sexpr(self):
        return f"({self.label})"


@dataclass(frozen=True)
class ExtractCmd:
    context: str
    term: Term
    forbid: str | None = None

    def to_sexpr(self):
        tail = f" :forbid {self.forbid}" if self.forbid else ""
        return f"(extract {self.context} {self.term}{tail})"


Command = (
    FunctionCmd | ContextCmd | CostCmd | ScopeIfCmd | ScopeLambdaCmd
    | RuleCmd | TermCmd | RunCmd | CheckCmd | ExtractCmd
)


@dataclass(frozen=True)
class Program:
    commands: tuple

    def to_source(self) -> str:
        return "\n".join(c.to_sexpr() for c in self.commands) + "\n"


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


def _parse_scope(items, sexp) -> RuleScope:
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


COMMAND_NAMES = frozenset(
    {
        "function",
        "context",
        "cost",
        "scope-if",
        "scope-lambda",
        "rule",
        "term",
        "run",
        "check-equal",
        "check-not-equal",
        "extract",
    }
)


def _build_command(sexp) -> Command:
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
    assert head not in COMMAND_NAMES
    raise UnknownCommand(f"unknown command {head!r}", sexp.line, sexp.col)


def parse_program(source: str) -> Program:
    return Program(tuple(_build_command(s) for s in parse_sexprs(source)))


# execution


@dataclass
class CheckResult:
    name: str
    ok: bool
    # why a check failed without comparing anything
    reason: str | None = None


@dataclass
class ExtractResultOut:
    term: str
    cost: float


@dataclass
class RunOutput:
    checks: list[CheckResult] = field(default_factory=list)
    extracts: list[ExtractResultOut] = field(default_factory=list)
    reports: list[SaturationReport] = field(default_factory=list)
    engine: Engine | None = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def exit_status(self) -> int:
        return 0 if self.ok else 1

    def report_json(self) -> dict:
        eng = self.engine
        lat = eng.eg.lattice
        return {
            "checks": [{"name": c.name, "status": "pass" if c.ok else "fail"}
                       | ({} if c.reason is None else {"reason": c.reason}) for c in self.checks],
            "report": {
                "iterations": sum(r.iterations for r in self.reports),
                "saturated": bool(self.reports) and self.reports[-1].saturated,
                "unions_per_context": {
                    lat.name(c): eng.eg.uf.unions_at[c]
                    for c in sorted(eng.eg.uf.unions_at)
                    if eng.eg.uf.unions_at[c]
                },
                "classes_per_context": {
                    lat.name(c): eng.eg.stats(c)[0] for c in lat.ids()
                },
            },
        }


def _term_to_pattern(engine: Engine, t: Term):
    if t.symbol.startswith("?"):
        return PatternVar(t.symbol[1:])
    sym = engine.eg.symbol(t.symbol, len(t.children))
    return PatternApp(sym, tuple(_term_to_pattern(engine, c) for c in t.children))


def execute(
    program: Program,
    max_iterations: int | None = None,
    iteration_hook=None,
) -> RunOutput:
    """Run every command in order against a fresh engine.

    `max_iterations`, when given, caps each (run n) directive. Checks are
    evaluated at their position in the program; one at a context that was
    never created fails, with that as its reason.
    """
    engine = Engine()
    out = RunOutput(engine=engine)
    for idx, cmd in enumerate(program.commands):
        try:
            _execute_one(engine, cmd, out, max_iterations, iteration_hook)
        except DslError:
            raise
        except CtxSatError as e:
            raise DslError(f"command {idx + 1} {cmd.to_sexpr()}: {e}") from e
    return out


def _execute_one(engine: Engine, cmd, out: RunOutput, max_iterations, iteration_hook):
    eg = engine.eg
    if isinstance(cmd, FunctionCmd):
        eg.declare_function(cmd.name, cmd.arity)
    elif isinstance(cmd, ContextCmd):
        covers = {eg.lattice.id_of(n) for n in cmd.covers}
        eg.declare_context(cmd.name, covers)
    elif isinstance(cmd, CostCmd):
        engine.cost_model.set(cmd.name, cmd.value)
    elif isinstance(cmd, ScopeIfCmd):
        engine.add_conditional_scope(
            cmd.if_name, cmd.true_name, cmd.false_name, cmd.eq_name
        )
    elif isinstance(cmd, ScopeLambdaCmd):
        engine.add_lambda_scope(cmd.app_name, cmd.lam_name, cmd.var_name)
    elif isinstance(cmd, RuleCmd):
        engine.add_rule(
            Rule(
                cmd.name,
                _term_to_pattern(engine, cmd.lhs),
                _term_to_pattern(engine, cmd.rhs),
                cmd.scope,
            )
        )
    elif isinstance(cmd, TermCmd):
        engine.add_root(cmd.term)
    elif isinstance(cmd, RunCmd):
        cap = cmd.iterations if max_iterations is None else max_iterations
        out.reports.append(engine.run(cap, iteration_hook))
    elif isinstance(cmd, CheckCmd):
        a = eg.intern(cmd.left)
        b = eg.intern(cmd.right)
        eg.rebuild()
        if eg.lattice.has_name(cmd.context):
            equal = eg.equiv(eg.lattice.id_of(cmd.context), a, b)
            out.checks.append(CheckResult(cmd.label, equal != cmd.negated))
        else:
            # e.g. a scope context the run stopped before creating
            reason = f"context {cmd.context!r} is not declared"
            out.checks.append(CheckResult(cmd.label, False, reason))
    elif isinstance(cmd, ExtractCmd):
        cls = eg.intern(cmd.term)
        eg.rebuild()
        ctx = eg.lattice.id_of(cmd.context)
        res = extract(eg, ctx, cls, engine.cost_model, cmd.forbid)
        out.extracts.append(ExtractResultOut(str(res.term), res.cost))
    else:
        raise UnknownCommand(f"unhandled command {cmd!r}")


def run_source(source: str, **kwargs) -> RunOutput:
    return execute(parse_program(source), **kwargs)
