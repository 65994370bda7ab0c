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

Parsing keeps no positions: one `_TOKEN.findall` scan turns a source into
plain nested tuples (an atom is its text, a list form the tuple of its
items), with no object per token. An error's line and column are worked out
only when it is raised, by scanning the source again up to the failing
form, and read as a positional parser would report them. A program's terms
are built bottom-up without recursion and hash-consed per parse, by symbol
and child identities, so equal terms within one program are one `Term`
object: the root a check or an extract restates is the object its `term`
command interned, which `EGraph.intern`'s identity memo answers at once.
No step from source text to e-graph ids recurses on the depth of a term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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
    Rule,
    RuleScope,
    SaturationReport,
    _term_to_pattern,
)

# s-expressions: an atom is its text, a list form the tuple of its items


class _At(Exception):
    """A parse error at parent[index], raised as `kind(message)` once
    parse_program has worked out its line and column."""


# a parenthesis, an atom (a run of characters that are none of these) or a
# comment; spaces, tabs, carriage returns and line breaks lie between
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")


def _forms(source: str) -> list:
    """The source's top-level s-expressions, without positions."""
    out: list = []
    items, stack = out, []
    for tok in _TOKEN.findall(source):
        if tok == "(":
            stack.append(items)
            items = []
        elif tok == ")":
            if not stack:
                _unbalanced(source)
            form = tuple(items)
            items = stack.pop()
            items.append(form)
        elif tok[0] != ";":
            items.append(tok)
    if stack:
        _unbalanced(source)
    return out


def _line_col(source: str, pos: int) -> tuple[int, int]:
    """Line and column of a source offset (a column counts characters from
    1 at the start of its line)."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


def _unbalanced(source: str):
    """Raise the error of a source whose parentheses do not balance."""
    opens = []
    for m in _TOKEN.finditer(source):
        if m[0] == "(":
            opens.append(m.start())
        elif m[0] == ")":
            if not opens:
                raise DslSyntaxError("unbalanced parenthesis", *_line_col(source, m.start()))
            opens.pop()
    raise DslSyntaxError("unclosed parenthesis", *_line_col(source, opens[-1]))


def _preorder(parent, indexes):
    """(p, i) for each form p[i] of parent[indexes] and each item below it,
    in the order a recursive descent visits them."""
    todo = [(parent, i) for i in reversed(indexes)]
    while todo:
        p, i = todo.pop()
        yield p, i
        if type(p[i]) is tuple:
            todo += [(p[i], j) for j in reversed(range(len(p[i])))]


def _where(source: str, forms: list, parent, index: int) -> tuple[int, int]:
    """Line and column of parent[index]: the forms' items in pre-order are
    the source's atoms and opening parentheses in order."""
    starts = (m.start() for m in _TOKEN.finditer(source) if m[0][0] not in ");")
    for (p, i), pos in zip(_preorder(forms, range(len(forms))), starts):
        if p is parent and i == index:
            return _line_col(source, pos)


def _term(parent, index: int, allow_vars: bool, cons: dict) -> Term:
    """The term parent[index] stands for, hash-consed in `cons` by symbol
    and child identities: its forms are listed parents first, each form's
    last child first, then built in reverse, so a form's children's terms
    end `built` in order. Neither step recurses."""
    order, todo = [], [parent[index]]
    while todo:
        order.append(x := todo.pop())
        if type(x) is str:
            if x[0] == "?" and not allow_vars:
                _term_error(parent, index, allow_vars)
        elif not x or type(x[0]) is not str or x[0][0] == "?":
            _term_error(parent, index, allow_vars)
        else:
            todo += x[1:]
    built: list = []
    for x in reversed(order):
        if type(x) is str:
            sym, kids = x, ()
        else:
            n = len(built) + 1 - len(x)
            sym, kids = x[0], tuple(built[n:])
            del built[n:]
        key = (sym, *map(id, kids)) if kids else sym
        t = cons.get(key)
        if t is None:
            t = cons[key] = Term(sym, kids)
        built.append(t)
    return built[0]


def _term_error(parent, index: int, allow_vars: bool):
    """Raise the error of the term form parent[index] that a recursive
    descent would meet first."""
    for p, i in _preorder(parent, [index]):
        x = p[i]
        if type(x) is str:
            if x[0] == "?" and not allow_vars:
                raise _At(DslSyntaxError, f"pattern variable {x} not allowed here", p, i)
        elif not x or type(x[0]) is not str:
            raise _At(DslSyntaxError, "expected a symbol application", p, i)
        elif x[0][0] == "?":
            raise _At(DslSyntaxError, "a pattern variable cannot head an application", p, i)


def term_vars(t: Term) -> set[str]:
    out, todo = set(), [t]
    while todo:
        t = todo.pop()
        if t.symbol.startswith("?"):
            out.add(t.symbol)
        else:
            todo += t.children
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


def _atom(form, i: int, what: str) -> str:
    if type(form[i]) is not str:
        raise _At(DslSyntaxError, f"expected {what}", form, i)
    return form[i]


def _int(form, i: int, what: str) -> int:
    text = _atom(form, i, what)
    try:
        return int(text)
    except ValueError:
        raise _At(DslSyntaxError, f"expected {what}, got {text!r}", form, i) from None


def _arity(at, low: int, high: int, usage: str):
    n = len(at[0][at[1]]) - 1
    if not low <= n <= high:
        raise _At(
            CommandArityError,
            f"{usage} takes {low}{'' if low == high else f'..{high}'} arguments, got {n}",
            *at,
        )


def _parse_scope(form, at) -> RuleScope:
    """The scope words form[5:] of a rule form."""
    word = _atom(form, 5, "scope")
    if len(form) == 6 and word != "at-or-above":
        return Everywhere() if word == "everywhere" else AtContext(word)
    if len(form) == 7 and word == "at-or-above":
        return AtOrAbove(_atom(form, 6, "context name"))
    message = "at-or-above needs a context name" if len(form) == 6 else "bad :scope specification"
    raise _At(DslSyntaxError, message, *at)


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


def _build_command(forms: list, k: int, cons: dict) -> Command:
    """The command forms[k] stands for; its terms are hash-consed in cons."""
    at = forms, k
    form = forms[k]
    if type(form) is str:
        raise _At(DslSyntaxError, "expected a command list", *at)
    if not form or type(form[0]) is not str:
        raise _At(DslSyntaxError, "expected a command name", *at)
    head = form[0]
    if head == "function":
        _arity(at, 2, 2, "function")
        name, arity = _atom(form, 1, "name"), _int(form, 2, "arity")
        if arity < 0:
            raise _At(DslSyntaxError, "arity must be >= 0", *at)
        return FunctionCmd(name, arity)
    if head == "context":
        _arity(at, 2, 2, "context")
        name = _atom(form, 1, "name")
        covers_form = form[2]
        if (
            type(covers_form) is not tuple
            or not covers_form
            or _atom(covers_form, 0, "covers") != "covers"
        ):
            raise _At(DslSyntaxError, "expected (covers <name> ...)", *at)
        covers = tuple(_atom(covers_form, i, "context name") for i in range(1, len(covers_form)))
        return ContextCmd(name, covers)
    if head == "cost":
        _arity(at, 2, 2, "cost")
        name = _atom(form, 1, "name")
        raw = _atom(form, 2, "value")
        try:
            value = float(raw)
        except ValueError:
            raise _At(DslSyntaxError, f"bad cost value {raw!r}", *at) from None
        try:
            check_cost(value)
        except ValueError as e:
            raise _At(DslSyntaxError, str(e), *at) from None
        return CostCmd(name, value)
    if head in ("scope-if", "scope-lambda"):
        _arity(at, 3, 4 if head == "scope-if" else 3, head)
        names = [_atom(form, i, "symbol name") for i in range(1, len(form))]
        return ScopeIfCmd(*names) if head == "scope-if" else ScopeLambdaCmd(*names)
    if head == "rule":
        _arity(at, 5, 6, "rule")
        name = _atom(form, 1, "rule name")
        lhs = _term(form, 2, True, cons)
        rhs = _term(form, 3, True, cons)
        if _atom(form, 4, ":scope") != ":scope":
            raise _At(DslSyntaxError, "expected :scope", *at)
        scope = _parse_scope(form, at)
        unbound = term_vars(rhs) - term_vars(lhs)
        if unbound:
            raise UnboundRhsVariable(
                f"rule {name!r}: rhs variables {sorted(unbound)} "
                f"do not appear in the lhs"
            )
        return RuleCmd(name, lhs, rhs, scope)
    if head == "term":
        _arity(at, 1, 1, "term")
        return TermCmd(_term(form, 1, False, cons))
    if head == "run":
        _arity(at, 1, 1, "run")
        n = _int(form, 1, "iteration count")
        if n < 0:
            raise _At(DslSyntaxError, "iteration count must be >= 0", *at)
        return RunCmd(n)
    if head in ("check-equal", "check-not-equal"):
        _arity(at, 3, 3, head)
        return CheckCmd(
            head == "check-not-equal",
            _atom(form, 1, "context name"),
            _term(form, 2, False, cons),
            _term(form, 3, False, cons),
        )
    if head == "extract":
        _arity(at, 2, 4, "extract")
        ctx = _atom(form, 1, "context name")
        t = _term(form, 2, False, cons)
        forbid = None
        if len(form) > 3:
            if len(form) != 5 or _atom(form, 3, ":forbid") != ":forbid":
                raise _At(DslSyntaxError, "expected :forbid <name>", *at)
            forbid = _atom(form, 4, "symbol name")
        return ExtractCmd(ctx, t, forbid)
    assert head not in COMMAND_NAMES
    raise _At(UnknownCommand, f"unknown command {head!r}", *at)


def parse_program(source: str) -> Program:
    """The program a source spells. Equal terms within it are one object.
    An error's line and column are worked out only once it is raised."""
    forms, cons = _forms(source), {}
    try:
        return Program(tuple(_build_command(forms, k, cons) for k in range(len(forms))))
    except _At as e:
        kind, message, parent, index = e.args
        raise kind(message, *_where(source, forms, parent, index)) from None


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
                    lat.name(c): len(eng.eg.views.get(c).classes) for c in lat.ids()
                },
            },
        }


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
