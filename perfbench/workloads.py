"""Seeded workloads for the benchmark, each op paired with a known answer.

Every expected verdict comes from outside ctxsat: the shipped corpora's
hand-written check directives, the extraction results written by hand in
the acceptance tests, or facts that hold by construction of the generated
families (a tower of conditionals is true by cases, a lambda chain is the
sum of its arguments, AC rewriting reaches every reassociated permutation).

A workload is a fixed composition of op kinds (a "round"). The seed picks
the permutations, the order in which successive rounds take each kind's
variants (arguments, levels, contexts) and the order ops run in. Keeping
the composition fixed, and every variant equally frequent, keeps the
latency quantiles and throughput of a run independent of which seed drew
it.
"""

from __future__ import annotations

import importlib
import random
from collections import Counter
from dataclasses import dataclass
from itertools import product

from ctxsat import dsl
from ctxsat.assume import nested_conditional_program
from ctxsat.corpus import CORPUS_NAMES, corpus_source
from ctxsat.lattice import BOTTOM

# the package re-exports the function under the submodule's name
extract_mod = importlib.import_module("ctxsat.extract")

# hand-written in tests/test_acceptance.py (criteria 3 and 4)
ENFORCER_PLAN = (
    "(pi col-rtarget (merge-join (enforce-sort k-mr "
    "(hash-join (sigma col-lsource rho-l) rho-m k-lm)) rho-r k-mr))"
)
QUERYPLAN_ROOT = (
    "(pi col-rtarget (sigma col-lsource "
    "(merge-join (merge-join rho-l rho-m k-lm) rho-r k-mr)))"
)
LAMBDA_APP = "(app (lam x (plus (var x) 1)) 2)"
CONDITIONAL = "(if (gt a b) (gt a b) (le a b))"

# one tower of each depth per round; the lambda chains are weighted so that
# the median falls in the middle of the depth-3 chains and p90 among the
# depth-4 chains and the depth-12 tower, ops of similar cost, and not on a
# step between two kinds of op
TOWER_DEPTHS = tuple(range(4, 13))
LAMBDA_DEPTHS = (2,) * 6 + (3,) * 4 + (4,) * 3
# the depth-4 chain query reads; fixed, because its queries' cost depends
# on the arguments and sits at the median of query
QUERY_LAMBDA_ARGS = [1, 2, 1, 2]
# ops per round for each condition index j of a chain of n summands; the
# cost of an op depends strongly on j, so every round holds each j equally
AC_PER_J = {3: 3, 4: 1}
AC_SATURATING_RUN = 20
# n = 5 does not saturate within reach of the per-op limit: one op per
# round, capped, with a fixed j so that its cost does not vary by round
AC_CAPPED = 5
AC_CAPPED_J = 1
AC_CAPPED_RUN = 2


class WrongVerdict(Exception):
    """An op finished with an answer that differs from the known one."""


# --- program ops (scopes, ac) ---------------------------------------------


@dataclass(frozen=True)
class ProgramOp:
    """One program: parse plus execute, then compare against known answers.

    Every check directive in `source` is written so that it passes exactly
    when the engine's verdict equals the known answer; `extracts` lists the
    expected extraction results in order.
    """

    label: str
    source: str
    checks: int
    extracts: tuple[str, ...] = ()

    def __call__(self):
        out = dsl.execute(dsl.parse_program(self.source))
        failed = [c.name for c in out.checks if not c.ok]
        if len(out.checks) != self.checks or failed:
            raise WrongVerdict(
                f"{self.label}: {len(out.checks)}/{self.checks} checks, failed {failed}"
            )
        got = tuple(e.term for e in out.extracts)
        if got != self.extracts:
            raise WrongVerdict(f"{self.label}: extracted {got}, expected {self.extracts}")
        return out.engine


def _program(label: str, lines: list[str], extracts=()) -> ProgramOp:
    source = "\n".join(lines) + "\n"
    checks = sum(1 for ln in lines if ln.startswith("(check-"))
    return ProgramOp(label, source, checks, tuple(extracts))


def _then_chain(levels: int) -> str:
    return ".".join(["then"] * levels)


def tower_parts(depth: int, level: int) -> tuple[list[str], list[str], str]:
    """The nested-conditional tower, checks that hold by cases, and the tower.

    The generator's own directive checks the tower against true at bot.
    Level i's condition sits under depth - i + 1 then-branches, so it is
    true in that branch context and not at bot; the outermost condition is
    false in the outermost else-branch.
    """
    lines = nested_conditional_program(depth).splitlines()
    tower = lines[-1][len("(check-equal bot "):-len(" true)")]
    gt = f"(gt a{level} b{level})"
    top = f"(gt a{depth} b{depth})"
    checks = [
        f"(check-not-equal bot {gt} true)",
        f"(check-equal {_then_chain(depth - level + 1)} {gt} true)",
        f"(check-equal else {top} false)",
    ]
    return lines, checks, tower


def tower_op(depth: int, level: int) -> ProgramOp:
    lines, checks, tower = tower_parts(depth, level)
    lines += checks + [f"(extract bot {tower})"]
    return _program(f"tower-d{depth}-l{level}", lines, ["true"])


def lambda_chain(args: list[int]) -> str:
    """(app (lam x1 (plus (var x1) <inner>)) n_v1), innermost inner n0."""
    inner = "n0"
    for i in range(len(args), 0, -1):
        inner = f"(app (lam x{i} (plus (var x{i}) {inner})) n{args[i - 1]})"
    return inner


def lambda_lines(args: list[int]) -> list[str]:
    """A lambda chain with a plus table over numerals given as rules.

    The table covers every sum the chain can reach: (plus n_a n_b) -> n_a+b
    for each argument value a and 0 <= b <= 2(d-1).
    """
    d = len(args)
    top = 2 * d
    lines = ["(function app 2)", "(function lam 2)", "(function var 1)", "(function plus 2)"]
    lines += [f"(function x{i} 0)" for i in range(1, d + 1)]
    lines += [f"(function n{k} 0)" for k in range(top + 1)]
    lines.append("(scope-lambda app lam var)")
    for a in (1, 2):
        for b in range(2 * d - 1):
            lines.append(f"(rule plus-{a}-{b} (plus n{a} n{b}) n{a + b} :scope everywhere)")
    lines.append(f"(term {lambda_chain(args)})")
    lines.append(f"(run {4 * d + 4})")
    return lines


def lambda_op(args: list[int]) -> ProgramOp:
    chain = lambda_chain(args)
    total = sum(args)
    lines = lambda_lines(args) + [
        f"(check-equal bot {chain} n{total})",
        f"(check-equal body (var x1) n{args[0]})",
        f"(check-not-equal bot (var x1) n{args[0]})",
        f"(extract bot {chain} :forbid x1)",
    ]
    label = "lambda-" + "".join(map(str, args))
    return _program(label, lines, [f"n{total}"])


def left_sum(leaves: list[str]) -> str:
    out = leaves[0]
    for leaf in leaves[1:]:
        out = f"(add {out} {leaf})"
    return out


def random_sum(leaves: list[str], rng: random.Random) -> str:
    """A seeded bracketing of the leaves in the given order."""
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randint(1, len(leaves) - 1)
    return f"(add {random_sum(leaves[:cut], rng)} {random_sum(leaves[cut:], rng)})"


def ac_lines(n: int, js: list[int], run: int) -> tuple[list[str], str]:
    lines = [
        "(function true 0)", "(function false 0)", "(function if 3)",
        "(function eq 2)", "(function add 2)", "(function mul 2)",
        "(function x 0)", "(function y 0)",
    ]
    lines += [f"(function c{i} 0)" for i in range(n)]
    lines += [
        "(scope-if if true false eq)",
        "(rule add-comm (add ?a ?b) (add ?b ?a) :scope everywhere)",
        "(rule add-assoc (add (add ?a ?b) ?c) (add ?a (add ?b ?c)) :scope everywhere)",
        "(rule mul-comm (mul ?a ?b) (mul ?b ?a) :scope everywhere)",
    ]
    s = left_sum(["x"] + [f"c{i}" for i in range(n)])
    lines += [f"(term {ac_conditional(s, j)})" for j in js]
    lines.append(f"(run {run})")
    return lines, s


def ac_conditional(s: str, j: int) -> str:
    return f"(if (eq x c{j}) (mul {s} y) (mul y {s}))"


def ac_known_at_bot(n: int, s: str, js: list[int], saturating: bool, rng) -> list[str]:
    """Facts at bot: both branches agree by mul-comm, so each conditional
    equals (mul S y); one add-comm step swaps S's outer operands; when the
    run saturates, every reassociated permutation of S equals S."""
    swapped = f"(add c{n - 1} {left_sum(['x'] + [f'c{i}' for i in range(n - 1)])})"
    lines = [f"(check-equal bot {swapped} {s})"]
    lines += [f"(check-equal bot {ac_conditional(s, j)} (mul {s} y))" for j in js]
    lines += [f"(check-not-equal bot x c{j})" for j in js]
    if saturating:
        leaves = ["x"] + [f"c{i}" for i in range(n)]
        rng.shuffle(leaves)
        lines.append(f"(check-equal bot {random_sum(leaves, rng)} {s})")
    return lines


def ac_op(n: int, j: int, rng: random.Random) -> ProgramOp:
    saturating = n < AC_CAPPED
    lines, s = ac_lines(n, [j], AC_SATURATING_RUN if saturating else AC_CAPPED_RUN)
    lines += ac_known_at_bot(n, s, [j], saturating, rng)
    lines.append(f"(check-equal then x c{j})")
    return _program(f"ac-n{n}-j{j}", lines)


# --- known non-terminating programs ----------------------------------------


def probe_if_repro() -> ProgramOp:
    """Two conditionals whose branches are both a: each equals a by cases."""
    lines = [
        "(function true 0)", "(function false 0)", "(function if 3)",
        "(function gt 2)", "(function a 0)", "(function b 0)",
        "(scope-if if true false)",
        "(term (if (gt a b) a a))", "(term (if (gt b a) a a))", "(run 5)",
        "(check-equal bot (if (gt a b) a a) a)",
        "(check-equal bot (if (gt b a) a a) a)",
    ]
    return _program("probe-if-repro", lines)


def probe_lambda_zero() -> ProgramOp:
    """A one-level chain applied to 0 whose body adds 0: it equals 0."""
    chain = lambda_chain([0])
    lines = [
        "(function app 2)", "(function lam 2)", "(function var 1)",
        "(function plus 2)", "(function x1 0)", "(function n0 0)",
        "(scope-lambda app lam var)",
        "(rule plus-0-0 (plus n0 n0) n0 :scope everywhere)",
        f"(term {chain})", "(run 8)",
        f"(check-equal bot {chain} n0)",
    ]
    return _program("probe-lambda-zero", lines)


def probe_ac_two_conditionals(rng: random.Random) -> ProgramOp:
    n = 3
    js = sorted(rng.sample(range(n), 2))
    lines, s = ac_lines(n, js, AC_SATURATING_RUN)
    lines += ac_known_at_bot(n, s, js, True, rng)
    return _program(f"probe-ac-n3-k2-j{js[0]}{js[1]}", lines)


def probes(seed: int) -> list[ProgramOp]:
    """The known non-terminating programs: the two-conditional repro and
    the lambda chain applied to 0 (scopes), AC with two conditionals (ac)."""
    rng = rng_for("probes", seed, "inputs")
    return [probe_if_repro(), probe_lambda_zero(), probe_ac_two_conditionals(rng)]


# --- query ops --------------------------------------------------------------


@dataclass(frozen=True)
class CheckQuery:
    """check-equal as the DSL runs it: intern, rebuild, equiv."""

    label: str
    engine: object
    cmd: dsl.CheckCmd

    def __call__(self):
        eg = self.engine.eg
        a = eg.intern(self.cmd.left)
        b = eg.intern(self.cmd.right)
        eg.rebuild()
        equal = eg.equiv(eg.lattice.id_of(self.cmd.context), a, b)
        if equal == self.cmd.negated:
            raise WrongVerdict(f"{self.label}: {self.cmd.label} answered {equal}")
        return self.engine


@dataclass(frozen=True)
class ExtractQuery:
    label: str
    engine: object
    cmd: dsl.ExtractCmd
    expected: str

    def __call__(self):
        eg = self.engine.eg
        cls = eg.intern(self.cmd.term)
        eg.rebuild()
        ctx = eg.lattice.id_of(self.cmd.context)
        res = extract_mod.extract(eg, ctx, cls, self.engine.cost_model, self.cmd.forbid)
        if str(res.term) != self.expected:
            raise WrongVerdict(f"{self.label}: extracted {res.term}, expected {self.expected}")
        return self.engine


@dataclass(frozen=True)
class StatsQuery:
    """stats at a context; a quotient has 1 <= classes <= canonical nodes,
    and no more canonical nodes than the store holds."""

    label: str
    engine: object
    context: str

    def __call__(self):
        eg = self.engine.eg
        classes, nodes = eg.stats(eg.lattice.id_of(self.context))
        if not 1 <= classes <= nodes <= len(eg.nodes()):
            raise WrongVerdict(f"{self.label}: stats {classes} classes, {nodes} nodes")
        return self.engine


Directives = tuple[tuple[str, ...], tuple[tuple[str, str], ...]]


@dataclass(frozen=True)
class QueryGraph:
    """A program saturated during set-up plus the query directives, with
    known answers, to ask of it: checks and (extract directive, expected
    term) pairs asked every round, and alternative sets of them that
    successive rounds take in turn."""

    program: ProgramOp
    checks: tuple[str, ...]
    extracts: tuple[tuple[str, str], ...]
    variants: tuple[Directives, ...] = ()


def corpus_graph(name: str, extracts=(), program_extracts=()) -> QueryGraph:
    source = corpus_source(name)
    checks = tuple(
        c.to_sexpr() for c in dsl.parse_program(source).commands
        if isinstance(c, dsl.CheckCmd)
    )
    program = ProgramOp(name, source, len(checks), tuple(program_extracts))
    return QueryGraph(program, checks, tuple(extracts))


def query_graphs(rng: random.Random) -> list[QueryGraph]:
    """The shipped corpora plus the largest scopes and ac instances."""
    graphs = []
    for name in CORPUS_NAMES:
        if name == "conditional":
            graph = corpus_graph(name, [(f"(extract bot {CONDITIONAL})", "true")])
        elif name == "queryplan":
            extract = f"(extract bot {QUERYPLAN_ROOT})"
            graph = corpus_graph(name, [(extract, ENFORCER_PLAN)], [ENFORCER_PLAN])
        elif name == "lambda":
            extract = f"(extract bot {LAMBDA_APP} :forbid x)"
            graph = corpus_graph(name, [(extract, "3")], ["3"])
        elif name.startswith("nested-conditional-"):
            tower = tower_parts(int(name.rsplit("-", 1)[1]), 1)[2]
            graph = corpus_graph(name, [(f"(extract bot {tower})", "true")])
        else:
            graph = corpus_graph(name)
        graphs.append(graph)

    depth = max(TOWER_DEPTHS)
    lines, checks, tower = tower_parts(depth, 1)
    levels = []
    for level in range(1, depth + 1):
        not_bot, in_then, _ = tower_parts(depth, level)[1]
        gt = f"(gt a{level} b{level})"
        then = f"(extract {_then_chain(depth - level + 1)} {gt})"
        levels.append(((not_bot, in_then), ((then, "true"),)))
    graphs.append(QueryGraph(
        _program(f"tower-d{depth}", lines),
        (lines[-1], checks[2]),
        ((f"(extract bot {tower})", "true"),),
        tuple(levels),
    ))

    args = QUERY_LAMBDA_ARGS
    chain, total = lambda_chain(args), sum(args)
    graphs.append(QueryGraph(
        _program("lambda-" + "".join(map(str, args)), lambda_lines(args)),
        (
            f"(check-equal bot {chain} n{total})",
            f"(check-equal body (var x1) n{args[0]})",
            f"(check-not-equal bot (var x1) n{args[0]})",
        ),
        (
            (f"(extract bot {chain} :forbid x1)", f"n{total}"),
            (f"(extract bot {chain})", f"n{total}"),
        ),
    ))

    n, j = AC_CAPPED, AC_CAPPED_J
    lines, s = ac_lines(n, [j], AC_CAPPED_RUN)
    checks = ac_known_at_bot(n, s, [j], False, rng) + [f"(check-equal then x c{j})"]
    graphs.append(QueryGraph(_program(f"ac-n{n}", lines), tuple(checks), ()))
    return graphs


EXTRACT_REPEATS = 2


def query_kinds(graph: QueryGraph, engine) -> list[tuple[list[tuple], int]]:
    """The op kinds of one saturated graph: every known-answer query asked
    each round, one of the graph's alternative directive sets, stats at bot
    and stats at one of the other contexts. Extractions repeat so that the
    read path of views and extraction, not equiv alone, sets the median."""
    label = graph.program.label

    def ops(checks, extracts) -> tuple:
        out = []
        for text in checks:
            (cmd,) = dsl.parse_program(text).commands
            out.append(CheckQuery(f"{label}: {text}", engine, cmd))
        for text, expected in extracts:
            (cmd,) = dsl.parse_program(text).commands
            out += [ExtractQuery(f"{label}: {text}", engine, cmd, expected)] * EXTRACT_REPEATS
        return tuple(out)

    lat = engine.eg.lattice
    bot = lat.name(BOTTOM)
    above = [lat.name(c) for c in lat.ids() if c != BOTTOM] or [bot]
    kinds = [
        ([ops(graph.checks, graph.extracts) + (StatsQuery(f"{label}: stats {bot}", engine, bot),)], 1),
        ([(StatsQuery(f"{label}: stats {ctx}", engine, ctx),) for ctx in above], 1),
    ]
    if graph.variants:
        kinds.append(([ops(c, e) for c, e in graph.variants], 1))
    return kinds


# --- workloads ------------------------------------------------------------


@dataclass
class Prepared:
    """What set-up hands to the measured loop."""

    rounds: Rounds  # callable: order rng -> the ops of the next round
    limit_s: float
    engines: list  # graphs that must stay unchanged by read-only ops


def rng_for(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


class Rounds:
    """The ops of successive rounds: a fixed count of each op kind a round.

    A kind lists the variants the seed draws from (the argument vectors of
    a lambda chain, the level a tower is checked at), each a tuple of ops.
    Successive rounds walk a seeded permutation of them, so that over a run
    every variant runs about equally often and the cost of a run does not
    hang on which variants one seed drew; the seeded order rng shuffles
    the ops of each round.
    """

    def __init__(self, kinds: list[tuple[list[tuple], int]], rng: random.Random):
        self.kinds = []
        for variants, count in kinds:
            variants = list(variants)
            rng.shuffle(variants)
            self.kinds.append((variants, count))
        self.drawn = 0

    def __call__(self, order: random.Random) -> list:
        ops = []
        for variants, count in self.kinds:
            start = self.drawn * count
            for i in range(start, start + count):
                ops += variants[i % len(variants)]
        self.drawn += 1
        order.shuffle(ops)
        return ops

    def all_ops(self) -> list:
        return [op for variants, _ in self.kinds for v in variants for op in v]


def prepare_scopes(seed: int) -> Prepared:
    rng = rng_for("scopes", seed, "inputs")
    kinds = [([(tower_op(d, level),) for level in range(1, d + 1)], 1) for d in TOWER_DEPTHS]
    for depth, count in sorted(Counter(LAMBDA_DEPTHS).items()):
        chains = [(lambda_op(list(args)),) for args in product((1, 2), repeat=depth)]
        kinds.append((chains, count))
    _warm([tower_op(min(TOWER_DEPTHS), 1), lambda_op([1] * min(LAMBDA_DEPTHS))])
    return Prepared(Rounds(kinds, rng), 4.0, [])


def prepare_ac(seed: int) -> Prepared:
    rng = rng_for("ac", seed, "inputs")
    kinds = [
        ([(ac_op(n, j, rng),)], reps)
        for n, reps in AC_PER_J.items() for j in range(n)
    ]
    kinds.append(([(ac_op(AC_CAPPED, AC_CAPPED_J, rng),)], 1))
    _warm([ac_op(3, 0, rng)])
    return Prepared(Rounds(kinds, rng), 8.0, [])


def prepare_query(seed: int) -> Prepared:
    rng = rng_for("query", seed, "inputs")
    kinds, engines = [], []
    for graph in query_graphs(rng):
        engine = graph.program()
        engines.append(engine)
        kinds += query_kinds(graph, engine)
    rounds = Rounds(kinds, rng)
    # the first pass interns any query term not yet stored; later passes
    # then leave every graph unchanged
    _warm(rounds.all_ops())
    return Prepared(rounds, 2.0, engines)


def _warm(ops: list) -> None:
    for op in ops:
        op()


PREPARE = {"scopes": prepare_scopes, "ac": prepare_ac, "query": prepare_query}


def fingerprint(engine) -> tuple[int, int, int, int]:
    """Sizes that any write to a graph would change."""
    eg = engine.eg
    return len(eg.nodes()), len(eg.uf), eg.uf.total_unions(), len(eg.lattice)
