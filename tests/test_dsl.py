import gc
import json
import random
import subprocess
import sys
import weakref

import pytest

from ctxsat.corpus import CORPUS_NAMES, corpus_path, corpus_source
from ctxsat.dsl import RunCmd, parse_program, run_source
from ctxsat.errors import (
    CommandArityError,
    CtxSatError,
    DslError,
    DslSyntaxError,
    UnboundRhsVariable,
    UnknownCommand,
)

from oracles import reference_parse_program


def test_all_corpora_parse():
    for name in CORPUS_NAMES:
        program = parse_program(corpus_source(name))
        assert program.commands


def test_parse_positions_on_error():
    with pytest.raises(DslSyntaxError) as e:
        parse_program("(function f 1)\n(term (f")
    assert e.value.line == 2
    with pytest.raises(DslSyntaxError) as e:
        parse_program("(term (f a)))")
    assert e.value.line == 1 and e.value.col == 13


# the characters the tokenizer tells apart, and the command words and
# arguments that reach each of the command builder's checks
FUZZ_CHARS = ["(", ")", "a", "b", " ", ";", "\n", "\t", "\r", "\f", "é", "?x1"]
FUZZ_ARITIES = {
    "function": (2, 2), "context": (2, 2), "cost": (2, 2), "scope-if": (3, 4),
    "scope-lambda": (3, 3), "rule": (5, 6), "term": (1, 1), "run": (1, 1),
    "check-equal": (3, 3), "check-not-equal": (3, 3), "extract": (2, 4), "covers": (0, 2),
}
FUZZ_WORDS = [
    "a", "b", "?x1", "bot", "1", "-1", "2.5", "inf", ":scope", ":forbid",
    "everywhere", "at-or-above", "covers", "é",
]


def fuzz_form(rng, depth=0):
    """A command form with about the right number of arguments, each an
    atom, a term or another command-like form."""
    if depth and rng.random() < 0.6:
        return rng.choice(FUZZ_WORDS)
    if depth == 0 or rng.random() < 0.3:
        head = rng.choice(list(FUZZ_ARITIES))
        low, high = FUZZ_ARITIES[head]
        n = rng.randint(low, high) if rng.random() < 0.8 else rng.randint(0, 6)
    else:
        head, n = rng.choice(["f", "a", "?x1", "()"]), rng.randint(0, 3)
    items = [head] + [fuzz_form(rng, depth + 1) for _ in range(n if depth < 4 else 0)]
    gaps = [rng.choice([" ", " ", "\n", "\t ", " ; c\n"]) for _ in items]
    return "(" + "".join(g + x for g, x in zip(gaps, items)).lstrip(" ") + ")"


def fuzz_source(rng):
    if rng.random() < 0.3:
        return "".join(rng.choice(FUZZ_CHARS) for _ in range(rng.randint(0, 30)))
    text = "\n".join(fuzz_form(rng) for _ in range(rng.randint(1, 3)))
    for _ in range(rng.choice([0, 0, 1, 2])):
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(FUZZ_CHARS) + text[i:]
    return text


def parse_outcome(parse, source):
    """The commands, or the error's class, message, line and column."""
    try:
        return parse(source).commands
    except CtxSatError as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


def test_parser_agrees_with_the_positional_reference_on_fuzzed_sources():
    rng = random.Random(19)
    seen = set()
    for _ in range(2000):
        source = fuzz_source(rng)
        got = parse_outcome(parse_program, source)
        assert got == parse_outcome(reference_parse_program, source), repr(source)
        seen.add(got[0] if got and isinstance(got[0], type) else bool(got))
    assert seen == {True, False, DslSyntaxError, CommandArityError, UnknownCommand}


@pytest.mark.parametrize("source, error, line, col, message", [
    # a command after forms that span lines
    ("(function f 1) (function a 0)\n(term (f\n  a)) (run\n 1 2)",
     CommandArityError, 3, 7, "run takes 1 arguments, got 2"),
    # a nested form of a term
    ("(function f 2)\n(term (f a\n   (f () b)))",
     DslSyntaxError, 3, 7, "expected a symbol application"),
    ("(function f 1)\n(term (f\n\t?x))", DslSyntaxError, 3, 2, "pattern variable ?x not allowed here"),
    ("(function a 0)\n  (rule r a a\n :scope (everywhere))", DslSyntaxError, 3, 9, "expected scope"),
    ("(function a 0)\n\n  (rule r a a :scope at-or-above)",
     DslSyntaxError, 3, 3, "at-or-above needs a context name"),
    ("(function a 0)\n\n  (rule r a a :scope x y)", DslSyntaxError, 3, 3, "bad :scope specification"),
    ("(term a)\n(extract bot a\n  :forbid)", DslSyntaxError, 2, 1, "expected :forbid <name>"),
    ("(term a)\n(extract bot a :forbid\n  (x))", DslSyntaxError, 3, 3, "expected symbol name"),
    ("(context c (covers bot (d)))", DslSyntaxError, 1, 24, "expected context name"),
])
def test_errors_raised_while_building_a_command_carry_their_form_position(
    source, error, line, col, message
):
    with pytest.raises(error) as e:
        parse_program(source)
    assert (e.value.line, e.value.col, str(e.value)) == (line, col, f"{line}:{col}: {message}")
    assert parse_outcome(reference_parse_program, source) == (error, str(e.value), line, col)


def test_equal_terms_within_a_parse_are_one_object():
    term, check, rule, extract = parse_program(
        "(term (f a (g a))) (check-equal bot (f a (g a)) (g a))\n"
        "(rule r (g ?x) (g (a)) :scope everywhere) (extract bot (f a (g a)))"
    ).commands
    assert check.left is term.term is extract.term
    assert check.right is term.term.children[1] is rule.rhs
    assert term.term.children[0] is term.term.children[1].children[0]
    assert rule.lhs.children[0] is not term.term.children[0]
    again = parse_program("(term (f a (g a)))").commands[0]
    assert again.term == term.term and again.term is not term.term


def test_unknown_command_and_arity_errors():
    with pytest.raises(UnknownCommand):
        parse_program("(frobnicate x)")
    with pytest.raises(CommandArityError):
        parse_program("(function f)")
    with pytest.raises(CommandArityError):
        parse_program("(run 1 2)")


def test_negative_function_arity_is_a_parse_error():
    with pytest.raises(DslSyntaxError) as e:
        parse_program("(function a 0)\n  (function f -1)")
    assert (e.value.line, e.value.col) == (2, 3)


def test_unbound_rhs_variable_is_a_parse_error():
    with pytest.raises(UnboundRhsVariable):
        parse_program("(rule r (f ?x) (g ?y) :scope everywhere)")


def test_round_trip_is_structurally_identical():
    for name in CORPUS_NAMES:
        program = parse_program(corpus_source(name))
        assert parse_program(program.to_source()) == program


def test_intro_corpus_has_no_context_declarations():
    program = parse_program(corpus_source("intro"))
    from ctxsat.dsl import ContextCmd

    assert not any(isinstance(c, ContextCmd) for c in program.commands)
    assert any(isinstance(c, RunCmd) for c in program.commands)


def test_execute_reports_checks_in_order():
    out = run_source(
        """
        (function a 0)
        (function b 0)
        (term a)
        (term b)
        (check-not-equal bot a b)
        (check-equal bot a a)
        """
    )
    assert [c.ok for c in out.checks] == [True, True]
    assert out.exit_status == 0


def test_failing_check_sets_exit_status():
    out = run_source(
        """
        (function a 0)
        (function b 0)
        (check-equal bot a b)
        """
    )
    assert not out.checks[0].ok
    assert out.exit_status == 1


def test_engine_errors_carry_command_index():
    with pytest.raises(DslError) as e:
        run_source("(function f 1)\n(term (g))")
    assert "command 2" in str(e.value)


def test_rule_scoped_at_missing_context_fails_at_run():
    src = """
    (function f 1)
    (function g 1)
    (function a 0)
    (rule r (f ?x) (g ?x) :scope nowhere)
    (term (f a))
    (run 2)
    """
    with pytest.raises(DslError) as e:
        run_source(src)
    assert "nowhere" in str(e.value)


@pytest.mark.parametrize("scope", ["then", "at-or-above then"])
def test_rule_scoped_at_a_context_a_construct_makes_later_fires_there(scope):
    # `then` is declared only once `mk` has made the conditional, in the
    # run's first iteration, after `in-then` was first considered
    out = run_source(
        f"""
        (function true 0) (function false 0) (function if 3) (function f 1) (function g 1)
        (function c 0) (function x 0) (function y 0) (scope-if if true false)
        (rule mk (f ?a) (if c (g ?a) y) :scope everywhere)
        (rule in-then (g x) y :scope {scope})
        (term (f x)) (run 5)
        (check-equal then (g x) y) (check-not-equal bot (g x) y)
        """
    )
    assert out.reports[-1].saturated
    assert [c.ok for c in out.checks] == [True, True]
    assert out.exit_status == 0


def test_json_report_is_deterministic():
    src = corpus_source("conditional")
    a = json.dumps(run_source(src).report_json(), sort_keys=True)
    b = json.dumps(run_source(src).report_json(), sort_keys=True)
    assert a == b


def test_max_iterations_override_caps_runs():
    out = run_source(corpus_source("conditional"), max_iterations=1)
    assert sum(r.iterations for r in out.reports) == 1
    assert not out.reports[-1].saturated


def test_egraph_is_freed_by_reference_counting():
    # the e-graph's view cache must not hold it in a reference cycle, which
    # only the cyclic collector would free
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = run_source(corpus_source("nested-conditional-2"))
        eg = weakref.ref(out.engine.eg)
        del out
        assert eg() is None
    finally:
        if enabled:
            gc.enable()


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ctxsat.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_run_pass_and_fail(tmp_path):
    res = cli("run", str(corpus_path("conditional")))
    assert res.returncode == 0
    assert "PASS" in res.stdout

    bad = tmp_path / "bad.ctx"
    bad.write_text("(function a 0)\n(function b 0)\n(check-equal bot a b)\n")
    res = cli("run", str(bad))
    assert res.returncode == 1
    assert "FAIL" in res.stdout

    res = cli("run", str(tmp_path / "missing.ctx"))
    assert res.returncode == 2


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ctx"
    bad.write_text("(term (f a)\n")
    res = cli("run", str(bad))
    assert res.returncode == 2
    assert res.stderr.startswith("error")
    assert "Traceback" not in res.stderr


def test_cli_runs_a_deep_term_end_to_end(tmp_path):
    # parsing, interning, the check's label and extraction recurse on no depth
    deep = "(f " * 3000 + "a" + ")" * 3000
    src = tmp_path / "deep.ctx"
    src.write_text(
        f"(function f 1) (function a 0) (term {deep})\n"
        f"(check-equal bot {deep} {deep})\n(extract bot {deep})\n"
    )
    res = cli("run", str(src))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        f"PASS  check-equal bot {deep} {deep}",
        f"extract  {deep}  cost=3001",
        "iterations=0 saturated=False checks=1/1",
    ]


def test_cli_program_not_utf8_exits_2(tmp_path):
    bad = tmp_path / "bad.ctx"
    bad.write_bytes(b"(function a 0)\n(term a)\xff\n")
    for args in (["run"], ["stats", "--context", "bot"], ["compare-assume"]):
        res = cli(args[0], str(bad), *args[1:])
        assert res.returncode == 2, args
        assert res.stderr.startswith(f"error: {bad}: not UTF-8 text ("), args
        assert "Traceback" not in res.stderr


def test_cli_negative_function_arity_exits_2(tmp_path):
    bad = tmp_path / "bad.ctx"
    bad.write_text("(function f -1)\n")
    res = cli("run", str(bad))
    assert res.returncode == 2
    assert res.stderr.startswith("error") and "1:1: arity must be >= 0" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_rejects_negative_max_iters():
    res = cli("run", str(corpus_path("intro")), "--max-iters", "-3")
    assert res.returncode == 2
    assert "--max-iters" in res.stderr and "usage" in res.stderr
    assert cli("run", str(corpus_path("intro")), "--max-iters", "2").returncode == 0


def test_cli_check_at_uncreated_context_fails_with_reason(tmp_path):
    # the capped run never creates the `then` context the first check names
    json_path = tmp_path / "out.json"
    res = cli("run", str(corpus_path("intro")), "--max-iters", "0", "--json", str(json_path))
    assert res.returncode == 1
    assert "Traceback" not in res.stderr and not res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == (
        "FAIL  check-equal then (mul x y) (shift y)  (context 'then' is not declared)"
    )
    assert lines[1] == "PASS  check-not-equal bot (mul x y) (shift y)"
    checks = json.loads(json_path.read_text())["checks"]
    assert checks[0] == {
        "name": "check-equal then (mul x y) (shift y)",
        "status": "fail",
        "reason": "context 'then' is not declared",
    }
    assert checks[1] == {"name": "check-not-equal bot (mul x y) (shift y)", "status": "pass"}


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "1e400"])
def test_cost_must_be_finite_and_non_negative(value):
    with pytest.raises(DslSyntaxError, match="finite and non-negative") as e:
        parse_program(f"(function a 0)\n(cost a {value})\n")
    assert e.value.line == 2
    parse_program("(function a 0)\n(cost a 0)\n(cost a 2.5)\n")


def test_cli_rejects_infinite_cost_before_running(tmp_path):
    # an infinite cost used to surface only later, as "no finite-cost term"
    # from the lambda lift inside (run 6)
    source = corpus_source("lambda").replace(
        "(run 6)", "(cost 3 inf) (cost plus inf)\n(run 6)"
    )
    bad = tmp_path / "inf.ctx"
    bad.write_text(source)
    res = cli("run", str(bad))
    assert res.returncode == 2
    assert res.stderr.startswith("error") and "finite and non-negative" in res.stderr
    assert "no finite-cost term" not in res.stderr and "Traceback" not in res.stderr


def test_cli_json_and_dot_outputs(tmp_path):
    json_path = tmp_path / "out.json"
    dot_path = tmp_path / "out.dot"
    res = cli(
        "run", str(corpus_path("conditional")),
        "--json", str(json_path),
        "--dump-dot", str(dot_path), "--context", "bot",
    )
    assert res.returncode == 0
    data = json.loads(json_path.read_text())
    assert set(data) == {"checks", "report"}
    assert all(c["status"] == "pass" for c in data["checks"])
    rep = data["report"]
    assert set(rep) == {
        "iterations", "saturated", "unions_per_context", "classes_per_context",
    }
    dot = dot_path.read_text()
    assert dot.startswith("digraph")
    assert "cluster_" in dot

    # runs are byte-identical
    res2 = cli(
        "run", str(corpus_path("conditional")), "--json", str(tmp_path / "b.json")
    )
    assert res2.returncode == 0
    assert (tmp_path / "b.json").read_text() == json_path.read_text()


def test_cli_dot_with_context_renders_dashed_equalities(tmp_path):
    dot_path = tmp_path / "then.dot"
    res = cli(
        "run", str(corpus_path("intro")),
        "--dump-dot", str(dot_path), "--context", "then",
    )
    assert res.returncode == 0
    dot = dot_path.read_text()
    assert "style=dashed" in dot and 'label="then"' in dot


def test_cli_stats(tmp_path):
    res = cli("stats", str(corpus_path("queryplan")), "--context", "s")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["context"] == "s"
    res_bot = cli("stats", str(corpus_path("queryplan")), "--context", "bot")
    bot = json.loads(res_bot.stdout)
    assert data["classes"] <= bot["classes"]


def test_cli_compare_assume(tmp_path):
    json_path = tmp_path / "cmp.json"
    res = cli(
        "compare-assume", str(corpus_path("nested-conditional-1")),
        "--json", str(json_path),
    )
    assert res.returncode == 0
    data = json.loads(json_path.read_text())
    assert set(data) == {"assume_nodes", "layered_nodes", "iterations"}
    assert data["layered_nodes"] <= data["assume_nodes"]


def test_compare_assume_rejects_lambda_corpus():
    res = cli("compare-assume", str(corpus_path("lambda")))
    assert res.returncode == 2
