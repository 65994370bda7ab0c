import subprocess
import sys

import pytest

from ctxsat.assume import assume_encode, nested_conditional_program
from ctxsat.corpus import corpus_source
from ctxsat.dsl import parse_program, run_source
from ctxsat.errors import UnsupportedCorpus


# (assume_nodes, layered_nodes, iterations) of each conditional program
COUNTS = {
    "intro": (12, 9, 2),
    "conditional": (25, 9, 2),
    "nested-1": (23, 8, 2),
    "nested-2": (54, 13, 2),
    "nested-3": (97, 18, 2),
    "nested-4": (152, 23, 2),
    "nested-5": (219, 28, 2),
    "nested-6": (298, 33, 2),
}


def test_layered_never_larger_on_conditional_corpora():
    sources = {name: corpus_source(name) for name in ("intro", "conditional")}
    sources |= {f"nested-{k}": nested_conditional_program(k) for k in range(1, 7)}
    for name, source in sources.items():
        cmp = assume_encode(parse_program(source))
        assert cmp.layered_nodes <= cmp.assume_nodes
        assert cmp.iterations >= 1
        assert (cmp.assume_nodes, cmp.layered_nodes, cmp.iterations) == COUNTS[name], name


def test_counts_equal_without_conditionals():
    src = """
    (function f 1)
    (function a 0)
    (function b 0)
    (rule fold (f ?x) ?x :scope everywhere)
    (term (f (f a)))
    (term b)
    (run 4)
    """
    cmp = assume_encode(parse_program(src))
    assert cmp.assume_nodes == cmp.layered_nodes


def test_nested_series_grows_strictly():
    ratios = []
    for k in (1, 2, 3):
        cmp = assume_encode(
            parse_program(corpus_source(f"nested-conditional-{k}"))
        )
        assert cmp.layered_nodes <= cmp.assume_nodes
        ratios.append(cmp.assume_nodes / cmp.layered_nodes)
    assert ratios[0] < ratios[1] < ratios[2]


def test_lambda_corpus_unsupported():
    with pytest.raises(UnsupportedCorpus):
        assume_encode(parse_program(corpus_source("lambda")))


def test_context_scoped_rules_unsupported():
    with pytest.raises(UnsupportedCorpus):
        assume_encode(parse_program(corpus_source("queryplan")))


def test_reserved_symbol_names_rejected():
    with pytest.raises(UnsupportedCorpus):
        assume_encode(parse_program("(function assume-true 2)"))
    # a rule named as one of the wrapper algebra's
    with pytest.raises(UnsupportedCorpus, match="rule name 'at-idem' is reserved"):
        assume_encode(parse_program("(function a 0) (rule at-idem a a :scope everywhere)"))


def test_generator_matches_shipped_corpora():
    for k in (1, 2, 3):
        assert nested_conditional_program(k) == corpus_source(
            f"nested-conditional-{k}"
        )
    # a deep tower is built without recursion, each level's then branch
    # holding the tower one level lower
    def tower(depth):
        return nested_conditional_program(depth).splitlines()[-3][len("(term "):-1]

    g = "(gt a3000 b3000)"
    assert tower(3000) == f"(if {g} {tower(2999)} (not {g}))"


def test_generated_programs_resolve_at_bottom():
    for k in (1, 2, 3):
        out = run_source(nested_conditional_program(k))
        assert out.ok
        assert out.reports[-1].saturated


def test_generator_rejects_bad_depth():
    with pytest.raises(ValueError):
        nested_conditional_program(0)


def test_cli_compares_a_deep_term_end_to_end(tmp_path):
    # the wrapped copy of the term is built without recursion, as the run is
    deep = "(f " * 3000 + "a" + ")" * 3000
    src = tmp_path / "deep.ctx"
    src.write_text(f"(function f 1) (function a 0) (term {deep})\n(run 1)\n")
    for command in ("run", "compare-assume"):
        res = subprocess.run(
            [sys.executable, "-m", "ctxsat.cli", command, str(src)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, (command, res.stderr)
    assert "Traceback" not in res.stderr
    cmp = assume_encode(parse_program(src.read_text()))
    assert cmp.assume_nodes == cmp.layered_nodes == 3001
