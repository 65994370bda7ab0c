"""One owner per format, checked on the package's source with `ast`.

A view's indexes (`_sig`, `_uses`, `_log`, `_dead`, `_own`, `_marks`) are
read in `views.py` only: every other module reads a view through its
methods. The join plans (`plan_join`, `_join`, `_keep`) are defined in
`rewrite.py` only, next to the rule compiler that builds them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctxsat"
VIEW_INDEXES = {"_sig", "_uses", "_log", "_dead", "_own", "_marks"}
JOIN_PLANS = {"plan_join", "_join", "_keep"}


def modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_only_views_reads_a_views_indexes():
    parsed = modules()
    assert "views.py" in parsed and len(parsed) > 10
    readers = [
        f"{name}:{node.lineno} .{node.attr}"
        for name, tree in parsed.items() if name != "views.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in VIEW_INDEXES
    ]
    assert not readers, f"a view's indexes read outside views.py: {readers}"


def test_the_join_plans_are_defined_in_rewrite_only():
    defined = {
        (name, node.name)
        for name, tree in modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in JOIN_PLANS
    }
    assert defined == {("rewrite.py", name) for name in JOIN_PLANS}
