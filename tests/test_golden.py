"""`ctxsat run --json` output on the shipped corpora, pinned byte for byte.

The report must stay identical across refactors; regenerate a file under
tests/golden/ only for a deliberate change to what a run computes.
"""

from pathlib import Path

import pytest

from ctxsat.cli import main
from ctxsat.corpus import CORPUS_NAMES, corpus_path

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_run_json_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    assert main(["run", str(corpus_path(name)), "--json", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == (GOLDEN / f"{name}.json").read_text()
