"""`scripts/fingerprint.py` output, pinned: one line per program, two digests.

The digests cover everything a run leaves observable (see the script), over
the corpora, the benchmark's `scopes` and `ac` programs and its `query`
graphs with their directives, and they do not depend on the hash seed. Regenerate tests/golden/fingerprints.txt only for a
deliberate change to what runs compute, or to those programs, and list the
lines that changed:

    python3 scripts/fingerprint.py > tests/golden/fingerprints.txt
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fingerprints_match_golden():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fingerprint.py")],
        capture_output=True, text=True, check=True,
    )
    want = (ROOT / "tests" / "golden" / "fingerprints.txt").read_text().splitlines()
    got = run.stdout.splitlines()
    assert [line.split()[0] for line in got] == [line.split()[0] for line in want]
    changed = [g.split()[0] for g, w in zip(got, want) if g != w]
    assert changed == []
