"""`scripts/check_views.py`, run as a test: every cached view the
fingerprint programs make agrees with `build_view` and with a brute-force
reading of its row log and parent lookups (see `oracles.view_index_mismatch`).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_cached_view_of_the_fingerprint_programs_checks():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_views.py")],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.endswith(" views checked\n")
