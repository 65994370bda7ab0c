"""Every module under src/ctxsat/ stays at or below 4,096 parser tokens,
counted as `scripts/sloc.py` counts them: past that CPython 3.11's parser
doubles its token array while it compiles the module, which the benchmark's
`peak_rss_mb` reads as about 0.2 MB more on every workload. A failure names
each module past the limit and by how many tokens."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import sloc  # noqa: E402


def test_every_module_stays_within_the_parser_token_limit():
    sizes = {path.name: sloc.tokens(path) for path in sorted(sloc.SRC.glob("*.py"))}
    assert len(sizes) > 10
    over = [
        f"{name} by {n - sloc.TOKEN_LIMIT}"
        for name, n in sizes.items() if n > sloc.TOKEN_LIMIT
    ]
    assert not over, f"past the {sloc.TOKEN_LIMIT}-token limit: {', '.join(over)}"
