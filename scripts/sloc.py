#!/usr/bin/env python3
"""Print the source lines and parser tokens of each module under
src/ctxsat/, each module's headroom under the 4,096-token limit, and the
total of the lines.

A line counts when it is neither blank nor a comment; docstring lines
count. A parser token is a `tokenize` token other than COMMENT, NL and
ENCODING, so a docstring is one token. A module past 4,096 tokens is
marked: CPython 3.11's parser then doubles its token array while it
compiles the module, which the benchmark's `peak_rss_mb` reads as about
0.2 MB more on every workload. Run from anywhere:

    python3 scripts/sloc.py
"""

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctxsat"
TOKEN_LIMIT = 4096
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def sloc(path: Path) -> int:
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def tokens(path: Path) -> int:
    with path.open("rb") as f:
        return sum(1 for t in tokenize.tokenize(f.readline) if t.type not in SKIPPED)


def main() -> int:
    total = 0
    print(f"{'module':16s} {'lines':>5s} {'tokens':>6s} {'left':>5s}")
    for path in sorted(SRC.glob("*.py")):
        n, k = sloc(path), tokens(path)
        total += n
        mark = f"  past {TOKEN_LIMIT}" if k > TOKEN_LIMIT else ""
        print(f"{path.name:16s} {n:5d} {k:6d} {TOKEN_LIMIT - k:5d}{mark}")
    print(f"{'total':16s} {total:5d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
