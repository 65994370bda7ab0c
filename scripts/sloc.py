#!/usr/bin/env python3
"""Print the source lines of each module under src/ctxsat/, and their total.

A line counts when it is neither blank nor a comment; docstring lines
count. Run from anywhere:

    python3 scripts/sloc.py
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ctxsat"


def sloc(path: Path) -> int:
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = sloc(path)
        total += n
        print(f"{path.name:16s} {n:5d}")
    print(f"{'total':16s} {total:5d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
