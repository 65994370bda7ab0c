#!/usr/bin/env python3
"""Check every cached view that the fingerprint programs make.

Runs `fingerprint.programs()` (the shipped corpora and the benchmark's seed-1
`scopes` and `ac` programs) with `ViewCache.get` wrapped from outside. Every
view a get returns must be current: its `_marks` equal the change log's
positions for its context (the lengths of the bottom and context lost logs,
and the id count), which is what the cache reuses a view by. A cache
patches each context's one view in place, so a patch shows as its `_marks`
or `version` moving. Each time a get returns a view of a context that is
new to that cache, or patched since the context's last check there, seven
things must hold too:

- its classes equal those of a fresh `build_view`;
- `_rows(symbol, since)`, with since the version snapshotted at the
  context's previous check (-1 for its first), lists the rows held now and
  not in the classes snapshotted then;
- `_rows(symbol, -1)` lists every row of symbol it holds (a first join
  reads it);
- `_parents(symbol, pos, child)` equals a brute-force filter of its classes;
- every row it holds has a `_sig` entry (a rule whose root's arguments are
  all constants probes it), and with no clash reported that entry is the
  class holding the row;
- every `_sig` entry, clashes or not, names a class that holds its row, so
  that an entry naming a logged row's class tells that the row is held;
- every class its parent index `_uses` lists under a child holds a row over
  that child: no dead parents remain; and every list there is a dict.

Prints the number of views checked, or the first mismatch and exits 1:

    python3 scripts/check_views.py

Run from anywhere; it imports ctxsat from this checkout's src/.
"""

import sys
import weakref
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).parent)]

from ctxsat.dsl import run_source  # noqa: E402
from ctxsat.lattice import BOTTOM  # noqa: E402
from ctxsat.views import ViewCache, build_view  # noqa: E402

from fingerprint import programs  # noqa: E402
from oracles import snapshot, view_index_mismatch  # noqa: E402


class ViewChecker:
    """Checks each view a wrapped `ViewCache.get` returns: its marks every
    time, the rest after each patch."""

    def __init__(self):
        self.checked = 0
        # cache -> context -> (marks, snapshot) of its view at its last check
        self._last = weakref.WeakKeyDictionary()

    def wrap(self, get):
        def checked_get(cache, ctx):
            view = get(cache, ctx)
            eg = cache._eg()
            lost = eg.uf.lost
            if view._marks != (len(lost[BOTTOM]), len(lost[ctx]), len(eg.uf)):
                raise AssertionError(f"a view at context {ctx} behind the change log")
            last = self._last.setdefault(cache, {})
            at, prev = last.get(ctx, (None, None))
            if prev is None or (view._marks, view.version) != (at, prev[0]):
                if view.classes != build_view(eg, ctx).classes:
                    raise AssertionError(f"classes at context {ctx} differ from build_view")
                got = view_index_mismatch(view, prev, eg.symbols())
                if got is not None:
                    raise AssertionError(got)
                last[ctx] = view._marks, snapshot(view)
                self.checked += 1
            return view

        return checked_get


def main() -> int:
    checker = ViewChecker()
    ViewCache.get = checker.wrap(ViewCache.get)
    # the workloads' set-up runs programs too
    label = "workload set-up"
    try:
        for label, source in programs():
            run_source(source)
    except AssertionError as e:
        print(f"{label}: {e}")
        return 1
    print(f"{checker.checked} views checked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
