"""The probe-only paths change no result.

`EGraph._instantiate` adds a right-hand side's stored nodes by a probe of
the node store, and `Engine.apply_scopes` skips the classes from which no
construct can be reached (`CanonicalView.reach`). Forcing both back to the
plain path, every step through `_add` and a walk over every class, must
leave `scripts/fingerprint.py`'s digests of every program unchanged.
"""

import itertools
import sys
from pathlib import Path

from ctxsat.corpus import CORPUS_NAMES, corpus_source
from ctxsat.egraph import EGraph
from ctxsat.views import CanonicalView

from test_rewrite import random_rewrite_program

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import fingerprint  # noqa: E402  (puts perfbench/ on the path)
import workloads  # noqa: E402


def through_add(self, ctx, rhs, matches):
    """`EGraph._instantiate` with every step a call of `_add`."""
    steps, top = rhs
    for m in matches:
        env = [*m]
        for sym, args in steps:
            env.append(self._add(sym, [env[a] for a in args]))
        self.uf._union(ctx, m[0], env[top])


def every_class(view, symbols):
    return view.classes.keys()


def families() -> dict[str, list[str]]:
    """Sources by family: the corpora, lambda chains of depth 2-4, towers
    of depth 4-6, ac sums of length 3 and 4, and seeded rewrite programs."""
    rng = workloads.rng_for("ac", 1, "inputs")
    return {
        "corpus": [corpus_source(name) for name in CORPUS_NAMES],
        "lambda": [
            workloads.lambda_op(list(args)).source
            for depth in (2, 3, 4) for args in itertools.product((1, 2), repeat=depth)
        ],
        "tower": [
            workloads.tower_op(d, level).source for d in (4, 5, 6) for level in range(1, d + 1)
        ],
        "ac": [workloads.ac_op(n, j, rng).source for n, j in ((3, 0), (3, 1), (3, 2), (4, 1))],
        "random": [random_rewrite_program(seed)[0] for seed in range(200)],
    }


class CountedReach(set):
    """A reach set that counts the classes the walk skips."""

    skipped = 0

    def __contains__(self, c):
        held = super().__contains__(c)
        CountedReach.skipped += not held
        return held


def test_probed_applications_and_the_pruned_walk_change_no_digest(monkeypatch):
    sources = families()
    reach = CanonicalView.reach
    skipped = {}
    fast = {}
    for name, family in sources.items():
        CountedReach.skipped = 0
        monkeypatch.setattr(CanonicalView, "reach", lambda v, s: CountedReach(reach(v, s)))
        fast[name] = [fingerprint.digests(source) for source in family]
        skipped[name] = CountedReach.skipped
    monkeypatch.setattr(CanonicalView, "reach", every_class)
    monkeypatch.setattr(EGraph, "_instantiate", through_add)
    for name, family in sources.items():
        for i, source in enumerate(family):
            assert fingerprint.digests(source) == fast[name][i], f"{name} #{i}"
    # the walk skips construct-free classes where a branch body holds none
    assert skipped["ac"] > 0 and skipped["tower"] > 0
