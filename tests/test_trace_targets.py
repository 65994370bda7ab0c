"""Every layer the benchmark traces is still where `perfbench/tracing.py`
looks for it.

`tracing.patched` looks a target up in its class's own `__dict__` (an
inherited method is not found) or in the first module of its tuple, and
skips a target it cannot find with a message, so that layer's metrics read
zero and no test fails. Its per-phase split also needs `Engine.run` to call
each phase through an attribute that the wrapper replaces. perfbench/ is
imported read-only.
"""

import sys
from pathlib import Path

import pytest

from ctxsat.rewrite import Engine

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

TARGETS = tracing.SPANNED + tracing.COUNTED


@pytest.mark.parametrize("name, owner, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_trace_target_resolves(name, owner, attr):
    if isinstance(owner, tuple):
        assert getattr(owner[0], attr, None) is not None, f"{name}: {owner[0].__name__}.{attr}"
    else:
        assert attr in owner.__dict__, f"{name}: {attr} not in {owner.__name__}.__dict__"


def test_run_calls_each_phase_by_name():
    attrs = {name: attr for name, _, attr in tracing.SPANNED}
    called = Engine.run.__code__.co_names
    assert all(attrs[phase] in called for phase in tracing.PHASES), tracing.PHASES
