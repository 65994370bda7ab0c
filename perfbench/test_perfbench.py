"""Self-checks of the benchmark: tracing reaches every layer it claims to,
span accounting adds up, counts repeat exactly, and the termination and
known-answer gates fail ops the way the metrics assume.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import random
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

wl = run.load_ctxsat()
import tracing  # noqa: E402

SPANNED = {name for name, _, _ in tracing.SPANNED}
COUNTED = {name for name, _, _ in tracing.COUNTED}

# layers each workload is expected to reach; on query (read-only) no
# rewriting, parsing, matching or merging may happen at all
EXPECTED = {
    "scopes": SPANNED | COUNTED,
    "ac": (SPANNED - {"extract.extract"}) | COUNTED,
    "query": {"egraph.rebuild", "views.build", "extract.extract",
              "layered_uf.find", "lattice.check"},
}
ABSENT = {
    "query": {"rewrite.run", "rewrite.scopes", "rewrite.ematch",
              "rewrite.intersections", "rewrite.lift", "dsl.parse",
              "lattice.declare", "views.nodes_of", "views.get",
              "egraph.merge"},
}


def small_ops(workload: str, seed: int):
    """A quick op list per workload, enough to reach every expected layer."""
    rng = wl.rng_for(workload, seed, "test")
    programs = wl.Prepared(None, 60.0, [])
    if workload == "scopes":
        args = [rng.choice((1, 2)) for _ in range(2)]
        return programs, [wl.tower_op(8, rng.randint(1, 8)), wl.lambda_op(args)]
    if workload == "ac":
        return programs, [wl.ac_op(4, 1, rng)]
    prep = wl.prepare_query(seed)
    return prep, prep.rounds(rng)


def traced(workload: str, seed: int):
    prep, ops = small_ops(workload, seed)
    metrics, spans, _, statuses = run.trace_ops(prep, ops, prep.limit_s)
    assert set(statuses) == {"ok"}
    return metrics, spans


@pytest.mark.parametrize("workload", ["scopes", "ac", "query"])
def test_wrapped_functions_hit_where_expected(workload):
    prep, ops = small_ops(workload, 3)
    limiter = run.Limiter(wl.WrongVerdict)

    def run_op(op):
        engine, status = limiter.run(op, prep.limit_s)
        assert status == "ok", op.label
        return engine

    spans, _ = tracing.span_pass(ops, run_op)
    counts, _ = tracing.count_pass(ops, run_op, lambda op, engine: None)
    hit = set(spans.names) | {name for name, n in counts.items() if n}
    assert EXPECTED[workload] <= hit, EXPECTED[workload] - hit
    assert not ABSENT.get(workload, set()) & hit


def run_accounting(spans) -> list[tuple[float, float]]:
    """(run span duration, summed direct phase spans) for each Engine.run."""
    phase_time = defaultdict(float)
    for i, parent in enumerate(spans.parents):
        if parent >= 0 and spans.names[parent] == "rewrite.run":
            assert spans.names[i] in tracing.PHASES, spans.names[i]
            phase_time[parent] += spans.ends[i] - spans.starts[i]
    return [
        (spans.ends[i] - spans.starts[i], phase_time[i])
        for i, name in enumerate(spans.names)
        if name == "rewrite.run"
    ]


@pytest.mark.parametrize("workload", ["scopes", "ac"])
def test_phase_spans_account_for_engine_run(workload):
    metrics, spans = traced(workload, 5)
    for i, parent in enumerate(spans.parents):
        if parent >= 0:
            assert spans.starts[parent] <= spans.starts[i] <= spans.ends[i] <= spans.ends[parent]
    # every direct child of Engine.run is a phase; phases plus the self
    # time (rewrite.apply_ms) make up the run span
    runs = run_accounting(spans)
    assert runs
    for run_s, phases_s in runs:
        assert 0 < phases_s <= run_s
    n_ops = sum(1 for p in spans.parents if p < 0)
    run_ms = sum(r for r, _ in runs) * 1000 / n_ops
    phases_ms = sum(p for _, p in runs) * 1000 / n_ops
    assert metrics["rewrite.run_ms"][0] == pytest.approx(run_ms)
    assert metrics["rewrite.apply_ms"][0] == pytest.approx(run_ms - phases_ms)
    assert metrics["rewrite.apply_ms"][0] > 0


@pytest.mark.parametrize("workload", ["scopes", "ac", "query"])
def test_layer_counts_repeat_exactly(workload):
    first, _ = traced(workload, 7)
    second, _ = traced(workload, 7)
    counts = {k for k, (_, unit) in first.items() if unit in ("count", "ratio")}
    counts -= {"trace.span_overhead", "trace.count_overhead"}
    assert counts
    assert {k: first[k][0] for k in counts} == {k: second[k][0] for k in counts}


def test_wrong_verdict_and_timeout_fail_the_op():
    limiter = run.Limiter(wl.WrongVerdict)
    lines = wl.lambda_lines([1, 2]) + [f"(check-equal bot {wl.lambda_chain([1, 2])} n4)"]
    wrong = wl._program("wrong-sum", lines)
    assert limiter.run(wrong, 60.0)[1] == "wrong"
    assert limiter.run(wl.probe_if_repro(), 0.3)[1] == "timeout"
    right = wl._program("right-sum", lines[:-1] + [lines[-1].replace("n4", "n3")])
    assert limiter.run(right, 60.0)[1] == "ok"


def test_rounds_run_every_variant_equally_often():
    rounds = wl.Rounds([([("a",), ("b",), ("c",), ("d",)], 3), ([("x", "y")], 1)], random.Random(1))
    drawn = Counter(op for _ in range(4) for op in rounds(random.Random(2)))
    assert drawn == {"a": 3, "b": 3, "c": 3, "d": 3, "x": 4, "y": 4}


def test_speed_scales_by_the_samples_near_the_interval():
    speed = run.Speed()
    speed.ends = run.array("d", [1.0, 1.9, 10.0])
    speed.samples = run.array("d", [0.006, 0.006, 0.001])
    # a machine at half the reference speed: times are halved
    assert speed.scaled(1.5, 1.7) == pytest.approx(0.2 * run.REFERENCE_S / 0.006)
    assert speed.scaled(9.8, 9.9) == pytest.approx(0.1 * run.REFERENCE_S / 0.001)


def test_tail_has_ten_samples_beyond():
    latencies = [float(i) for i in range(1, 41)]
    assert run.tail(latencies, 75) == (30.0, 10)
    for p in run.TAIL_PERCENTILE.values():
        n = run.min_samples(p)
        assert run.tail([0.0] * n, p)[1] >= 10 > run.tail([0.0] * (n - 1), p)[1]
