"""scripts/ab_time.py weights each distinct op as a benchmark round runs it,
sums the weighted times of each op family, and counts the rounds B won."""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench")]

import ab_time  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload, round_ops", [("scopes", 22), ("ac", 14)])
def test_op_weights_sum_to_one_rounds_op_count(workload, round_ops):
    weighted = ab_time.distinct_ops(workloads, workload)
    assert sum(w for _, w in weighted) == pytest.approx(round_ops)
    assert len(workloads.PREPARE[workload](1).rounds(random.Random(0))) == round_ops
    assert len({op.source for op, _ in weighted}) == len(weighted)


def test_ops_fall_into_families_by_depth_and_length():
    families = {
        workload: {ab_time.family(op.label) for op, _ in ab_time.distinct_ops(workloads, workload)}
        for workload in ("scopes", "ac", "deep")
    }
    towers = {f"tower-d{d}" for d in range(4, 13)}
    assert families["scopes"] == towers | {"lambda-d2", "lambda-d3", "lambda-d4"}
    assert families["ac"] == {"ac-n3", "ac-n4", "ac-n5"}
    assert families["deep"] == {"tower-d32", "tower-d64", "lambda-d6", "chain-d500"}
    assert ab_time.family("tower-d12-l1: (check-equal bot a b)") == "tower-d12"
    assert ab_time.family("lambda: stats bot") == "lambda"


def test_family_lines_give_each_familys_median_sums_and_speed_up():
    rounds = [
        {"tower-d4": [2.0, 1.0], "lambda-d2": [4.0, 4.0]},
        {"tower-d4": [4.0, 1.0], "lambda-d2": [6.0, 3.0]},
        {"tower-d4": [6.0, 4.0], "lambda-d2": [2.0, 4.0]},
    ]
    assert ab_time.family_lines(rounds) == [
        "  lambda-d2: A 2000.0 ms, B 2000.0 ms, speed-up x1.000",
        "  tower-d4: A 2000.0 ms, B 500.0 ms, speed-up x2.000",
    ]


def test_summary_line_counts_the_rounds_b_won():
    ratios = [1.2, 0.9, 1.0, 1.1, 1.05]
    assert ab_time.summary_line("scopes", 100, ratios) == (
        "scopes: 100 ops, 5 rounds, speed-up x1.050 (IQR 0.950-1.150), B won 3 of 5 rounds"
    )
    assert ab_time.summary_line("ac", 8, [0.98]).endswith("x0.980 (IQR 0.980-0.980), B won 0 of 1 rounds")

