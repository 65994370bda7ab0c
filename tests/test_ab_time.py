"""scripts/ab_time.py weights each distinct op as a benchmark round runs it."""

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
