"""ctxsat benchmark: seeded workloads in a closed loop, with known answers.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload scopes --seed 1 --seconds 35 --trace 0

One client, one thread, one process: each op starts when the previous one
has finished and been checked. An op is one program (parse + execute) in
`scopes` and `ac`, and one read-only query in `query`. Each op runs under a
time limit enforced with SIGALRM; an op that times out, raises or answers
wrongly is failed and its latency is counted at the limit.

With `--trace 0` the run measures the workload's ops for about `--seconds`
seconds, in whole rounds, and prints the end-to-end metrics, their times
scaled to a reference machine speed (see REFERENCE_S). With
`--trace 1` it runs one fixed list of the workload's ops three times
(untraced, with spans, with call counts), prints per-op layer metrics with
each pass's overhead, and writes the spans to perfbench/out/. The traced
run also runs the programs known not to terminate today, each under a
short limit, and reports the share of the limit they ran for
(`probes.limit_share`), so the defect shows without failing the workload's
ops. The last line of standard output is one JSON object; a wrong verdict
makes the exit status 1, a missing ctxsat source tree makes it 2.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("scopes", "ac", "query")
SETUP_REPEATS = {"scopes": 9, "ac": 9, "query": 3}
TRACE_ROUNDS = {"scopes": 1, "ac": 1, "query": 200}
# call counting slows ops down; traced passes get this much more time
TRACE_LIMIT_FACTOR = 4
# the tail percentile of each workload: the highest of p75/p90/p99/p99.9
# that keeps ten samples beyond it at the sample counts a run reaches here.
# It is fixed, so that a run with a few more ops does not switch percentile;
# the loop runs on past --seconds until ten samples lie beyond it.
TAIL_PERCENTILE = {"scopes": 90, "ac": 75, "query": 99.9}
ASSUME_DEPTHS = (1, 2, 3, 4)
# time limit of each known non-terminating program in the traced run
PROBE_LIMIT_S = 2.0
# The host's speed drifts by up to half over tens of seconds: a fixed loop
# ran 221 to 342 times a second on a 2-vCPU Xeon VM, with CPU time equal to
# wall time and no steal time, so the drift comes from below the guest.
# Timed runs therefore scale each op and set-up time by the speed of a fixed
# reference loop timed around it: a reported time is the time on a machine
# where the reference loop takes REFERENCE_S. The loop is timed before an
# op when SPEED_EVERY_S have passed since it last ran; an interval is
# scaled by the median of the loop times within SPEED_WINDOW_S of it, so
# that one interrupted sample does not skew it.
REFERENCE_S = 0.003
SPEED_EVERY_S = 0.2
SPEED_WINDOW_S = 1.0


class SourceMissing(Exception):
    """The checkout holds no ctxsat source tree to benchmark."""


class WrongSetup(Exception):
    """A program run during set-up answered wrongly."""


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; not an Exception, so engine code
    cannot swallow it."""


class Limiter:
    """Per-op wall-clock limit enforced in-process with setitimer.

    `wrong` is the exception type an op raises for a wrong verdict.
    """

    def __init__(self, wrong: type):
        self.wrong = wrong
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout

    def run(self, op, limit_s: float):
        """(engine or None, status) where status is ok, timeout, error or wrong."""
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            engine = op()
            self.armed = False
            return engine, "ok"
        except OpTimeout:
            return None, "timeout"
        except self.wrong as e:
            print(f"wrong verdict: {e}", file=sys.stderr)
            return None, "wrong"
        except Exception:  # noqa: BLE001 - any engine error fails the op
            print(f"{op.label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None, "error"
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def reference_loop() -> int:
    """Fixed interpreter work of the kinds ctxsat does: a union-find walk,
    tuple-keyed dict reads and writes, small sets."""
    parent = list(range(400))
    table = {}
    for i in range(3000):
        a, b = (i * 7919) % 400, (i * 104729) % 400
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        parent[a] = b
        table[a, i % 97] = table.get((a, i % 97), 0) + 1
        seen = {a, b, i % 13}
    return len(table) + len(seen)


class Speed:
    """Times reference_loop now and then, and scales wall-clock intervals
    to a machine where it takes REFERENCE_S."""

    def __init__(self):
        self.ends = array("d")  # perf_counter when each sample ended
        self.samples = array("d")  # seconds reference_loop took
        for _ in range(3):
            self.sample()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection here would charge the program's garbage to the loop
        t0 = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.ends.append(end)
        self.samples.append(end - t0)

    def tick(self) -> None:
        """Sample if SPEED_EVERY_S have passed since the last sample."""
        if time.perf_counter() - self.ends[-1] >= SPEED_EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] on the reference machine; call once
        a sample has been taken after `end`."""
        lo = bisect.bisect_left(self.ends, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + SPEED_WINDOW_S)
        return (end - start) * REFERENCE_S / statistics.median(self.samples[lo:hi])


def load_ctxsat():
    """Import ctxsat from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ctxsat" / "__init__.py").is_file():
        raise SourceMissing(f"ctxsat sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    for name in [m for m in sys.modules if m.split(".")[0] in ("ctxsat", "workloads", "tracing")]:
        del sys.modules[name]
    workloads = importlib.import_module("workloads")
    found = Path(sys.modules["ctxsat"].__file__).resolve()
    if src not in found.parents:
        raise SourceMissing(f"ctxsat imported from {found}, not from {src}")
    return workloads


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def setup(workload: str, seed: int, speed: Speed | None = None):
    """Import ctxsat afresh and prepare the workload; several times, so the
    median set-up time is reported. Returns (wall intervals, workloads
    module, prepared)."""
    intervals = []
    for _ in range(SETUP_REPEATS[workload]):
        prepared = None  # free the previous set-up outside the clock
        gc.collect()
        if speed:
            speed.tick()
        t0 = time.perf_counter()
        wl = load_ctxsat()
        try:
            prepared = wl.PREPARE[workload](seed)
        except wl.WrongVerdict as e:
            raise WrongSetup(f"wrong verdict during set-up: {e}") from e
        intervals.append((t0, time.perf_counter()))
    return intervals, wl, prepared


def _rank(n: int, p: float) -> int:
    """Samples at or below percentile p of n samples."""
    return max(1, int(n * p / 100))


def tail(latencies, p: float) -> tuple[float, int]:
    """(value at percentile p, samples beyond it)."""
    ordered = sorted(latencies)
    k = _rank(len(ordered), p)
    return ordered[k - 1], len(ordered) - k


def min_samples(p: float) -> int:
    """Fewest samples that leave ten beyond percentile p."""
    n = 11
    while n - _rank(n, p) < 10:
        n += 1
    return n


def measure(workload: str, seed: int, seconds: float) -> int:
    info = machine_info()
    speed = Speed()
    setup_intervals, wl, prep = setup(workload, seed, speed)
    rng = wl.rng_for(workload, seed, "order")
    limiter = Limiter(wl.WrongVerdict)
    before = [wl.fingerprint(e) for e in prep.engines]

    # op start and end times in packed arrays, so that the memory they
    # take hardly grows with throughput and peak_rss_mb stays the program's
    starts, ends = array("d"), array("d")
    statuses, failed_labels = Counter(), []

    def attempt(op):
        speed.tick()
        t0 = time.perf_counter()
        _, status = limiter.run(op, prep.limit_s)
        t1 = time.perf_counter()
        statuses[status] += 1
        if status != "ok":
            failed_labels.append(f"{op.label} ({status})")
            t1 = t0 + prep.limit_s
            gc.collect()
        starts.append(t0)
        ends.append(t1)

    p = TAIL_PERCENTILE[workload]
    need = min_samples(p)
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    # whole rounds only, so every run measures the same composition; a new
    # round starts while at least half a mean round fits before the deadline
    while True:
        now = time.perf_counter()
        if rounds and len(starts) >= need and deadline - now < (now - start) / rounds / 2:
            break
        for op in prep.rounds(rng):
            attempt(op)
        rounds += 1
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed.sample()
    walls = [b - a for a, b in zip(starts, ends)]
    latencies = [speed.scaled(a, b) for a, b in zip(starts, ends)]
    setup_times = [speed.scaled(a, b) for a, b in setup_intervals]

    if [wl.fingerprint(e) for e in prep.engines] != before:
        print("a read-only query changed its graph", file=sys.stderr)
        statuses["wrong"] += 1

    n = len(latencies)
    ok = statuses["ok"]
    tail_s, beyond = tail(latencies, p)
    metrics = {
        "op_ms_p50": (statistics.median(latencies) * 1000, "ms"),
        "op_ms_tail": (tail_s * 1000, "ms"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "ok_share": (ok / n, "share"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    print(f"workload {workload}, seed {seed}, {rounds} rounds, {n} ops, "
          f"{wall:.1f} s, limit {prep.limit_s:g} s per op")
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"unscaled     op_ms_p50 {statistics.median(walls) * 1000:.4f} ms, "
          f"op_ms_tail {tail(walls, p)[0] * 1000:.4f} ms, ops_per_s {n / sum(walls):.4f} 1/s, "
          f"setup_s {statistics.median(b - a for a, b in setup_intervals):.4f} s; "
          f"reference loop median {statistics.median(speed.samples) * 1000:.3f} ms "
          f"over {len(speed.samples)} samples (times below are scaled to "
          f"{REFERENCE_S * 1000:g} ms)")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "op_ms_tail":
            extra = f"  (p{p:g} of {n} samples, {beyond} beyond)"
        elif name == "setup_s":
            extra = f"  (median of {len(setup_times)})"
        print(f"{name:<12} {value:12.4f} {unit}{extra}")
    for label in failed_labels:
        print(f"failed: {label}")
    correct = statuses["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": n - ok,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def trace_ops(prep, ops: list, limit_s: float):
    """Run `ops` untraced, with spans, and with call counts.

    Returns (per-op layer metrics with each pass's overhead, spans, pass
    seconds, op statuses summed over the three passes).
    """
    import tracing
    from workloads import WrongVerdict

    limiter = Limiter(WrongVerdict)
    statuses = Counter()
    union_base = {id(e): e.eg.uf.total_unions() for e in prep.engines}
    sizes = Counter()
    # op intervals of the current pass, so that the overheads compare
    # scaled times (see REFERENCE_S): the passes run seconds apart
    speed, intervals = Speed(), []

    def run_op(op):
        speed.tick()
        t0 = time.perf_counter()
        engine, status = limiter.run(op, limit_s)
        intervals.append((t0, time.perf_counter()))
        statuses[status] += 1
        return engine

    def scaled_pass() -> float:
        speed.sample()
        total = sum(speed.scaled(a, b) for a, b in intervals)
        intervals.clear()
        return total

    def observe(op, engine):
        if engine is None:
            return
        eg = engine.eg
        sizes["nodes"] += len(eg.nodes())
        sizes["contexts"] += len(eg.lattice)
        sizes["unions"] += eg.uf.total_unions() - union_base.get(id(engine), 0)

    gc.collect()
    plain_s = tracing.plain_pass(ops, run_op)
    plain = scaled_pass()
    gc.collect()
    spans, span_s = tracing.span_pass(ops, run_op)
    span = scaled_pass()
    gc.collect()
    counts, count_s = tracing.count_pass(ops, run_op, observe)
    count = scaled_pass()

    metrics = tracing.layer_metrics(spans, counts, sizes, len(ops))
    metrics["trace.span_overhead"] = (span / plain - 1, "ratio")
    metrics["trace.count_overhead"] = (count / plain - 1, "ratio")
    seconds = {"plain": plain_s, "spans": span_s, "counts": count_s}
    return metrics, spans, seconds, statuses


def run_probes(wl, seed: int) -> tuple[float, int]:
    """Run the known non-terminating programs, each under PROBE_LIMIT_S.

    Returns (mean share of the limit they ran for, wrong verdicts); a probe
    that times out or raises counts at the limit, so the share is 1 while
    they all hang and falls once one of them terminates.
    """
    limiter = Limiter(wl.WrongVerdict)
    shares, wrong = [], 0
    for probe in wl.probes(seed):
        t0 = time.perf_counter()
        _, status = limiter.run(probe, PROBE_LIMIT_S)
        elapsed = time.perf_counter() - t0
        print(f"probe {probe.label}: {status} after {elapsed:.2f} s")
        shares.append(elapsed / PROBE_LIMIT_S if status == "ok" else 1.0)
        wrong += status == "wrong"
        gc.collect()
    return statistics.mean(shares), wrong


def traced(workload: str, seed: int) -> int:
    info = machine_info()
    _, wl, prep = setup(workload, seed)
    from ctxsat.assume import assume_encode, nested_conditional_program
    from ctxsat.dsl import parse_program

    rng = wl.rng_for(workload, seed, "order")
    ops = [op for _ in range(TRACE_ROUNDS[workload]) for op in prep.rounds(rng)]
    metrics, spans, seconds, statuses = trace_ops(
        prep, ops, prep.limit_s * TRACE_LIMIT_FACTOR
    )
    probe_share, probe_wrong = run_probes(wl, seed)
    metrics["probes.limit_share"] = (probe_share, "ratio")
    for d in ASSUME_DEPTHS:
        cmp = assume_encode(parse_program(nested_conditional_program(d)))
        metrics[f"assume.node_ratio.d{d}"] = (cmp.assume_nodes / cmp.layered_nodes, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(out_file, "w") as f:
        json.dump({
            "workload": workload,
            "seed": seed,
            "ops": len(ops),
            "machine": info,
            "pass_seconds": seconds,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "spans": spans.to_json(),
        }, f)

    n = sum(statuses.values())
    print(f"workload {workload}, seed {seed}, traced {len(ops)} ops x 3 passes "
          f"({len(spans)} spans, written to {out_file.relative_to(ROOT)})")
    print("machine " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<28} {value:14.4f} {unit}")
    correct = statuses["wrong"] == 0 and probe_wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": n - statuses["ok"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.trace:
            return traced(args.workload, args.seed)
        return measure(args.workload, args.seed, args.seconds)
    except SourceMissing as e:
        print(e, file=sys.stderr)
        return 2
    except WrongSetup as e:
        print(e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
