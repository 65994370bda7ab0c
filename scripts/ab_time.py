#!/usr/bin/env python3
"""Paired in-process timing of two checkouts on one benchmark workload.

Loads the `ctxsat` package of each checkout under its own module name, and
this checkout's perfbench/workloads.py (read-only) once for each, bound to
that checkout's package. Every distinct op of the workload's seed-1 set-up
then runs in ABBA order (A, B, B, A), with the garbage collector paused
around each call and every op's own verdict checked. A round sums each
side's times over all ops, each weighted by how often a benchmark round
runs it (`distinct_ops`), so that the sum stands for a benchmark round; its
speed-up is A's sum over B's. Prints the median speed-up over the rounds,
its quartiles and how many rounds B won (a speed-up above 1; a gain is
claimed only when B wins at least nine rounds in ten), then, for each op
family (`tower-dN` by tower depth, `lambda-dN` by chain depth, `ac-nN` by
sum length; a `query` op counts in its graph's family), the median over the
rounds of its weighted A and B sums and of its speed-up, so that one can
see where a gain lands:

    python3 scripts/ab_time.py --workload scopes --a ../before --b .

It runs 20 rounds unless `--rounds` says otherwise: fewer do not resolve a
1-2% effect on a small VM shared with other loads.

`--workload deep` is no benchmark workload: it times the nested towers of
depth 32 and 64, the lambda chain of depth 6 (`tower_op(32, 1)`,
`tower_op(64, 1)`, `lambda_op([1, 2] * 3)`) and a 500-deep context chain
(`chain_op(wl, 500)`), to check that a change is no slower at depth, in
declaring and seeding contexts too.

`--a` and `--b` are checkout roots (each with src/ctxsat/); a speed-up
above 1 means B is faster. On a 2-vCPU Xeon VM, 20 rounds of `scopes` or
of `query` take about 1.5 minutes, of `ac` or of `deep` about 15 s, set-up
included.
"""

import argparse
import gc
import importlib.util
import re
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load(root: Path, tag: str):
    """This checkout's workloads module, bound to root's ctxsat, which is
    imported as `ctxsat_<tag>`, and the sys.modules entries that make the
    name `ctxsat` (which the package itself resolves at run time, as for
    its corpora) refer to that package."""
    pkg_dir = root / "src" / "ctxsat"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no ctxsat sources under {root / 'src'}")
    name = f"ctxsat_{tag}"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in sorted(p.stem for p in pkg_dir.glob("*.py") if p.stem != "__init__"):
        importlib.import_module(f"{name}.{sub}")
    # workloads imports `ctxsat`; set-up and timed calls install these again
    aliases = {
        "ctxsat" + key[len(name):]: mod
        for key, mod in sys.modules.items()
        if key == name or key.startswith(name + ".")
    }
    sys.modules.update(aliases)
    spec = importlib.util.spec_from_file_location(f"workloads_{tag}", WORKLOADS)
    wl = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    return wl, aliases


def distinct_ops(wl, workload: str) -> list[tuple[object, float]]:
    """The distinct ops of the workload's seed-1 set-up, in a fixed order,
    each with its weight: the times a benchmark round runs it, on average.
    A round takes `count` of a kind's variants, so an op weighs
    count / len(variants) for each variant of the kind that holds it, and
    the weights sum to the ops of one round."""
    if workload == "deep":
        return [(wl.tower_op(32, 1), 1.0), (wl.tower_op(64, 1), 1.0),
                (wl.lambda_op([1, 2] * 3), 1.0), (chain_op(wl, 500), 1.0)]
    ops, weights = {}, {}
    for variants, count in wl.PREPARE[workload](1).rounds.kinds:
        for op in (op for variant in variants for op in variant):
            key = getattr(op, "source", None) or (type(op).__name__, op.label)
            ops.setdefault(key, op)
            weights[key] = weights.get(key, 0.0) + count / len(variants)
    return [(op, weights[key]) for key, op in ops.items()]


def chain_op(wl, d: int):
    """A chain of d contexts, each covering the one before, with a rule
    scoped at the top and two checks: that the rule holds at the top and
    not just below it."""
    lines = [
        "(function f 1) (function a 0) (function b 0) (context c1 (covers bot))",
        *(f"(context c{i} (covers c{i - 1}))" for i in range(2, d + 1)),
        f"(rule a-is-b a b :scope c{d})", "(term (f a))", "(run 3)",
        f"(check-equal c{d} (f a) (f b))", f"(check-not-equal c{d - 1} (f a) (f b))",
    ]
    return wl._program(f"chain-d{d}", lines)


def family(label: str) -> str:
    """The family of an op's label: `tower-d12-l3` is `tower-d12`,
    `lambda-1212` is `lambda-d4`, `ac-n3-j0` is `ac-n3`, and a `query`
    op (`<graph>: <directive>`) counts in its graph's family."""
    label = label.split(": ")[0]
    if m := re.fullmatch(r"lambda-([12]+)", label):
        return f"lambda-d{len(m[1])}"
    if m := re.fullmatch(r"(tower-d\d+|ac-n\d+)-.*", label):
        return m[1]
    return label


def family_lines(rounds: list[dict]) -> list[str]:
    """One line per family, by name, from each round's family -> (A sum,
    B sum), each the sum of two timings in seconds: the medians over the
    rounds of the two sums, halved, in ms, and of their ratio."""
    lines = []
    for name in sorted({name for sums in rounds for name in sums}):
        pairs = [sums[name] for sums in rounds]
        a, b = (statistics.median(side) * 500 for side in zip(*pairs))
        ratio = statistics.median(a / b for a, b in pairs)
        lines.append(f"  {name}: A {a:.1f} ms, B {b:.1f} ms, speed-up x{ratio:.3f}")
    return lines


def summary_line(workload: str, n_ops: int, ratios: list[float]) -> str:
    """The verdict over the rounds' speed-ups: their median and quartiles,
    and the rounds B won (a speed-up above 1; a tie counts for neither)."""
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(r > 1 for r in ratios)
    return (f"{workload}: {n_ops} ops, {len(ratios)} rounds, speed-up x{med:.3f} "
            f"(IQR {q1:.3f}-{q3:.3f}), B won {wins} of {len(ratios)} rounds")


def timed(op, aliases: dict) -> float:
    sys.modules.update(aliases)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        op()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["scopes", "ac", "query", "deep"], required=True)
    parser.add_argument("--a", type=Path, required=True, help="the baseline checkout root")
    parser.add_argument("--b", type=Path, default=ROOT, help="the checkout root to compare")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    wl_a, aliases_a = load(args.a.resolve(), "a")
    wl_b, aliases_b = load(args.b.resolve(), "b")
    sys.modules.update(aliases_a)
    ops_a = distinct_ops(wl_a, args.workload)
    sys.modules.update(aliases_b)
    ops_b = distinct_ops(wl_b, args.workload)
    labels = [(op.label, w) for op, w in ops_a]
    if labels != [(op.label, w) for op, w in ops_b]:
        raise SystemExit("error: the two checkouts' workloads list different ops")
    families = [family(label) for label, _ in labels]
    ratios, rounds = [], []
    for _ in range(args.rounds):
        sums = {name: [0.0, 0.0] for name in families}
        for (op_a, w), (op_b, _), name in zip(ops_a, ops_b, families):
            a = timed(op_a, aliases_a)
            b = timed(op_b, aliases_b) + timed(op_b, aliases_b)
            a += timed(op_a, aliases_a)
            sums[name][0] += w * a
            sums[name][1] += w * b
        rounds.append(sums)
        sum_a, sum_b = (sum(side) for side in zip(*sums.values()))
        ratios.append(sum_a / sum_b)
        print(f"round {len(ratios)}: A {sum_a / 2:.3f} s, B {sum_b / 2:.3f} s, "
              f"speed-up x{ratios[-1]:.3f}", flush=True)
    print(summary_line(args.workload, len(ops_a), ratios))
    print("\n".join(family_lines(rounds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
