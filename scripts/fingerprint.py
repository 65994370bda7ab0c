#!/usr/bin/env python3
"""Print one digest per program, so two revisions can be compared by diff.

The programs are the seven shipped corpora, the distinct programs of the
benchmark's `scopes` and `ac` workloads at seed 1 (`prepare_scopes(1)`,
`prepare_ac(1)` in perfbench/workloads.py, imported read-only), and one
program per graph of its `query` workload at seed 1: the graph's program
followed by every check and extract directive the workload asks of it,
each alternative set included, labelled `query-<graph>`. Each output
line is a label and two sha256 digests. The first is over everything a run
leaves observable: the `--json` report, the extracts, `export_dot` and
`stats` at every context, the numbers of ids and stored nodes, and the
summed `rule_applications` of the run's reports. The last one sees a row log
that does not give exactly the new rows: re-matching old rows leaves the
relation unchanged but applies more rules. The second is over the same state
with the report's `iterations` field removed, so a change that only reaches
the same fixpoint in fewer iterations keeps it. Two revisions that behave
the same print the same lines:

    python3 scripts/fingerprint.py > after.txt
    diff before.txt after.txt

Run from anywhere; it imports ctxsat from this checkout's src/.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ctxsat.corpus import CORPUS_NAMES, corpus_source  # noqa: E402
from ctxsat.dot import export_dot  # noqa: E402
from ctxsat.dsl import run_source  # noqa: E402

import workloads  # noqa: E402


def programs() -> list[tuple[str, str]]:
    """(label, source) pairs; a label that repeats gets a #k suffix."""
    out = [(name, corpus_source(name)) for name in CORPUS_NAMES]
    seen = {source for _, source in out}
    count: dict[str, int] = {}
    for prepared in (workloads.prepare_scopes(1), workloads.prepare_ac(1)):
        for op in prepared.rounds.all_ops():
            if op.source in seen:
                continue
            seen.add(op.source)
            k = count[op.label] = count.get(op.label, 0) + 1
            out.append((op.label if k == 1 else f"{op.label}#{k}", op.source))
    for graph in workloads.query_graphs(workloads.rng_for("query", 1, "inputs")):
        checks, extracts = list(graph.checks), list(graph.extracts)
        for more_checks, more_extracts in graph.variants:
            checks += more_checks
            extracts += more_extracts
        directives = "\n".join(checks + [text for text, _ in extracts])
        out.append((f"query-{graph.program.label}", f"{graph.program.source}{directives}\n"))
    return out


def digests(source: str) -> tuple[str, str]:
    """The digest of the whole state, and of it without `iterations`."""
    out = run_source(source)
    eg = out.engine.eg
    state = {
        "report": out.report_json(),
        "extracts": [[e.term, e.cost] for e in out.extracts],
        "contexts": {
            eg.lattice.name(c): [export_dot(eg, c), eg.stats(c)]
            for c in eg.lattice.ids()
        },
        "ids": len(eg.uf),
        "nodes": len(eg.nodes()),
        "rule_applications": sum(r.rule_applications for r in out.reports),
    }
    full = sha256(state)
    del state["report"]["report"]["iterations"]
    return full, sha256(state)


def sha256(state: dict) -> str:
    text = json.dumps(state, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    for label, source in programs():
        print(label, *digests(source), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
