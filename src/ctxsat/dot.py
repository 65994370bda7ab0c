"""Graphviz export of the bottom-canonical e-graph.

Classes become clusters of their e-nodes; solid edges run from a node to the
header of each child class. Equalities that hold only in the requested
context are drawn as labeled dashed edges between the headers of the
bottom classes they join.
"""

from __future__ import annotations

from collections import defaultdict

from .egraph import EGraph
from .lattice import BOTTOM, ContextId


def export_dot(eg: EGraph, ctx: ContextId = BOTTOM) -> str:
    eg.lattice.check(ctx)
    grouped = {
        cls: sorted(nodes, key=lambda n: (n.symbol.name, n.children))
        for cls, nodes in eg.classes().items()
    }

    lines = ["digraph egraph {", "  compound=true;", "  node [shape=box];"]
    node_ids = {}
    for cls in sorted(grouped):
        lines.append(f"  subgraph cluster_{cls} {{")
        lines.append(f'    label="c{cls}";')
        lines.append(f'    head_{cls} [shape=point, width=0.08, label=""];')
        for i, node in enumerate(grouped[cls]):
            nid = f"n{cls}_{i}"
            node_ids[node] = nid
            args = " ".join(f"c{ch}" for ch in node.children)
            label = node.symbol.name if not args else f"{node.symbol.name}({args})"
            lines.append(f'    {nid} [label="{label}"];')
        lines.append("  }")
    for cls in sorted(grouped):
        for node in grouped[cls]:
            for ch in node.children:
                root = eg.find(BOTTOM, ch)
                lines.append(
                    f"  {node_ids[node]} -> head_{root} [lhead=cluster_{root}];"
                )
    if ctx != BOTTOM:
        name = eg.lattice.name(ctx)
        merged = defaultdict(list)
        for cls in sorted(grouped):
            merged[eg.find(ctx, cls)].append(cls)
        for members in merged.values():
            for a, b in zip(members, members[1:]):
                lines.append(
                    f'  head_{a} -> head_{b} '
                    f'[style=dashed, dir=none, label="{name}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
