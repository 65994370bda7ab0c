"""Cost-based extraction of a concrete term from a class under a context.

Costs are summed over the term tree with a per-symbol model (default 1 per
node), and every cost is finite and non-negative.

A leaf first: no term costs less than the model's smallest cost m, so a
node of symbol f costs at least cost(f) + arity(f) x m (its floor, summed
as extraction sums a node's cost, so rounding keeps it a floor). A usable
leaf of the root class cheaper than the floor of every other usable node
of that class is a cheapest term, found without computing any other
class's cost: the first settled class of Knuth's generalization of
Dijkstra's algorithm (IPL 1977). `extract_from_view` returns it at once,
and `cheap_leaves` lists, for a whole graph, the stored leaves cheaper than
the floor of every compound symbol, which lambda lifting equates with an
application by their stored class, with no view read and no term built.

Otherwise class costs are computed by bottom-up relaxation to a fixpoint
over the classes reachable from the root through allowed nodes, the only
ones a root's cost and term depend on; classes whose every derivation is
cyclic, or is blocked by the forbidden symbol, keep infinite cost and
raise NoFiniteTerm.

Choice among equal-cost nodes is deterministic: smaller symbol name first,
then lexicographically smaller canonical child ids; so the early exit
returns the smallest name among the cheapest leaves, as the fixpoint
would, and a leaf that ties a compound node's floor takes the fixpoint.
Extraction is a pure function of a rebuilt graph and may run concurrently
per class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .egraph import ClassId, EGraph, ENode, FunctionSymbol, Term
from .errors import NoFiniteTerm
from .lattice import ContextId
from .views import CanonicalView, build_view


def check_cost(value: float) -> None:
    """Costs are finite and non-negative, so only a class with no allowed
    derivation extracts at infinite cost."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"costs must be finite and non-negative, not {value!r}")


@dataclass
class CostModel:
    """Per-symbol-name costs; anything unlisted costs `default`."""

    costs: dict[str, float] = field(default_factory=dict)
    default: float = 1

    def __post_init__(self):
        for v in (self.default, *self.costs.values()):
            check_cost(v)

    def of(self, name: str) -> float:
        return self.costs.get(name, self.default)

    def set(self, name: str, value: float) -> None:
        check_cost(value)
        self.costs[name] = value

    def least(self) -> float:
        """The smallest cost of any symbol: no term costs less."""
        return min([self.default, *self.costs.values()])

    def floor(self, symbol: FunctionSymbol, least: float) -> float:
        """The least cost a node of symbol can have, least per child added
        as extraction adds a child's cost, so rounding keeps it a floor."""
        k = self.of(symbol.name)
        for _ in range(symbol.arity):
            k += least
        return k

    def term_cost(self, t: Term) -> float:
        """A node's cost plus its children's, summed left to right, without
        recursion: listed parents first, each one's last child first, the
        subterms reversed come in post-order with children left to right."""
        order, todo = [], [t]
        while todo:
            order.append(x := todo.pop())
            todo += x.children
        costs: list[float] = []
        for x in reversed(order):
            k = len(costs) - len(x.children)
            costs[k:] = [self.of(x.symbol) + sum(costs[k:])]
        return costs[0]


@dataclass(frozen=True)
class ExtractResult:
    term: Term
    cost: float


def _node_key(node: ENode):
    return (node.symbol.name, node.children)


def forbidden_names(forbid) -> set[str]:
    """Names banned by `forbid`: None, a name or symbol, or an iterable of them."""
    if forbid is None:
        return set()
    if isinstance(forbid, (str, FunctionSymbol)):
        forbid = (forbid,)
    return {f.name if isinstance(f, FunctionSymbol) else f for f in forbid}


def cheap_leaves(eg: EGraph, model: CostModel) -> list[tuple[str, ClassId]]:
    """The stored leaves cheaper than the floor of every compound symbol,
    as (name, stored class) in (cost, name) order. At any context, the
    first of them that is not banned and lies in a class is the term that
    extraction from that class returns."""
    least, bound, leaves = model.least(), math.inf, []
    for sym in eg.symbols():
        if sym.arity:
            bound = min(bound, model.floor(sym, least))
        elif (c := eg.nodes().get((sym, ()))) is not None:
            leaves.append((model.of(sym.name), sym.name, c))
    return [(name, c) for k, name, c in sorted(leaves) if k < bound]


class _Cycle(Exception):
    """Every candidate of a class leads back into the classes being built."""


def extract_from_view(
    view: CanonicalView,
    root: ClassId,
    model: CostModel | None = None,
    forbid=None,
) -> ExtractResult:
    model = model or CostModel()
    banned = forbidden_names(forbid)
    # a leaf cheaper than the floor of every other usable node of the root
    nodes = [n for n in view.classes.get(root, ()) if n.symbol.name not in banned]
    leaves = [(model.of(n.symbol.name), n.symbol.name) for n in nodes if not n.children]
    if leaves:
        k, name = min(leaves)
        least = model.least()
        if all(k < model.floor(n.symbol, least) for n in nodes if n.children):
            return ExtractResult(Term(name), k)
    usable: dict[ClassId, list[ENode]] = {}
    todo = [root] if root in view.classes else []
    while todo:
        c = todo.pop()
        if c not in usable:
            usable[c] = nodes = [n for n in view.classes.get(c, ()) if n.symbol.name not in banned]
            for n in nodes:
                todo += n.children
    # ascending ids: children mostly before their parents
    cost: dict[ClassId, float] = dict.fromkeys(sorted(usable), math.inf)

    changed = True
    while changed:
        changed = False
        for c in cost:
            best = cost[c]
            for node in usable[c]:
                k = model.of(node.symbol.name)
                for ch in node.children:
                    k += cost.get(ch, math.inf)
                    if k == math.inf:
                        break
                if k < best:
                    best = k
            if best < cost[c]:
                cost[c] = best
                changed = True

    if root not in cost or cost[root] == math.inf:
        raise NoFiniteTerm(
            f"class {root} has no finite-cost term"
            + (f" avoiding {forbid!r}" if forbid else "")
        )

    # candidates achieving the class optimum, in deterministic preference order
    candidates: dict[ClassId, list[ENode]] = {}
    for c, nodes in usable.items():
        if cost[c] == math.inf:
            continue
        achieving = []
        for node in nodes:
            k = model.of(node.symbol.name)
            for ch in node.children:
                k += cost.get(ch, math.inf)
                if k == math.inf:
                    break
            if k == cost[c]:
                achieving.append(node)
        candidates[c] = sorted(achieving, key=_node_key)

    # depth first over the candidates, without recursion: a frame is a
    # class, the index of its candidate being built and the children built
    # so far; a candidate fails on a child on the path or failing itself
    memo: dict[ClassId, Term] = {}
    frames, path, done = [[root, 0, []]], {root}, None
    while frames:
        c, k, built = frame = frames[-1]
        if done is _Cycle:
            k, built = k + 1, []
        elif done:
            built.append(done)
        done = None
        while k < len(candidates[c]) and not done:
            node = candidates[c][k]
            if len(built) == len(node.children):
                done = memo[c] = Term(node.symbol.name, tuple(built))
            elif (ch := node.children[len(built)]) in memo:
                built.append(memo[ch])
            elif ch in path:
                k, built = k + 1, []
            else:
                frame[1:] = k, built
                frames.append([ch, 0, []])
                path.add(ch)
                break
        else:
            done = done or _Cycle
            frames.pop()
            path.discard(c)
    if done is _Cycle:
        raise _Cycle
    return ExtractResult(done, cost[root])


def extract(
    eg: EGraph,
    ctx: ContextId,
    c: ClassId,
    model: CostModel | None = None,
    forbid=None,
) -> ExtractResult:
    """Minimum-cost term of c's class over the ctx-canonical database."""
    view = build_view(eg, ctx)
    return extract_from_view(view, eg.find(ctx, c), model, forbid)
