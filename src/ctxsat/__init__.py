"""Contextual equality saturation.

An e-graph whose equivalence relation is stratified over a finite context
lattice: equalities asserted at a context hold there and everywhere above,
rewrites can be scoped to contexts, equalities shared by sibling branch
contexts are promoted downward by intersection, and extraction works per
context.
"""

from .egraph import ClassId, EGraph, ENode, FunctionSymbol, Term, term
from .errors import CtxSatError
from .extract import CostModel, ExtractResult, extract
from .lattice import BOTTOM, ContextId, ContextLattice
from .layered_uf import LayeredUnionFind, NodeId
from .rewrite import (
    AtContext,
    AtOrAbove,
    Engine,
    Everywhere,
    PatternApp,
    PatternVar,
    Rule,
    SaturationReport,
)
from .views import CanonicalView, Strategy, ViewCache, build_view

__all__ = [
    "BOTTOM",
    "AtContext",
    "AtOrAbove",
    "CanonicalView",
    "ClassId",
    "ContextId",
    "ContextLattice",
    "CostModel",
    "CtxSatError",
    "EGraph",
    "ENode",
    "Engine",
    "Everywhere",
    "ExtractResult",
    "FunctionSymbol",
    "LayeredUnionFind",
    "NodeId",
    "PatternApp",
    "PatternVar",
    "Rule",
    "SaturationReport",
    "Strategy",
    "Term",
    "ViewCache",
    "build_view",
    "extract",
    "term",
]
