"""Exact local invariants of rank-2 Goursat distributions.

Given an RVT or Goursat code word, this package computes the small growth
vector, beta/derived vectors, multiplicity and vertical-orders vectors,
e-tables, b vector, Puiseux characteristic, and degree of nonholonomy by
three independent combinatorial routes, and cross-validates all of them
against a symbolic Lie-bracket oracle on monster-tower charts.  All
arithmetic is exact.
"""

from .codeword import GoursatWord, RvtWord, goursat_normalize, is_goursat, lift, parse_word
from .invariants import (
    ETable,
    InvariantBundle,
    PuiseuxCharacteristic,
    beta_backend,
    bundle,
    der2_backend,
    der_backend,
    e_table,
    nonholonomy_degree,
    puiseux_of_word,
)
from .proximity import ProximityDiagram, build_diagram, derived_frontend

__all__ = [
    "Chart",
    "ChartPoint",
    "ETable",
    "GoursatWord",
    "InvariantBundle",
    "ProximityDiagram",
    "PuiseuxCharacteristic",
    "RvtWord",
    "beta_backend",
    "build_diagram",
    "bundle",
    "canonical_chart_point",
    "der2_backend",
    "der_backend",
    "derived_frontend",
    "e_table",
    "goursat_normalize",
    "is_goursat",
    "lift",
    "nonholonomy_degree",
    "parse_word",
    "puiseux_of_word",
    "rvt_of_chart_point",
]

__version__ = "0.1.0"

# The chart names load with goursat.charts on first use: only the commands
# that build a chart import it, so the others start without it.
_CHART_NAMES = frozenset({"Chart", "ChartPoint", "canonical_chart_point", "rvt_of_chart_point"})


def __getattr__(name: str):
    if name not in _CHART_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import charts

    return getattr(charts, name)
