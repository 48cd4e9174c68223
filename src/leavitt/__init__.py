"""Exact structure analysis of Leavitt path algebras of finite graphs.

Decides whether the Leavitt path algebra of a finite graph (with optional
omega-multiplicity edge bundles) has bounded index of nilpotence, computes
the exact bound with constructive matrix-unit witnesses, classifies graded
quotients, and produces the matrix-ring decomposition for row-finite graphs,
all in exact rational arithmetic.
"""

from .graph import (
    OMEGA,
    AdmissiblePair,
    Bundle,
    Cycle,
    EdgeRef,
    Graph,
    Path,
)
from .structure import (
    Bounded,
    Unbounded,
    bounded_index_report,
    decompose,
    graded_spectrum,
    is_PI,
    is_directly_finite,
)

__version__ = "0.1.0"

__all__ = [
    "OMEGA",
    "AdmissiblePair",
    "Bounded",
    "Bundle",
    "Cycle",
    "EdgeRef",
    "Graph",
    "Path",
    "Unbounded",
    "bounded_index_report",
    "decompose",
    "graded_spectrum",
    "is_PI",
    "is_directly_finite",
]
