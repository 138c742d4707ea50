"""Exact-arithmetic cohomology of projection point patterns.

Given a dense lattice in an internal space together with a family of
singular hyperplanes, the engine enumerates translation-orbit classes of
singular subspaces and evaluates closed formulas for the ranks of the
pattern cohomology and K-groups.
"""

from .catalog import build, names
from .field import FElem, FieldSpec, quadratic, restrict_scalars
from .invariants import InvariantReport, analyze, k_ranks, rank_formulas
from .model import (
    Hyperplane,
    ProjectionData,
    canonical_hyperplane,
    from_field,
    parse_projection_data,
    serialize_projection_data,
    validate,
)
from .orbits import Arrangement, Engine, InfiniteArrangement, SingularClass
from .report import canonical_digest, compute_report

__all__ = [
    "Arrangement",
    "Engine",
    "FElem",
    "FieldSpec",
    "Hyperplane",
    "InfiniteArrangement",
    "InvariantReport",
    "ProjectionData",
    "SingularClass",
    "analyze",
    "build",
    "canonical_digest",
    "canonical_hyperplane",
    "compute_report",
    "from_field",
    "k_ranks",
    "names",
    "parse_projection_data",
    "quadratic",
    "rank_formulas",
    "restrict_scalars",
    "serialize_projection_data",
    "validate",
]

__version__ = "0.1.0"
