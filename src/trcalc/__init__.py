"""Exact-arithmetic calculator and verifier for the cohomology of truncated
polynomial algebras over prototype semiperfect base rings: closed-form
syntomic/K-group computations, an independent Smith-normal-form oracle, and
the inverse-limit bookkeeping that assembles the even homotopy of TR."""

from .drw import CyclicWittModule, Orbit, TruncationParams
from .oracle import oracle_cohomology, verify_orbit
from .padic import MultiIndex, PAdicFraction, Prime
from .prosystem import (
    Tower,
    build_tower,
    limit_classify,
    ml_bound,
    orbit_limit,
    stabilized_images,
    tr_groups,
    tr_valuation,
)
from .syntomic import (
    AlphaBounds,
    SyntomicSummand,
    enumerate_orbits,
    h1_syntomic_orbit,
    s_function,
)

__all__ = [
    "AlphaBounds",
    "CyclicWittModule",
    "MultiIndex",
    "Orbit",
    "PAdicFraction",
    "Prime",
    "SyntomicSummand",
    "Tower",
    "TruncationParams",
    "build_tower",
    "enumerate_orbits",
    "h1_syntomic_orbit",
    "limit_classify",
    "ml_bound",
    "oracle_cohomology",
    "orbit_limit",
    "s_function",
    "stabilized_images",
    "tr_groups",
    "tr_valuation",
    "verify_orbit",
]

__version__ = "0.1.0"
