"""Shared data of the bigraded two-term divided-power complex attached to a
truncated polynomial extension of a perfectoid-covered base: the job
parameters (p, e, i), the cyclic groups W(k)/p^h it produces, and the
Nygaard exponents of one orbit level.

The complex is never materialized.  At x-weight m, with L the l1 floor of
the level's y-multiweight, the weight-i filtered subcomplex is cut out by
two p-power scalings, and everything per-orbit (the s-function, the kernel
generator, the transition valuations, the oracle's matrices) reads them
from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .padic import Prime, ceil_div


@dataclass(frozen=True)
class TruncationParams:
    """The ambient prime p, truncation exponent e of x^e = 0, and the
    cohomological weight i."""

    p: Prime
    e: int
    i: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, Prime):
            object.__setattr__(self, "p", Prime(self.p))
        if self.e < 1:
            raise ValueError("truncation exponent e must be >= 1")
        if self.i < 0:
            raise ValueError("weight i must be a natural number")


@dataclass(frozen=True)
class CyclicWittModule:
    """The group W(k)/p^h, tracked symbolically by its exponent h.

    h = 0 denotes the trivial group.  Specialized at k = F_p this is the
    cyclic group Z/p^h.
    """

    h: int

    def __post_init__(self) -> None:
        if self.h < 0:
            raise ValueError("exponent must be a natural number")

    def is_trivial(self) -> bool:
        return self.h == 0

    def __str__(self) -> str:
        return "0" if self.h == 0 else f"W(k)/p^{self.h}"


def degree1_exponent(params: TruncationParams, m: int, L: int) -> int:
    """Unclamped degree-1 Nygaard exponent i - ceil(m/e) - L at x-weight m
    and alpha l1 floor L.  The s-function is the first orbit level at which
    it turns negative."""
    return params.i - ceil_div(m, params.e) - L


def nygaard_exponents(params: TruncationParams, m: int, L: int) -> tuple[int, int]:
    """p-power scalings of the degree-0 and degree-1 generators in weight i.

    At x-weight m and alpha l1 floor L the weight-i filtered subcomplex is
    spanned by p^(i - floor(m/e) - L) and p^(i - ceil(m/e) - L) times the
    two generators; outside the range where those exponents are positive
    the subcomplex is the full complex, which the clamping at 0 encodes
    exactly.
    """
    hi = degree1_exponent(params, m, L)
    lo = hi + (1 if m % params.e else 0)
    return (max(lo, 0), max(hi, 0))
