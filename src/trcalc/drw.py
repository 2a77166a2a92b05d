"""Shared data of the bigraded two-term divided-power complex attached to a
truncated polynomial extension of a perfectoid-covered base: the job
parameters (p, e, i), the cyclic groups W(k)/p^h it produces, the orbits
that index its Frobenius-stable summands, and the Nygaard exponents of one
orbit level.

An orbit is a pair (m, alpha) with p not dividing m; it indexes the
Frobenius-stable family of bidegrees (p^a m, p^a alpha), a >= 0, which is
the unit all computations decompose into.  The complex is never
materialized.  At x-weight m, with L the l1 floor of the level's
y-multiweight, the weight-i filtered subcomplex is cut out by two p-power
scalings, and everything per-orbit (the s-function, the kernel generator,
the transition valuations, the oracle's matrices and truncation sizes)
reads them from here.  The degree-1 walk of an orbit lists its levels'
degree-1 exponents up to the first negative one; the walks of one orbit
at several truncations share the alpha floors, which do not depend on e.
The oracle's levels of one orbit share its orbit table
(`oracle.OrbitTable`) the same way: the x-weights p^a m and the alpha
floors are read once per orbit, and `nygaard_exponents` takes plain ints,
as `degree1_exponent` does, so every level's exponents come from one
formula applied to the table's entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .padic import MultiIndex, Prime, ceil_div


class _TruncationFields(NamedTuple):
    p: Prime
    e: int
    i: int


class TruncationParams(_TruncationFields):
    """The ambient prime p, truncation exponent e of x^e = 0, and the
    cohomological weight i.

    A tuple-backed, immutable record, as `prosystem.LevelStabilization`
    is: it compares and hashes by value and prints as
    `TruncationParams(p=2, e=3, i=2)`.  Construction, by position or by
    keyword, makes p a `Prime` and checks e and i; so does `_replace`,
    which builds through `_make`.  A plain-int p that is a prime already
    tested is read straight from `Prime._checked`."""

    __slots__ = ()

    def __new__(cls, p: int, e: int, i: int) -> "TruncationParams":
        if type(p) is not Prime:
            p = Prime._checked.get(p) or Prime(p)
        if e < 1:
            raise ValueError("truncation exponent e must be >= 1")
        if i < 0:
            raise ValueError("weight i must be a natural number")
        return tuple.__new__(cls, (p, e, i))

    @classmethod
    def _make(cls, iterable) -> "TruncationParams":
        return cls(*iterable)


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


@dataclass(frozen=True)
class Orbit:
    """One Frobenius-stable summand index: x-weight m coprime to p plus a
    y-multiweight alpha.

    Orbits key the summand cache, so an orbit computes its hash once, on
    first use.  The hash reads alpha's slot names, and strings hash
    differently in each process, so the stored value is left out of
    pickles and copies (`__getstate__`) and recomputed where it lands."""

    m: int
    alpha: MultiIndex = MultiIndex()

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.m, self.alpha))
        return h

    def __getstate__(self) -> dict:
        return {"m": self.m, "alpha": self.alpha}

    def validate(self, p: int) -> None:
        if self.m < 1:
            raise ValueError("orbit needs m >= 1")
        if self.m % p == 0:
            raise ValueError(f"orbit x-weight {self.m} must be coprime to p={p}")

    def sort_key(self) -> tuple:
        return (self.m, tuple((slot, frac.num, frac.pexp) for slot, frac in self.alpha.entries))


def degree1_exponent(i: int, e: int, m: int, L: int) -> int:
    """Unclamped degree-1 Nygaard exponent i - ceil(m/e) - L in weight i at
    truncation e, x-weight m and alpha l1 floor L.  The s-function is the
    first orbit level at which it turns negative."""
    return i - ceil_div(m, e) - L


def nygaard_exponents(i: int, e: int, m: int, L: int) -> tuple[int, int]:
    """p-power scalings of the degree-0 and degree-1 generators in weight i
    at truncation e.

    At x-weight m and alpha l1 floor L the weight-i filtered subcomplex is
    spanned by p^(i - floor(m/e) - L) and p^(i - ceil(m/e) - L) times the
    two generators; outside the range where those exponents are positive
    the subcomplex is the full complex, which the clamping at 0 encodes
    exactly.
    """
    hi = degree1_exponent(i, e, m, L)
    lo = hi + (1 if m % e else 0)
    return (lo if lo > 0 else 0, hi if hi > 0 else 0)


def degree1_walks(p: int, i: int, m: int, alpha: MultiIndex, levels: Iterable[int]) -> list[list[int]]:
    """The degree-1 walk of one orbit at each truncation level e of levels,
    in weight i: the exponents d_a = i - ceil(p^a m / e) -
    floor_l1(p^a alpha) of the orbit levels a = 0, 1, ... before the first
    negative one; their number is s.

    floor_l1(p^a alpha) does not depend on e, so each is read once, when
    the first walk reaches a, and shared by all the walks after it.
    Terminates because ceil(p^a m / e) is unbounded in a.
    """
    if m < 1:
        raise ValueError("degree1_walks needs m >= 1")
    floors: list[int] = []
    walks = []
    for e in levels:
        walk: list[int] = []
        pm = m  # p^a m at a = len(walk)
        while True:
            a = len(walk)
            if a == len(floors):
                floors.append(alpha.floor_l1(p, a))
            d = degree1_exponent(i, e, pm, floors[a])
            if d < 0:
                break
            walk.append(d)
            pm *= p
        walks.append(walk)
    return walks


def degree1_walk(params: TruncationParams, m: int, alpha: MultiIndex) -> list[int]:
    """The degree-1 walk of one orbit at one level (see degree1_walks)."""
    return degree1_walks(params.p, params.i, m, alpha, (params.e,))[0]
