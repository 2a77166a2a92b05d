"""Closed-form weight-i syntomic cohomology of truncated polynomial
algebras over the prototype base rings, orbit by orbit (`drw.Orbit`).

Degree-1 cohomology of the fiber of (divided Frobenius - canonical) on an
orbit is the cyclic module W(k)/brace(p^s m, e), where s is the first
level at which the divided Frobenius stops being an isomorphism along the
orbit, the length of the orbit's degree-1 walk.

`orbit_summands` walks one orbit over a list of levels, and its memoized
one-level case `level_summand` serves the pair queries; `nontrivial_orbits`
is the one enumerator of a window's orbits.  Cache keys and summands are
frozen, an orbit hashes once (`drw.Orbit`), and a rejected orbit raises on
every call, since exceptions are never cached.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

from .drw import CyclicWittModule, Orbit, TruncationParams, degree1_walk, degree1_walks
from .padic import MultiIndex, PAdicFraction, vp


@dataclass(frozen=True)
class SyntomicSummand:
    """The degree-1 contribution of one orbit: its cyclic module, the
    stopping level s, and the kernel-generator scalings per level."""

    orbit: Orbit
    module: CyclicWittModule
    s: int
    generator_exponents: tuple[int, ...]


@dataclass(frozen=True)
class AlphaBounds:
    """Finite enumeration window for multi-indices: slot names, a numerator
    bound, and a denominator-exponent bound."""

    slots: tuple[str, ...] = ()
    num_max: int = 0
    pexp_max: int = 0

    def __post_init__(self) -> None:
        if self.slots and (self.num_max < 1 or self.pexp_max < 0):
            raise ValueError("nonempty slot set needs a numerator bound >= 1 and a pexp bound >= 0")
        if not self.slots and (self.num_max or self.pexp_max):
            raise ValueError("alpha bounds need a nonempty slot set")
        if len(set(self.slots)) != len(self.slots):
            raise ValueError(f"slot names must be distinct, got {' '.join(self.slots)}")


def s_function(params: TruncationParams, m: int, alpha: MultiIndex = MultiIndex()) -> int:
    """Least s >= 0 with ceil(p^s m / e) + floor-l1(p^s alpha) > i, i.e.
    where the degree-1 exponent of level s turns negative."""
    return len(degree1_walk(params, m, alpha))


def orbit_summands(p: int, i: int, orbit: Orbit, levels: Sequence[int]) -> list[SyntomicSummand]:
    """Degree-1 syntomic cohomology of one orbit in weight i at each
    truncation level of levels: W(k)/brace(p^s m, e), with the kernel
    generator's scalings (c_{s-1}, ..., c_0): pinned at level s-1 and
    propagated downward, it has c_a = d_{a+1} + ... + d_{s-1}.

    The orbit is validated once (p | m raises) and p is taken as checked;
    the levels' walks share one table of alpha floors (`degree1_walks`).
    Along one orbit a summand is a function of the walk and h alone, so
    consecutive levels with the same walk and the same h share one frozen
    summand.  h is read off s: as p does not divide m, v_p(brace(p^s m, e))
    is s when e does not divide p^s m and v_p(e) when it does, which is
    nonzero at the levels divisible by p that `syntomic` and `kgroups`
    read."""
    orbit.validate(p)
    m = orbit.m
    out: list[SyntomicSummand] = []
    last_walk = None
    for e, walk in zip(levels, degree1_walks(p, i, m, orbit.alpha, levels)):
        s = len(walk)
        h = s if (p**s * m) % e else vp(e, p)
        if walk != last_walk or h != out[-1].module.h:
            gens = tuple(itertools.accumulate(reversed(walk[1:]), initial=0)) if walk else ()
            last_walk = walk
            out.append(SyntomicSummand(orbit, CyclicWittModule(h), s, gens))
        else:
            out.append(out[-1])
    return out


# More than the levels one orbit is read at (at most 18 in acceptance
# criterion 5), so a loop over one orbit's level pairs misses once per level.
SUMMAND_CACHE_SIZE = 256


@functools.lru_cache(maxsize=SUMMAND_CACHE_SIZE)
def level_summand(p: int, e: int, i: int, orbit: Orbit) -> SyntomicSummand:
    """Degree-1 syntomic cohomology of one orbit at level e in weight i,
    the one-level case of `orbit_summands`, with p, e >= 1 and i >= 0
    taken as checked.  Cached, keyed on plain ints and the orbit, for
    `prosystem.tr_valuation`, the sources `prosystem.ml_rows` reads past
    the probe and the (e, f) loops of the acceptance gate and the bench:
    equal arguments share one frozen summand, and p | m raises on every
    call."""
    return orbit_summands(p, i, orbit, (e,))[0]


def h1_syntomic_orbit(params: TruncationParams, orbit: Orbit) -> SyntomicSummand:
    """Degree-1 syntomic cohomology of one orbit at one level: the cached
    `level_summand` at the checked parameters."""
    return level_summand(params.p, params.e, params.i, orbit)


def enumerate_alphas(bounds: AlphaBounds, p: int):
    """All multi-indices supported on the bounded window, including the
    empty one.  Entries are num/p^a with 1 <= num <= num_max, p not
    dividing num, 0 <= a <= pexp_max."""
    values = [PAdicFraction(0, 0)]
    for num in range(1, bounds.num_max + 1):
        if num % p == 0:
            continue
        for pexp in range(bounds.pexp_max + 1):
            values.append(PAdicFraction(num, pexp))
    for combo in itertools.product(values, repeat=len(bounds.slots)):
        yield MultiIndex.from_dict(dict(zip(bounds.slots, combo)))


def nontrivial_orbits(
    p: int, i: int, bounds: AlphaBounds, levels: Sequence[int]
) -> list[tuple[Orbit, SyntomicSummand]]:
    """Every orbit in the window with a nontrivial group at some level,
    sorted by (m, alpha), each with its summand at the highest such level;
    p is taken as checked.  Nontrivial at e forces s >= 1, hence
    ceil(m/e) <= i, hence m <= i*e: the candidates are m <= i*max(levels)
    prime to p, with the alphas of the user-supplied finite window.

    A candidate's levels are read one at a time from the top, and the scan
    stops at the first nontrivial one or at the first with s = 0.  No step
    of the degree-1 walk falls as e grows, so s never falls, and s = 0
    leaves brace(m, e) prime to p, so every level below one with s = 0 is
    trivial.  Most candidates are decided at the top level."""
    top_down = sorted(levels, reverse=True)
    out = []
    for alpha in enumerate_alphas(bounds, p):
        for m in range(1, i * max(levels, default=0) + 1):
            if m % p:
                orbit = Orbit(m, alpha)
                for e in top_down:
                    sm = orbit_summands(p, i, orbit, (e,))[0]
                    if not sm.module.is_trivial() or not sm.s:
                        break
                if not sm.module.is_trivial():
                    out.append((orbit, sm))
    out.sort(key=lambda pair: pair[0].sort_key())
    return out


def enumerate_orbits(params: TruncationParams, bounds: AlphaBounds = AlphaBounds()) -> list[SyntomicSummand]:
    """The summands at params.e of the window's orbits nontrivial there,
    sorted by (m, alpha): the one-level case of `nontrivial_orbits`."""
    return [sm for _, sm in nontrivial_orbits(params.p, params.i, bounds, (params.e,))]
