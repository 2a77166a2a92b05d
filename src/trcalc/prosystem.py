"""Towers of degree-1 cohomology groups over the truncation exponent e,
their transition valuations, Mittag-Leffler stabilization of images, and
their inverse limits.

Levels range over the naturals coprime to p (cofinal among all e), ordered
by size, with one map tr_fe for every pair f >= e.  All group data is the
symbolic exponent h of W(k)/p^h; transition maps are recorded by their
p-valuation only, the unit factor being irrelevant to images and limits.

A tower's summands come from one walk over its levels
(`syntomic.orbit_summands`); `Tower.p` is a `padic.Prime`, checked once
per tower, and `nontrivial_towers` builds a window's towers with one walk
per candidate orbit.  `stabilized_images` reads every source from the
tower: its levels must be every level coprime to p from its least one up
to the probe, and sources start at level 2.  Valuations are computed one
target level at a time (`transition_valuations`): the target's terms are
read once and each source adds its own, with v_p of factorials taken by
Legendre's formula; `tr_valuation` is its one-source case.  The sweep
passes p, the levels, the weight and m as plain ints, checked once per
tower, and builds no `TruncationParams`.  Its per-level output is one
light, tuple-backed `LevelStabilization`, and a trivial level (h = 0)
takes a short path that computes nothing per source.  The summand cache,
keyed on plain ints and the orbit (`syntomic.level_summand`), serves the
pair queries of `tr_valuation`, which builds no `TruncationParams`.

A tower's inverse limit is not read off a probe: `orbit_limit` decides it
from the orbit and the weight alone, by three proven cases, and
`tr_groups` calls it once per orbit without sweeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .drw import TruncationParams
from .padic import Prime, ceil_div, vp_factorial
from .syntomic import (
    AlphaBounds,
    Orbit,
    SyntomicSummand,
    h1_syntomic_orbit,
    level_summand,
    nontrivial_orbits,
    orbit_summands,
)


class MLViolationError(Exception):
    """Images failed to stabilize where theory says they must; indicates a
    bug, not expected behavior."""


class ClassificationRefusedError(Exception):
    """Once raised when a probe was too short to classify a limit.  Nothing
    raises it any more: `orbit_limit` decides every limit from the orbit.
    It stays defined for callers that still catch it."""


def transition_valuations(
    p: int, e: int, sm_e: SyntomicSummand, fs: Sequence[int], sms_f: Sequence[SyntomicSummand]
) -> list[int] | None:
    """Closed-form p-valuations of the transition maps into truncation e
    from each source f of fs (f >= e) on one orbit, given the orbit's
    summand at e and at each source.

    Returns None in the degenerate case s_e = 0 or e | m, where the target
    group is trivial and every map is zero.  The unit factor is not
    tracked.

    The valuation tracks the generator coordinate at level s_e - 1, where
    both kernel generators are supported: the factorial-ratio valuation
    v_p(((m1-1)//e)! / ((m1-1)//f)!) with m1 = p^(s_e-1) m, plus the
    difference of ceiling exponents ceil(m1/e) - ceil(m1/f), plus the
    source generator's scaling at level s_e - 1 (s_f >= s_e), the sum of
    the level-f degree-1 exponents over j in [s_e, s_f).  Starting that sum
    one step earlier would double count the j = s_e - 1 term, as the
    brute-force oracle confirms.  The target's terms, m1, ceil(m1/e) and
    v_p(((m1-1)//e)!), are read once; each source adds its own by
    Legendre's formula (`vp_factorial`), without forming the ratio.
    """
    if len(fs) != len(sms_f):
        raise ValueError(f"{len(fs)} sources but {len(sms_f)} summands")
    m, s_e = sm_e.orbit.m, sm_e.s
    if s_e == 0 or m % e == 0:
        return None
    m1 = p ** (s_e - 1) * m
    base = vp_factorial((m1 - 1) // e, p) + ceil_div(m1, e)
    out = []
    for f, sm_f in zip(fs, sms_f):
        if f < e:
            raise ValueError(f"need f >= e, got e={e}, f={f}")
        out.append(base - vp_factorial((m1 - 1) // f, p) - ceil_div(m1, f) + sm_f.generator_exponents[sm_f.s - s_e])
    return out


def tr_valuation(params: TruncationParams, f: int, orbit: Orbit) -> int | None:
    """Transition valuation from truncation f down to e = params.e on one
    orbit, in weight i = params.i: the one-source case of
    `transition_valuations`, reading both levels' summands from the
    summand cache, the target's through `h1_syntomic_orbit(params, orbit)`
    and the source's by plain ints (`level_summand`), so no
    `TruncationParams` is built.  None when the target group is trivial."""
    p, e, i = params.p, params.e, params.i
    if f < e:
        raise ValueError("need f >= e")
    if e % p == 0 or f % p == 0:
        raise ValueError("levels must be coprime to p")
    sm_e = h1_syntomic_orbit(params, orbit)
    sm_f = level_summand(p, f, i, orbit)
    vs = transition_valuations(p, e, sm_e, (f,), (sm_f,))
    return None if vs is None else vs[0]


def image_exponent(h_f: int, h_e: int, v: int) -> int:
    """Image of a valuation-v map Z/p^h_f -> Z/p^h_e: the subgroup
    p^min(v, h_e) Z/p^h_e.  Rejects maps that are not well defined;
    `stabilized_images` makes the same check inline, with the same error."""
    if v + h_f < h_e:
        raise ValueError(f"map with v={v} from h={h_f} to h={h_e} is not well defined")
    return min(v, h_e)


def ml_bound(params: TruncationParams, m: int) -> int:
    """Smallest level f0 >= e coprime to p beyond which transition images
    into level e are guaranteed constant, uniformly in the multi-index.

    Both sufficient conditions -- ceil(p^(2s) m / f) = 1 and
    floor((p^s m - 1)/f) = 0, with s taken at the empty multi-index --
    reduce to f >= p^(2s) m.  See `_ml_bounds`, the same bound on plain
    ints, which the sweep reads for all the levels of a tower at once.
    """
    if params.e % params.p == 0:
        raise ValueError("level must be coprime to p")
    if m < 1:
        raise ValueError("ml_bound needs m >= 1")
    return _ml_bounds(params.p, params.i, m, (params.e,))[0]


def _ml_bounds(p: int, i: int, m: int, levels: Sequence[int]) -> list[int]:
    """`ml_bound` in weight i at each level of the ascending `levels`, for
    levels coprime to p and m >= 1, as the caller has checked (at m = 0 the
    count of s would never end).

    s needs no walk: at the empty multi-index the degree-1 exponent
    d_a = i - ceil(p^a m / e) is >= 0 exactly when p^a m <= i e, and
    ceil(p^a m / e) increases with a, so s = #{a >= 0 : p^a m <= i e}.
    That count never falls as e grows, so each level carries it on from
    the level before instead of counting again from a = 0.
    """
    out = []
    pm, top = m, m  # p^s m and p^(2s) m at the s counted so far
    for e in levels:
        while pm <= i * e:
            pm, top = pm * p, top * p * p
        f = max(e, top)
        while f % p == 0:
            f += 1
        out.append(f)
    return out


@dataclass(frozen=True)
class Tower:
    """One orbit's summands over an ascending window of levels coprime to p."""

    p: Prime
    weight: int
    orbit: Orbit
    levels: tuple[int, ...]
    summands: tuple[SyntomicSummand, ...]  # one per level


def _tower_args(p: int, weight: int, levels: list[int]) -> tuple[Prime, tuple[int, ...]]:
    """p as a checked `Prime` and the levels sorted, after the checks on the levels and the weight."""
    p = Prime(p)
    levels = tuple(sorted(levels))
    if any(lv % p == 0 for lv in levels):
        raise ValueError("levels must be coprime to p")
    if levels and levels[0] < 1:
        raise ValueError("truncation exponent e must be >= 1")
    if weight < 0:
        raise ValueError("weight i must be a natural number")
    return p, levels


def build_tower(p: int, weight: int, orbit: Orbit, levels: list[int]) -> Tower:
    """One orbit's summands at the levels, sorted, from one walk."""
    p, levels = _tower_args(p, weight, levels)
    return Tower(p, weight, orbit, levels, tuple(orbit_summands(p, weight, orbit, levels)))


def nontrivial_towers(p: int, weight: int, bounds: AlphaBounds, levels: list[int]) -> list[Tower]:
    """The towers of the window's orbits with a nontrivial group at some
    level, in (m, alpha) order, one walk each; weights below 1 have none."""
    p, levels = _tower_args(p, weight, levels)
    orbits = nontrivial_orbits(p, weight, bounds, levels)
    return [Tower(p, weight, orbit, levels, tuple(summands)) for orbit, summands in orbits]


class LevelStabilization(NamedTuple):
    """Image data at one target level: the probed image exponents, the
    last of them, where they became constant, and whether the theoretical
    bound was inside the probe window.  On a certified level the last
    image is the exact stable one; on any other it is the probe's.

    A tuple-backed, immutable record: the sweep builds one per level.
    """

    level: int
    h: int
    ml_bound: int
    images: tuple[int, ...]  # image exponent per probed source level
    sources: tuple[int, ...]
    stabilized: int          # image exponent at the last probed source
    ml_index: int            # first probed source from which images are constant
    certified: bool          # probe reached ml_bound

    @property
    def image_order_exponent(self) -> int:
        return self.h - self.stabilized


@dataclass(frozen=True)
class StabilizedTower:
    tower: Tower
    per_level: tuple[LevelStabilization, ...]


def stabilized_images(tower: Tower, probe: int) -> StabilizedTower:
    """Sweep sources f up to the probe bound for every level of the tower
    and record where images settle.

    Every source is read from the tower, whose levels must be every level
    coprime to p from its least one up to the probe, and whose orbit must
    be valid for p (else ValueError); both are checked once per tower.
    Sources start at level 2, so level 1 is not its own source.

    A level is certified when the probe reaches its theoretical bound; on
    certified levels any image change at or past the bound raises
    MLViolationError (with the witness pair), since stabilization there is
    a theorem.

    The tower's group exponents h are read once into a list.  Per target
    level e, what does not depend on the source f is read once: h_e and
    the bound (`_ml_bounds` on plain ints, one pass over the levels).  A
    trivial level, h_e = 0 (which covers the degenerate case s_e = 0 or
    e | m), has zero maps and all images trivial: it takes a short path
    that builds nothing per source.  Every other level makes one
    `transition_valuations` call over all its sources, and each pair is
    checked to be a well-defined map (the check of `image_exponent`, with
    its ValueError) as its image is read.
    """
    p, i, m = tower.p, tower.weight, tower.orbit.m
    levels, summands = tower.levels, tower.summands
    if not levels or levels != tuple(f for f in range(levels[0], probe + 1) if f % p):
        raise ValueError(f"tower levels {levels} are not every level coprime to p up to {probe}")
    tower.orbit.validate(p)
    hs = [sm.module.h for sm in summands]
    bounds = _ml_bounds(p, i, m, levels)
    out = []
    for k, (e, sm_e, h, bound) in enumerate(zip(levels, summands, hs, bounds)):
        first = k + 1 if e == 1 else k  # sources start at level 2
        sources = levels[first:]
        n = len(sources)
        certified = n > 0 and sources[-1] >= bound
        if h == 0:
            # zero maps: every image is trivial, so the trailing run is all n of them
            ml_index = sources[0] if n else e
            out.append(LevelStabilization(e, 0, bound, (0,) * n, sources, 0, ml_index, certified))
            continue
        vals = transition_valuations(p, e, sm_e, sources, summands[first:])
        images = []
        for h_f, v in zip(hs[first:], vals):
            if v + h_f < h:
                raise ValueError(f"map with v={v} from h={h_f} to h={h} is not well defined")
            images.append(v if v < h else h)
        stabilized = images[-1] if n else h
        run = n - 1
        while run > 0 and images[run - 1] == stabilized:
            run -= 1
        # images[run:] is the trailing constant run, and sources[run - 1]
        # the last source whose image differs from the eventual one
        ml_index = sources[run] if n else e
        if certified and run > 0 and sources[run - 1] >= bound:
            witness = next(f for f, img in zip(sources, images) if f >= bound and img != stabilized)
            raise MLViolationError(f"images changed past the bound at level e={e}: witness f={witness}")
        out.append(LevelStabilization(e, h, bound, tuple(images), sources, stabilized, ml_index, certified))
    return StabilizedTower(tower, tuple(out))


@dataclass(frozen=True)
class ProCyclicLimit:
    """The inverse limit of one orbit's tower, as `orbit_limit` decides it.

    kind is "finite" (limit W(k)/p^h) or "zp" (limit W(k), pro-cyclic of
    unbounded order, with h None).  The verdict is a theorem about the
    whole tower, not a reading of a probe window.  lim^1 vanishes because
    every tower is Mittag-Leffler past its proven bound (`ml_bound`), so
    `lim1_zero` is a constant.
    """

    kind: str
    h: int | None
    lim1_zero = True


def orbit_limit(p: int, weight: int, orbit: Orbit) -> ProCyclicLimit:
    """The inverse limit over the levels e of one orbit's tower in the
    given weight, read off the orbit alone:

    - empty alpha in weight 1: W(k) ("zp");
    - empty alpha in any other weight: 0 ("finite", h = 0);
    - nonempty alpha: W(k)/p^S ("finite", h = S), where S = S_alpha is the
      least a with floor_l1(p^a alpha) >= weight.

    Proof.  Write i for the weight, L_a = floor_l1(p^a alpha), and
    d_a = i - ceil(p^a m / e) - L_a for the degree-1 walk at level e, of
    length s_e (`drw.degree1_walks`).  d_a never falls as e grows, so s_e
    never falls.  As e is prime to p, h_e = v_p(brace(p^s_e m, e)) is s_e,
    or 0 when e | m; e | m only at the finitely many levels e <= m, which
    the limit does not see.  Past f0 = `ml_bound(e)` every image into
    level e is the same (the Mittag-Leffler bound), so the limit is that of
    the stable images W(k)/p^(o_e), o_e = h_e - min(v, h_e), with v the
    valuation of the map from f0 to e; their maps are onto, so the limit is
    W(k)/p^o when o_e settles at o and W(k) when o_e is unbounded.

    For s_e >= 1 and e not dividing m, `transition_valuations` gives, with
    m1 = p^(s_e - 1) m,
        v = [v_p(((m1-1)//e)!) + ceil(m1/e)] - [v_p(((m1-1)//f0)!) + ceil(m1/f0)]
            + sum of d_j at level f0 over j in [s_e, s_f0).
    The first bracket is at least the second, since e <= f0; both are 1
    when m1 <= e.  Every summand is >= 0, being a step of the f0 walk.

    Empty alpha, weight 1: d_a >= 0 exactly when p^a m <= e, so
    s_e = #{a : p^a m <= e} and m1 <= e; the brackets cancel, and each
    d_j at f0 with j < s_f0 has p^j m <= f0, so it is 1 - 1 = 0.  Hence
    v = 0 and o_e = h_e, which is s_e for e > m and grows without bound.

    Empty alpha, weight i >= 2: s_e = #{a : p^a m <= i e}, the s that
    `ml_bound` counts, so f0 >= p^(2 s_e) m.  For j <= 2 s_e, p^j m <= f0,
    so d_j = i - 1 >= 1 at f0, and j < s_f0.  Hence v >= s_e + 1 > h_e and
    o_e = 0; this holds whether m1 <= e or not, since the brackets only
    add.  A level with s_e = 0 or e | m is trivial, so o_e = 0 there too.
    In weight 0, d_0 = -ceil(m/e) < 0, so every level is trivial.

    Nonempty alpha: L_a is unbounded and never falls, so S exists, and for
    a >= S, d_a <= i - 1 - L_a < 0, so s_e <= S and h_e <= S at every
    level.  Let e* be the least level prime to p with
    e* >= max(m + 1, p^(S-1) m).  For e >= e*, ceil(p^a m / e) = 1 for
    every a < S, so d_a = i - 1 - L_a, which is >= 0 exactly when a < S:
    s_e = S, and h_e = S since e > m.  The same holds at f0 >= e, so
    s_f0 = S and the sum is empty; m1 = p^(S-1) m <= e, so the brackets
    cancel.  Hence v = 0 and o_e = S for every e >= e*.  When S = 0 every
    level is trivial.
    """
    orbit.validate(p)
    alpha = orbit.alpha
    if not alpha.entries:
        return ProCyclicLimit("zp", None) if weight == 1 else ProCyclicLimit("finite", 0)
    S = 0
    while alpha.floor_l1(p, S) < weight:
        S += 1
    return ProCyclicLimit("finite", S)


def limit_classify(stab: StabilizedTower) -> ProCyclicLimit:
    """The limit of a swept tower: `orbit_limit` of its orbit."""
    return orbit_limit(stab.tower.p, stab.tower.weight, stab.tower.orbit)


@dataclass(frozen=True)
class OddZeroCertificate:
    """Vanishing certificate for one odd TR degree.  Every tower is
    Mittag-Leffler past its proven bound f0 = `ml_bound(e)`, so its lim^1
    is zero and the odd group receives no contribution; this rests on that
    theorem, not on the probe, which only bounds the window of `orbits`
    listed beside it.  `zero` and `lim1_zero` are constants."""

    degree: int
    probe: int
    orbits: int
    zero = True
    lim1_zero = True


@dataclass(frozen=True)
class TRGroups:
    """Homotopy of TR in one even degree and the odd degree below it.

    Degree 2i is assembled from the weight i+1 towers (the loop shift in
    the curves description of TR); `weight` is read off the degree, so the
    two cannot disagree.  even pairs each orbit with its limit.  The m = 1
    slice is the p-typical summand under the standard curves indexing of
    the product decomposition over I_p.
    """

    p: int
    degree: int
    even: tuple[tuple[Orbit, ProCyclicLimit], ...]
    odd: OddZeroCertificate

    @property
    def weight(self) -> int:
        return self.degree // 2 + 1


def tr_groups(p: int, i: int, bounds: AlphaBounds, probe: int) -> TRGroups:
    """TR in degrees 2i and 2i-1 of the prototype algebra with multi-index
    slots and numerator sizes limited by bounds, over the orbits with a
    nontrivial group at some level up to probe.

    Each orbit's limit is `orbit_limit`, the same at every probe.  A probe
    with no level in [2, probe] coprime to p has an empty window, so it
    raises ValueError instead of certifying an empty list.
    """
    weight = i + 1
    levels = [e for e in range(2, probe + 1) if e % p]
    if not levels:
        raise ValueError(f"no level in [2, {probe}] is coprime to p={p}; raise the probe")
    towers = nontrivial_towers(p, weight, bounds, levels)
    even = tuple((tower.orbit, orbit_limit(tower.p, weight, tower.orbit)) for tower in towers)
    return TRGroups(p, 2 * i, even, OddZeroCertificate(2 * i - 1, probe, len(towers)))
