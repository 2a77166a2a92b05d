"""Towers of degree-1 cohomology groups over the truncation exponent e,
their transition valuations, Mittag-Leffler stabilization of images, and
the classification of inverse limits.

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
light, tuple-backed `LevelStabilization`; whether a level is settled is
decided once there, and a trivial level (h = 0) takes a short path that
computes nothing per source.  The summand cache, keyed on plain ints and
the orbit (`syntomic.level_summand`), serves the pair queries of
`tr_valuation`, which builds no `TruncationParams`.
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
    """The probe window is too short to tell a finite limit from one that
    is still growing.  `orders` holds the image orders the refusal was
    drawn from."""

    def __init__(self, message: str, orders: tuple[int, ...]) -> None:
        super().__init__(message)
        self.orders = orders


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
    eventual value, where they settled, whether the theoretical bound was
    inside the probe window, and whether the level feeds the limit
    classification.

    A tuple-backed, immutable record: the sweep builds one per level.
    `settled` is decided once, by the sweep, from the trailing constant
    run of images it already finds: the level is certified, or its last
    three images are equal.  Only settled levels feed `limit_classify`.
    """

    level: int
    h: int
    ml_bound: int
    images: tuple[int, ...]  # image exponent per probed source level
    sources: tuple[int, ...]
    stabilized: int          # eventual image exponent
    ml_index: int            # first probed source from which images are constant
    certified: bool          # probe reached ml_bound
    settled: bool            # certified, or the last three images are equal

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
    a theorem.  A level is settled when it is certified or its trailing
    constant run of images is at least three long; the sweep decides this
    once, into the record's `settled` field.

    The tower's group exponents h are read once into a list.  Per target
    level e, what does not depend on the source f is read once: h_e and
    the bound (`_ml_bounds` on plain ints, one pass over the levels).  A
    trivial level, h_e = 0 (which covers the degenerate case s_e = 0 or
    e | m), has zero maps and all images trivial: it takes a short path
    that scans no run and builds nothing per source.  Every other level
    makes one `transition_valuations` call over all its sources, and each
    pair is checked to be a well-defined map (the check of
    `image_exponent`, with its ValueError) as its image is read.
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
            settled = certified or n >= 3
            out.append(LevelStabilization(e, 0, bound, (0,) * n, sources, 0, ml_index, certified, settled))
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
        settled = certified or n - run >= 3
        out.append(LevelStabilization(e, h, bound, tuple(images), sources, stabilized, ml_index, certified, settled))
    return StabilizedTower(tower, tuple(out))


@dataclass(frozen=True)
class ProCyclicLimit:
    """Classification of the inverse limit of a tower of stabilized images.

    kind is "finite" (limit W(k)/p^h) or "zp" (pro-cyclic of unbounded
    order, W(k)-full at probe scale).  The verdict is a probe-scale
    judgment over the recorded evidence window, not a theorem.  lim^1
    vanishes for every Mittag-Leffler tower of finite groups, which the
    stabilization step has already verified, so `lim1_zero` is a constant.
    """

    kind: str
    h: int | None
    ml_index: int
    evidence: tuple[int, ...]
    lim1_zero = True


ZPFULL_RUN = 8
STABLE_WINDOW = 6


def classify_orders(orders: tuple[int, ...], ml_index: int) -> ProCyclicLimit:
    """Classify a nondecreasing sequence of image-order exponents indexed
    by ascending level.

    Constant everywhere, or constant over the trailing STABLE_WINDOW
    orders, reads as a finite limit; a trailing run of at least ZPFULL_RUN
    strict increases reads as pro-cyclic of unbounded order.  Anything in
    between refuses, since the probe cannot tell slow growth from eventual
    stabilization.
    """
    if not orders:
        return ProCyclicLimit("finite", 0, ml_index, ())
    if all(o == orders[0] for o in orders):
        return ProCyclicLimit("finite", orders[0], ml_index, orders)
    tail = orders[-STABLE_WINDOW:]
    if len(tail) == STABLE_WINDOW and all(o == tail[0] for o in tail):
        return ProCyclicLimit("finite", tail[0], ml_index, orders)
    tail = orders[-(ZPFULL_RUN + 1):]
    if len(tail) == ZPFULL_RUN + 1 and all(a < b for a, b in zip(tail, tail[1:])):
        return ProCyclicLimit("zp", None, ml_index, orders)
    raise ClassificationRefusedError(
        f"probe too short to classify: image orders {orders} still changing", orders
    )


def limit_classify(stab: StabilizedTower) -> ProCyclicLimit:
    """Inverse limit of the stabilized-image tower; restricted transitions
    are surjective, so the limit is pro-cyclic and lim^1 vanishes."""
    settled = [rec for rec in stab.per_level if rec.settled]
    orders = tuple(rec.image_order_exponent for rec in settled)
    ml_index = max((rec.ml_index for rec in settled), default=stab.tower.levels[0])
    return classify_orders(orders, ml_index)


@dataclass(frozen=True)
class RefusedClassification:
    """Recorded in place of a verdict when the probe is too short; carries
    the evidence window so the caller can widen the probe and retry."""

    reason: str
    evidence: tuple[int, ...]


@dataclass(frozen=True)
class OddZeroCertificate:
    """Vanishing certificate for one odd TR degree: every probed tower
    satisfied the Mittag-Leffler check, so the derived-limit obstruction
    is zero and the odd group receives no contribution.  A tower that fails
    the check raises instead, so `zero` and `lim1_zero` are constants."""

    degree: int
    probe: int
    orbits_checked: int
    zero = True
    lim1_zero = True


@dataclass(frozen=True)
class TRGroups:
    """Homotopy of TR in one even degree and the odd degree below it.

    Degree 2i is assembled from the weight i+1 towers (the loop shift in
    the curves description of TR); `weight` is read off the degree, so the
    two cannot disagree.  even pairs each orbit with its limit verdict or a
    refusal.  The m = 1 slice is the p-typical summand under the standard
    curves indexing of the product decomposition over I_p.
    """

    p: int
    degree: int
    even: tuple[tuple[Orbit, ProCyclicLimit | RefusedClassification], ...]
    odd: OddZeroCertificate

    @property
    def weight(self) -> int:
        return self.degree // 2 + 1

    @property
    def refused(self) -> bool:
        return any(isinstance(res, RefusedClassification) for _, res in self.even)


def tr_groups(p: int, i: int, bounds: AlphaBounds, probe: int) -> TRGroups:
    """TR in degrees 2i and 2i-1 of the prototype algebra with multi-index
    slots and numerator sizes limited by bounds, probed over truncation
    levels up to probe.

    Every enumerated orbit is run through the stabilization check, so a
    returned result always carries a valid odd-degree zero certificate;
    classification refusals on the even side are recorded, not raised.
    A probe with no level in [2, probe] coprime to p checks nothing, so it
    raises ValueError instead of certifying from no evidence.
    """
    weight = i + 1
    levels = [e for e in range(2, probe + 1) if e % p]
    if not levels:
        raise ValueError(f"no level in [2, {probe}] is coprime to p={p}; raise the probe")
    towers = nontrivial_towers(p, weight, bounds, levels)
    even = []
    for tower in towers:
        stab = stabilized_images(tower, probe)
        try:
            verdict: ProCyclicLimit | RefusedClassification = limit_classify(stab)
        except ClassificationRefusedError as exc:
            verdict = RefusedClassification(str(exc), exc.orders)
        even.append((tower.orbit, verdict))
    odd = OddZeroCertificate(degree=2 * i - 1, probe=probe, orbits_checked=len(towers))
    return TRGroups(p, 2 * i, tuple(even), odd)
