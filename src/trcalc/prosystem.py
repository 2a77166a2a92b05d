"""Towers of degree-1 cohomology groups over the truncation exponent e,
their transition valuations, Mittag-Leffler stabilization of images, and
the classification of inverse limits.

Levels range over the naturals coprime to p (cofinal among all e), ordered
by size, with one map tr_fe for every pair f >= e.  All group data is the
symbolic exponent h of W(k)/p^h; transition maps are recorded by their
p-valuation only, the unit factor being irrelevant to images and limits.

A tower's summands come from one walk over its levels
(`syntomic.orbit_summands`), which reads the orbit's alpha floors once for
all of them; `Tower.p` is a `padic.Prime`, checked once per tower.  The
summand cache of `h1_syntomic_orbit` serves the single-level pair queries
of `tr_valuation`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .drw import TruncationParams
from .padic import Prime, ceil_div, factorial_ratio, vp
from .syntomic import AlphaBounds, Orbit, SyntomicSummand, enumerate_orbits, h1_syntomic_orbit, orbit_summands


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


def transition_valuation(p: int, e: int, f: int, sm_e: SyntomicSummand, sm_f: SyntomicSummand) -> int | None:
    """Closed-form p-valuation of the transition map from truncation f down
    to e on one orbit, given the orbit's summands at both levels.

    Returns None in the degenerate case s_e = 0 or e | m, where the target
    group is trivial and the map is zero.  The unit factor is not tracked.

    The valuation tracks the generator coordinate at level s_e - 1, where
    both kernel generators are supported: factorial-ratio valuation, plus
    the difference of ceiling exponents at j = s_e - 1, plus the source
    generator's scaling at level s_e - 1 (s_f >= s_e), the sum of the
    level-f degree-1 exponents over j in [s_e, s_f).  Starting that sum one
    step earlier would double count the j = s_e - 1 term, as the
    brute-force oracle confirms.
    """
    m = sm_e.orbit.m
    if sm_e.s == 0 or m % e == 0:
        return None
    m1 = p ** (sm_e.s - 1) * m
    v = vp(factorial_ratio((m1 - 1) // e, (m1 - 1) // f), p)
    v += ceil_div(m1, e) - ceil_div(m1, f)
    return v + sm_f.generator_exponents[sm_f.s - sm_e.s]


def tr_valuation(params: TruncationParams, f: int, orbit: Orbit) -> int | None:
    """Transition valuation from truncation f down to e = params.e on one
    orbit, in weight i = params.i (see transition_valuation), reading both
    levels' summands from the summand cache."""
    p, e, i = params.p, params.e, params.i
    if f < e:
        raise ValueError("need f >= e")
    if e % p == 0 or f % p == 0:
        raise ValueError("levels must be coprime to p")
    sm_e = h1_syntomic_orbit(params, orbit)
    sm_f = h1_syntomic_orbit(TruncationParams(p, f, i), orbit)
    return transition_valuation(p, e, f, sm_e, sm_f)


def image_exponent(h_f: int, h_e: int, v: int) -> int:
    """Image of a valuation-v map Z/p^h_f -> Z/p^h_e: the subgroup
    p^min(v, h_e) Z/p^h_e.  Rejects maps that are not well defined."""
    if v + h_f < h_e:
        raise ValueError(f"map with v={v} from h={h_f} to h={h_e} is not well defined")
    return min(v, h_e)


def ml_bound(params: TruncationParams, m: int) -> int:
    """Smallest level f0 >= e coprime to p beyond which transition images
    into level e are guaranteed constant, uniformly in the multi-index.

    Both sufficient conditions -- ceil(p^(2s) m / f) = 1 and
    floor((p^s m - 1)/f) = 0, with s taken at the empty multi-index --
    reduce to f >= p^(2s) m.

    s needs no walk: at the empty multi-index the degree-1 exponent
    d_a = i - ceil(p^a m / e) is >= 0 exactly when p^a m <= i e, and
    ceil(p^a m / e) increases with a, so s = #{a >= 0 : p^a m <= i e}.
    """
    p, e = params.p, params.e
    if e % p == 0:
        raise ValueError("level must be coprime to p")
    if m < 1:
        raise ValueError("ml_bound needs m >= 1")
    s, pm = 0, m  # pm = p^s m
    while pm <= params.i * e:
        s, pm = s + 1, pm * p
    f = max(e, p**s * pm)
    while f % p == 0:
        f += 1
    return f


@dataclass(frozen=True)
class Tower:
    """One orbit's summands over an ascending window of levels coprime to
    p."""

    p: Prime
    weight: int
    orbit: Orbit
    levels: tuple[int, ...]
    summands: tuple[SyntomicSummand, ...]  # one per level


def build_tower(p: int, weight: int, orbit: Orbit, levels: list[int]) -> Tower:
    """One orbit's summands at the levels, sorted, from one walk."""
    p = Prime(p)
    levels = sorted(levels)
    if any(lv % p == 0 for lv in levels):
        raise ValueError("levels must be coprime to p")
    if levels and levels[0] < 1:
        raise ValueError("truncation exponent e must be >= 1")
    if weight < 0:
        raise ValueError("weight i must be a natural number")
    return Tower(p, weight, orbit, tuple(levels), tuple(orbit_summands(p, weight, orbit, levels)))


@dataclass(frozen=True)
class LevelStabilization:
    """Image data at one target level: the probed image exponents, the
    eventual value, where they settled, and whether the theoretical bound
    was inside the probe window."""

    level: int
    h: int
    ml_bound: int
    images: tuple[int, ...]  # image exponent per probed source level
    sources: tuple[int, ...]
    stabilized: int          # eventual image exponent
    ml_index: int            # first probed source from which images are constant
    certified: bool          # probe reached ml_bound

    @property
    def image_order_exponent(self) -> int:
        return self.h - self.stabilized

    @property
    def settled(self) -> bool:
        """Certified, or images constant over the trailing probe window;
        only settled levels feed the limit classification."""
        if self.certified:
            return True
        tail = self.images[-3:]
        return len(tail) == 3 and all(img == tail[0] for img in tail)


@dataclass(frozen=True)
class StabilizedTower:
    tower: Tower
    per_level: tuple[LevelStabilization, ...]


def stabilized_images(tower: Tower, probe: int) -> StabilizedTower:
    """Sweep sources f up to the probe bound for every level of the tower
    and record where images settle.

    A level is certified when the probe reaches its theoretical bound; on
    certified levels any image change at or past the bound raises
    MLViolationError (with the witness pair), since stabilization there is
    a theorem.  The tower's summands are reused, and the probed levels the
    tower lacks get theirs from one more walk.

    Per target level e, what does not depend on the source f is read once:
    h_e, the bound, and the degenerate case h_e = 0 (s_e = 0 or e | m),
    whose images are all trivial.  Every other pair goes through
    `transition_valuation` and `image_exponent`.
    """
    p, m = tower.p, tower.orbit.m
    out = []
    probed = [f for f in range(2, probe + 1) if f % p]
    by_level = dict(zip(tower.levels, tower.summands))
    missing = [f for f in probed if f not in by_level]
    by_level.update(zip(missing, orbit_summands(p, tower.weight, tower.orbit, missing)))
    probed_summands = [by_level[f] for f in probed]
    for e, sm_e in zip(tower.levels, tower.summands):
        h = sm_e.module.h
        bound = ml_bound(TruncationParams(p, e, tower.weight), m)
        first = bisect_left(probed, e)
        sources = probed[first:]
        if h == 0:
            images = [h] * len(sources)  # zero maps: trivial images
        else:
            images = [
                image_exponent(sm_f.module.h, h, transition_valuation(p, e, f, sm_e, sm_f))
                for f, sm_f in zip(sources, probed_summands[first:])
            ]
        certified = bool(sources) and sources[-1] >= bound
        if certified:
            past = [img for f, img in zip(sources, images) if f >= bound]
            if any(img != past[-1] for img in past):
                bad = next(f for f, img in zip(sources, images) if f >= bound and img != past[-1])
                raise MLViolationError(
                    f"images changed past the bound at level e={e}: witness f={bad}"
                )
        stabilized = images[-1] if images else h
        ml_index = sources[0] if sources else e
        for f, img in zip(reversed(sources), reversed(images)):
            if img != stabilized:
                break
            ml_index = f
        out.append(
            LevelStabilization(
                level=e,
                h=h,
                ml_bound=bound,
                images=tuple(images),
                sources=tuple(sources),
                stabilized=stabilized,
                ml_index=ml_index,
                certified=certified,
            )
        )
    return StabilizedTower(tower, tuple(out))


@dataclass(frozen=True)
class ProCyclicLimit:
    """Classification of the inverse limit of a tower of stabilized images.

    kind is "finite" (limit W(k)/p^h) or "zp" (pro-cyclic of unbounded
    order, W(k)-full at probe scale).  The verdict is a probe-scale
    judgment over the recorded evidence window, not a theorem.  lim^1
    vanishes for every Mittag-Leffler tower of finite groups, which the
    stabilization step has already verified.
    """

    kind: str
    h: int | None
    ml_index: int
    evidence: tuple[int, ...]
    lim1_zero: bool = True


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
    ml_index = max(
        (rec.ml_index for rec in settled),
        default=stab.tower.levels[0] if stab.tower.levels else 0,
    )
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
    is zero and the odd group receives no contribution."""

    degree: int
    probe: int
    orbits_checked: int
    zero: bool = True
    lim1_zero: bool = True


@dataclass(frozen=True)
class TRGroups:
    """Homotopy of TR in one even degree and the odd degree below it.

    Degree 2i is assembled from the weight i+1 towers (the loop shift in
    the curves description of TR); the weight is recorded to prevent
    off-by-one misuse.  even pairs each orbit with its limit verdict or a
    refusal.  The m = 1 slice is the p-typical summand under the standard
    curves indexing of the product decomposition over I_p.
    """

    p: int
    degree: int
    weight: int
    even: tuple[tuple[Orbit, ProCyclicLimit | RefusedClassification], ...]
    odd: OddZeroCertificate

    @property
    def refused(self) -> bool:
        return any(isinstance(res, RefusedClassification) for _, res in self.even)


def tower_orbits(p: int, weight: int, bounds: AlphaBounds, levels: list[int]) -> list[Orbit]:
    """Every orbit with a nontrivial group at some level, in (m, alpha)
    order; weights below 1 have none."""
    orbits: set[Orbit] = set()
    if weight >= 1:
        for e in levels:
            params = TruncationParams(p, e, weight)
            orbits.update(sm.orbit for sm in enumerate_orbits(params, bounds))
    return sorted(orbits, key=lambda o: o.sort_key())


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
    orbits = tower_orbits(p, weight, bounds, levels)
    even = []
    for orbit in orbits:
        tower = build_tower(p, weight, orbit, levels)
        stab = stabilized_images(tower, probe)
        try:
            verdict: ProCyclicLimit | RefusedClassification = limit_classify(stab)
        except ClassificationRefusedError as exc:
            verdict = RefusedClassification(str(exc), exc.orders)
        even.append((orbit, verdict))
    odd = OddZeroCertificate(degree=2 * i - 1, probe=probe, orbits_checked=len(orbits))
    return TRGroups(p, 2 * i, weight, tuple(even), odd)
