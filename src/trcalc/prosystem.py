"""Towers of degree-1 cohomology groups over the truncation exponent e,
their transition valuations, Mittag-Leffler stabilization of images, and
their inverse limits.

Levels range over the naturals coprime to p (cofinal among all e), ordered
by size, with one map tr_fe for every pair f >= e.  All group data is the
symbolic exponent h of W(k)/p^h; transition maps are recorded by their
p-valuation only, the unit factor being irrelevant to images and limits.

Towers take p, the levels, the weight and m as plain ints, checked once
per tower (`Tower.p` is a `padic.Prime`), and build no `TruncationParams`.
`stabilized_images` sweeps a tower's sources up to a probe.  `ml_rows` and
`transition_rows` are the rows `ml-check` and `transition` print.  There
is one pair rule: every valuation that `tr_valuation`, the sweep,
`ml_rows` and `transition_rows` read is one target term minus one source
term (`target_term`, `source_term`).  `image_exponents` is the reference
image rule: `ml_rows` and `transition_rows` call it, every error of the
sweep comes from it, and the sweep reads the same rule off per-block
tables of source terms instead of building an image list per level.

A tower's inverse limit is not read off a probe: `orbit_limit` decides it
from the orbit and the weight alone, by three proven cases.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress, takewhile
from typing import Iterator, NamedTuple, Sequence

from .drw import TruncationParams
from .padic import Prime, ceil_div, vp_factorial
from .syntomic import (
    AlphaBounds,
    Orbit,
    SyntomicSummand,
    enumerate_orbits,
    h1_syntomic_orbit,
    level_summand,
    nontrivial_orbits,
    orbit_summands,
)


class MLViolationError(Exception):
    """Images failed to stabilize where theory says they must; indicates a
    bug, not expected behavior."""


class ClassificationRefusedError(Exception):
    """Never raised, since `orbit_limit` decides every limit; `bench/workloads.py` catches it."""


def _pinned_weight(p: int, e: int, sm_e: SyntomicSummand) -> int | None:
    """m1 = p^(s_e - 1) m, the x-weight of the orbit level s_e - 1 at which
    every map into level e is read, from the target's summand; None in the
    degenerate case s_e = 0 or e | m, where the target group is trivial
    and every map is zero."""
    s_e = sm_e.s
    if s_e == 0 or sm_e.orbit.m % e == 0:
        return None
    return p ** (s_e - 1) * sm_e.orbit.m


def target_term(p: int, e: int, m1: int) -> int:
    """The target's term of every transition valuation into level e:
    v_p(((m1-1)//e)!) + ceil(m1/e), with m1 = p^(s_e - 1) m."""
    return vp_factorial((m1 - 1) // e, p) + ceil_div(m1, e)


def source_term(p: int, s_e: int, m1: int, f: int, sm_f: SyntomicSummand) -> int:
    """The term of source f, with summand sm_f, that its transition
    valuation into a level with stopping level s_e subtracts from the
    target's term: v_p(((m1-1)//f)!) + ceil(m1/f) - c, with
    m1 = p^(s_e - 1) m and c the source generator's scaling at level
    s_e - 1 (s_f >= s_e), the sum of the level-f degree-1 exponents over
    j in [s_e, s_f).  It reads the target only through s_e, so along one
    tower it is the same for every target level with the same s_e."""
    return vp_factorial((m1 - 1) // f, p) + ceil_div(m1, f) - sm_f.generator_exponents[sm_f.s - s_e]


def tr_valuation(params: TruncationParams, f: int, orbit: Orbit) -> int | None:
    """Closed-form p-valuation of the transition map from truncation f down
    to e = params.e on one orbit, in weight i = params.i; None in the
    degenerate case s_e = 0 or e | m, where the target group is trivial
    and the map is zero.  The unit factor is not tracked.

    The valuation tracks the generator coordinate at level s_e - 1, where
    both kernel generators are supported: the factorial-ratio valuation
    v_p(((m1-1)//e)! / ((m1-1)//f)!) with m1 = p^(s_e-1) m, plus the
    difference of ceiling exponents ceil(m1/e) - ceil(m1/f), plus the
    source generator's scaling at level s_e - 1 (s_f >= s_e), the sum of
    the level-f degree-1 exponents over j in [s_e, s_f).  Starting that sum
    one step earlier would double count the j = s_e - 1 term, as the
    brute-force oracle confirms.  It is the target's term (`target_term`)
    minus the source's (`source_term`), both by Legendre's formula
    (`vp_factorial`), without forming the ratio: the one pair rule, which
    the sweep (`stabilized_images`), `ml_rows` and `transition_rows` apply
    the same way.  Both levels' summands come from the summand cache, the
    target's through `h1_syntomic_orbit(params, orbit)` and the source's by
    plain ints (`level_summand`), so no `TruncationParams` is built."""
    p, e, i = params.p, params.e, params.i
    if f < e:
        raise ValueError("need f >= e")
    if e % p == 0 or f % p == 0:
        raise ValueError("levels must be coprime to p")
    sm_e = h1_syntomic_orbit(params, orbit)
    m1 = _pinned_weight(p, e, sm_e)
    if m1 is None:
        return None
    return target_term(p, e, m1) - source_term(p, sm_e.s, m1, f, level_summand(p, f, i, orbit))


def image_exponents(h_e: int, hs_f: Sequence[int], vals: Sequence[int]) -> list[int]:
    """Images of the valuation-v maps Z/p^h_f -> Z/p^h_e, one per source,
    with hs_f and vals paired by source: the subgroup p^min(v, h_e) Z/p^h_e,
    read as its exponent min(v, h_e).  Rejects a map that is not well
    defined (v + h_f < h_e) with ValueError.  The reference image rule:
    `ml_rows` and `transition_rows` call it, and the sweep reads it off
    its block tables, calling it only to raise an error."""
    images = []
    for h_f, v in zip(hs_f, vals):
        if v + h_f < h_e:
            raise ValueError(f"map with v={v} from h={h_f} to h={h_e} is not well defined")
        images.append(v if v < h_e else h_e)
    return images


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
    the level before instead of counting again from a = 0, and so does the
    least f0 >= p^(2s) m prime to p; the bound is max(e, f0), since e is
    itself prime to p.
    """
    out = []
    pm, top = m, m  # p^s m and p^(2s) m at the s counted so far
    f0 = m + (m % p == 0)
    for e in levels:
        while pm <= i * e:
            pm, top = pm * p, top * p * p
            f0 = top + 1  # p divides top once s >= 1
        out.append(e if e > f0 else f0)  # max(e, f0), without the call
    return out


@dataclass(frozen=True)
class Tower:
    """One orbit's summands over an ascending window of levels coprime to p."""

    p: Prime
    weight: int
    orbit: Orbit
    levels: tuple[int, ...]
    summands: tuple[SyntomicSummand, ...]  # one per level


def _tower_args(p: int, weight: int, levels: Sequence[int]) -> tuple[Prime, tuple[int, ...]]:
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


def build_tower(p: int, weight: int, orbit: Orbit, levels: Sequence[int]) -> Tower:
    """One orbit's summands at the levels, sorted, from one walk."""
    p, levels = _tower_args(p, weight, levels)
    return Tower(p, weight, orbit, levels, tuple(orbit_summands(p, weight, orbit, levels)))


def nontrivial_towers(p: int, weight: int, bounds: AlphaBounds, levels: list[int]) -> list[Tower]:
    """The towers of the window's orbits with a nontrivial group at some
    level, in (m, alpha) order, one walk each; weights below 1 have none."""
    p, levels = _tower_args(p, weight, levels)
    return [build_tower(p, weight, orbit, levels) for orbit, _ in nontrivial_orbits(p, weight, bounds, levels)]


class LevelStabilization(NamedTuple):
    """Image data at one target level: the image exponent, the source from
    which images are constant, and whether the theoretical bound was inside
    the probe window.  From the sweep, the image is the one at the last
    probed source, exact on a certified level; from `ml_rows`, it is exact
    on every level.

    A tuple-backed, immutable record: the sweep builds one per level.
    """

    level: int
    h: int
    ml_bound: int
    stabilized: int  # image exponent
    ml_index: int    # first source from which images are constant
    certified: bool  # probe reached ml_bound

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

    The tower's group exponents h are read once into a list, and each
    level's bound by `_ml_bounds` on plain ints, one pass over the levels.
    A trivial level, h_e = 0 (the degenerate case s_e = 0 or e | m, which
    covers level 1), has zero maps, so every image is 0 = h_e and the
    constant run starts at its first source: the level itself, or level 2
    for level 1.  Its record is read off the level lists, with no work of
    its own.

    Every other level e reads each valuation as its target term
    b = `target_term` minus the source's term T_f = `source_term`, and its
    image as image_f = min(b - T_f, h_e), the reference rule
    `image_exponents`.  T_f depends on the target only through s_e, and s_e
    never falls along a tower, so the levels that share one s_e form a
    contiguous block.  When a block opens, the sweep computes T_f once
    over the sources of its first level, which run to the tower's last
    level, and with them three tables over those sources: the suffix
    minimum of h_f - T_f, the suffix maximum of T (kept negated, so that
    it ascends), and the start of the trailing run of T_last, the term of
    the last level.  Each level of the block reads them from its own first
    source on.  The readings are exact for any T, monotone or not:
    - every map into e is well defined iff the suffix minimum of h_f - T_f
      is >= h_e - b, as a map is well defined iff b - T_f + h_f >= h_e;
    - the stable image is the last one, sigma = min(b - T_last, h_e);
    - if sigma = h_e, image_f = h_e iff b - T_f >= h_e, that is
      T_f <= b - h_e, so the run starts at the first source from which
      the suffix maximum of T is <= b - h_e; that maximum never rises, so
      bisection finds it;
    - if sigma < h_e, image_f = sigma iff b - T_f = sigma (an image of h_e
      is not sigma, and any smaller one is b - T_f), that is T_f = T_last,
      so the run is the trailing run of T_last.
    So a block costs O(its sources) and a level O(log L), for L levels,
    with no list per level; as s_e <= log_p(i e / m) + 1, a tower has
    O(log L) blocks.  Only a level that fails the first test, or whose
    run starts past its bound on a certified level, builds its images,
    through `image_exponents`: that raises the ValueError of the first
    ill-defined map, or gives the MLViolationError its witness.
    """
    p, i, m = tower.p, tower.weight, tower.orbit.m
    levels, summands = tower.levels, tower.summands
    if not levels or levels != tuple(f for f in range(levels[0], probe + 1) if f % p):
        raise ValueError(f"tower levels {levels} are not every level coprime to p up to {probe}")
    tower.orbit.validate(p)
    hs = [sm.module.h for sm in summands]
    bounds = _ml_bounds(p, i, m, levels)
    # the trivial levels' records: image 0, run from the level itself
    stable, starts = [0] * len(levels), list(levels)
    certified = [levels[-1] >= bound for bound in bounds]
    if levels[0] == 1:  # sources start at level 2
        starts[0] = levels[1] if len(levels) > 1 else 1
        certified[0] = certified[0] and len(levels) > 1
    s_block = 0  # the s_e whose tables are held; no nontrivial level has s_e = 0
    for k in compress(range(len(levels)), hs):  # the nontrivial levels, each its own first source
        e, sm_e, h, bound = levels[k], summands[k], hs[k], bounds[k]
        if sm_e.s != s_block:
            s_block, first = sm_e.s, k
            m1 = _pinned_weight(p, e, sm_e)  # not None, as h > 0
            terms = [source_term(p, s_block, m1, f, sm_f) for f, sm_f in zip(levels[k:], summands[k:])]
            slack = list(accumulate(reversed([h_f - t for h_f, t in zip(hs[k:], terms)]), min))[::-1]
            neg_top = list(accumulate(reversed([-t for t in terms]), min))[::-1]
            t_last = terms[-1]
            last_run = len(terms) - len(list(takewhile(t_last.__eq__, reversed(terms))))
        base, j = target_term(p, e, m1), k - first  # j: e's first source in the block's tables
        stable[k] = sigma = min(base - t_last, h)
        run = bisect_left(neg_top, h - base, j) if sigma == h else max(last_run, j)
        if slack[j] < h - base or certified[k] and run > j and levels[first + run - 1] >= bound:
            images = image_exponents(h, hs[k:], [base - t for t in terms[j:]])
            witness = next(f for f, img in zip(levels[k:], images) if f >= bound and img != sigma)
            raise MLViolationError(f"images changed past the bound at level e={e}: witness f={witness}")
        starts[k] = levels[first + run]
    records = map(LevelStabilization._make, zip(levels, hs, bounds, stable, starts, certified))
    return StabilizedTower(tower, tuple(records))


def ml_rows(tower: Tower, probe: int) -> tuple[LevelStabilization, ...]:
    """One record per level of the tower with the exact stable image and
    ML index, read from the sweep (`stabilized_images`), which raises
    MLViolationError on a certified level whose images change past its
    bound.

    On a certified level the sweep's record is exact.  On any other with
    h > 0 both may lie past the probe.  Images into a level are constant
    from its bound on, so the stable image is the one at `ml_bound`; when
    it differs from the probe's, the ML index is the least source whose
    image has reached it, found by bisection over the integers past the
    probe, each read at the next level prime to p.  The bisection is sound
    because the valuation, `target_term` minus `source_term`, is
    nondecreasing in the source f, so images only shrink as the source
    grows, and the sources with the stable image are exactly those from
    the ML index on.  Each such level reads m1 and its target term once
    from the tower's summand; each past-probe source reads its term from
    `level_summand`, and its image goes through `image_exponents`, the
    sweep's image rule, so an ill-defined map raises ValueError there too.
    """
    p, i, orbit = tower.p, tower.weight, tower.orbit
    out = []
    for rec, sm_e in zip(stabilized_images(tower, probe).per_level, tower.summands):
        if rec.h and not rec.certified:
            m1 = _pinned_weight(p, rec.level, sm_e)  # not None, as h > 0
            base = target_term(p, rec.level, m1)

            def image_at(f: int) -> int:
                sm_f = level_summand(p, f, i, orbit)
                return image_exponents(rec.h, (sm_f.module.h,), (base - source_term(p, sm_e.s, m1, f, sm_f),))[0]

            exact = image_at(rec.ml_bound)
            if exact != rec.stabilized:
                # least integer past the probe whose next level maps onto the stable image
                past = range(probe + 1, rec.ml_bound)
                lo = past.start + bisect_left(past, exact, key=lambda f: image_at(f + (f % p == 0)))
                rec = rec._replace(stabilized=exact, ml_index=lo + (lo % p == 0))
        out.append(rec)
    return tuple(out)


def transition_rows(p: int, i: int, bounds: AlphaBounds, levels: Sequence[int]) -> Iterator[tuple]:
    """The maps into the target e = levels[0] from each later level f prime
    to p, for every orbit of the window nontrivial at e, in (m, alpha)
    order: one row (summand at e, f, h_f, valuation, image) per source,
    each orbit's sources read in one walk, each valuation its target term
    minus its source term."""
    p, e = Prime(p), levels[0]
    sources = [f for f in levels[1:] if f % p]
    for sm in enumerate_orbits(TruncationParams(p, e, i), bounds):
        # h_e >= 1 forces s_e >= 1 and e not dividing m, so m1 is never None
        m1 = _pinned_weight(p, e, sm)
        base = target_term(p, e, m1)
        sms_f = orbit_summands(p, i, sm.orbit, sources)
        hs_f = [sm_f.module.h for sm_f in sms_f]
        vals = [base - source_term(p, sm.s, m1, f, sm_f) for f, sm_f in zip(sources, sms_f)]
        for row in zip(sources, hs_f, vals, image_exponents(sm.module.h, hs_f, vals)):
            yield (sm, *row)


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

    For s_e >= 1 and e not dividing m, `tr_valuation` gives, with
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
    p = Prime(p)
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
    p, weight = Prime(p), i + 1
    levels = [e for e in range(2, probe + 1) if e % p]
    if not levels:
        raise ValueError(f"no level in [2, {probe}] is coprime to p={p}; raise the probe")
    p, levels = _tower_args(p, weight, levels)
    even = tuple((orbit, orbit_limit(p, weight, orbit)) for orbit, _ in nontrivial_orbits(p, weight, bounds, levels))
    return TRGroups(p, 2 * i, even, OddZeroCertificate(2 * i - 1, probe, len(even)))
