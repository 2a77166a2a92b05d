"""Transition valuations, Mittag-Leffler stabilization, and the inverse
limits of the degree-1 towers."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trcalc.drw as drw_module
import trcalc.padic as padic_module
import trcalc.prosystem as prosystem_module
from trcalc.drw import TruncationParams
from trcalc.oracle import TransitionOracle
from trcalc.padic import MultiIndex, PAdicFraction, Prime, ceil_div, factorial_ratio, vp
from trcalc.prosystem import (
    MLViolationError,
    ProCyclicLimit,
    build_tower,
    image_exponents,
    limit_classify,
    ml_bound,
    nontrivial_towers,
    orbit_limit,
    stabilized_images,
    source_term,
    target_term,
    tr_groups,
    tr_valuation,
    transition_rows,
)
from trcalc.syntomic import (
    AlphaBounds,
    Orbit,
    enumerate_orbits,
    h1_syntomic_orbit,
    level_summand,
    orbit_summands,
    s_function,
)

EMPTY = MultiIndex()


def pairwise_valuation(p, e, f, sm_e, sm_f):
    """The transition valuation pair by pair, with the factorial ratio
    formed exactly and its valuation read off the integer: the witness
    for the per-target-level closed form."""
    m = sm_e.orbit.m
    if sm_e.s == 0 or m % e == 0:
        return None
    m1 = p ** (sm_e.s - 1) * m
    v = vp(factorial_ratio((m1 - 1) // e, (m1 - 1) // f), p)
    v += ceil_div(m1, e) - ceil_div(m1, f)
    return v + sm_f.generator_exponents[sm_f.s - sm_e.s]


def term_valuations(p, e, sm_e, fs, sms_f):
    """Each source's valuation into level e read as `target_term` minus
    `source_term`, the pair rule every reader applies; None when the
    target is degenerate (s_e = 0 or e | m)."""
    m = sm_e.orbit.m
    if sm_e.s == 0 or m % e == 0:
        return None
    m1 = p ** (sm_e.s - 1) * m
    base = target_term(p, e, m1)
    return [base - source_term(p, sm_e.s, m1, f, sm_f) for f, sm_f in zip(fs, sms_f)]


def pairwise_images(p, e, sm_e, fs, sms_f):
    """The image exponent of each source's map into level e, pair by pair
    from `pairwise_valuation`; trivial target groups have trivial images."""
    h = sm_e.module.h
    images = []
    for f, sm_f in zip(fs, sms_f):
        v = pairwise_valuation(p, e, f, sm_e, sm_f)
        if v is None or h == 0:
            images.append(h)
        else:
            assert v + sm_f.module.h >= h  # the map is well defined
            images.append(min(v, h))
    return tuple(images)


def read_off(sources, images, bound, probe):
    """(stabilized, ml_index, certified) read off one level's images over
    its sources up to the probe: the last image, the least source from
    which the images are constant, and whether the probe reached the bound."""
    constant_from = min(f for j, f in enumerate(sources) if set(images[j:]) == {images[-1]})
    return images[-1], constant_from, probe >= bound


def bench_alpha_window(p):
    """The empty multi-index and the one-slot window num <= 4, pexp <= 2 of
    acceptance criteria 5 and 6 and the tower-probe workload."""
    return {EMPTY} | {
        MultiIndex.from_dict({"t": PAdicFraction.make(num, pexp, p)})
        for num, pexp in itertools.product(range(1, 5), range(3))
    }


def test_tr_valuation_examples():
    params = TruncationParams(3, 2, 1)
    assert tr_valuation(params, 4, Orbit(1)) == 0
    assert tr_valuation(params, 8, Orbit(1)) == 0
    # degenerate target: s_e = 0, map to the trivial group
    assert tr_valuation(params, 4, Orbit(2)) is None


def test_tr_valuation_rejects_bad_levels():
    params = TruncationParams(3, 2, 1)
    with pytest.raises(ValueError, match="need f >= e"):
        tr_valuation(params, 1, Orbit(1))
    with pytest.raises(ValueError):
        tr_valuation(params, 6, Orbit(1))


def test_tr_valuation_matches_oracle_spotchecks():
    cases = [
        (3, 2, 2, 4, 1),
        (3, 3, 2, 4, 1),
        (2, 2, 3, 5, 1),
        (2, 3, 5, 9, 1),
        (2, 2, 5, 7, 3),
        (3, 2, 4, 13, 5),
    ]
    for p, i, e, f, m in cases:
        params = TruncationParams(p, e, i)
        orbit = Orbit(m)
        h_e = h1_syntomic_orbit(params, orbit).module.h
        v = tr_valuation(params, f, orbit)
        assert min(v, h_e) == min(TransitionOracle(p, i, orbit, [e, f]).valuation(e, f), h_e)


def test_term_valuations_match_the_pairwise_formula():
    # p in {2,3,5,7}, weights up to 4, every level < 60 prime to p as target
    # and source, orbits m <= i*e, alpha empty or the one-slot t^(1/p): the
    # target's term minus each source's equals the pair-by-pair
    # factorial-ratio form at every source, and `tr_valuation` does at the
    # nearest and farthest
    checked = degenerate = 0
    for p in (2, 3, 5, 7):
        levels = [e for e in range(1, 60) if e % p]
        for i, alpha in itertools.product(range(5), (EMPTY, MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, p)}))):
            for m in (m for m in range(1, i * levels[-1] + 1) if m % p):
                orbit = Orbit(m, alpha)
                summands = orbit_summands(p, i, orbit, levels)
                for k, (e, sm_e) in enumerate(zip(levels, summands)):
                    if m > i * e:
                        continue
                    fs, sms_f = levels[k:], summands[k:]
                    vals = term_valuations(p, e, sm_e, fs, sms_f)
                    pairs = [pairwise_valuation(p, e, f, sm_e, sm_f) for f, sm_f in zip(fs, sms_f)]
                    for j in (0, -1):
                        assert tr_valuation(TruncationParams(p, e, i), fs[j], orbit) == pairs[j]
                    if vals is None:
                        assert set(pairs) == {None}
                        assert sm_e.module.h == 0
                        degenerate += 1
                        continue
                    assert vals == pairs
                    checked += len(vals)
    assert (checked, degenerate) == (1_096_788, 2_980)


def test_image_exponents():
    assert image_exponents(1, [2], [0]) == [0]
    assert image_exponents(3, [3], [2]) == [2]
    assert image_exponents(3, [1], [2]) == [2]  # boundary case v + h_f = h_e
    assert image_exponents(3, [3, 1, 4], [5, 2, 3]) == [3, 2, 3]
    assert image_exponents(2, [], []) == []
    with pytest.raises(ValueError, match="map with v=2 from h=1 to h=4 is not well defined"):
        image_exponents(4, [1], [2])
    with pytest.raises(ValueError, match="map with v=0 from h=1 to h=3 is not well defined"):
        image_exponents(3, [3, 1], [1, 0])  # the first ill-defined source is named


def test_valuations_and_images_never_fall_as_the_source_grows():
    # p in {2,3,5}, weights 1..3, the one-slot window, m <= weight * e at
    # every target e <= 12 prime to p, sources up to 80: the valuation of
    # the map into e, and so its image exponent, is nondecreasing in f,
    # which is what makes ml-check's bisection past the probe sound
    targets = 0
    for p in (2, 3, 5):
        sources = [f for f in range(1, 81) if f % p]
        for weight, alpha in itertools.product(range(1, 4), bench_alpha_window(p)):
            for m in (m for m in range(1, 12 * weight + 1) if m % p):
                orbit = Orbit(m, alpha)
                summands = orbit_summands(p, weight, orbit, sources)
                for k, (e, sm_e) in enumerate(zip(sources, summands)):
                    if e > 12 or e * weight < m:
                        continue
                    vals = term_valuations(p, e, sm_e, sources[k:], summands[k:])
                    if vals is None:
                        continue
                    images = image_exponents(sm_e.module.h, [sm.module.h for sm in summands[k:]], vals)
                    assert vals == sorted(vals) and images == sorted(images)
                    targets += 1
    assert targets == 4102


def test_ml_bound_examples():
    assert ml_bound(TruncationParams(3, 2, 1), 1) == 10
    assert ml_bound(TruncationParams(2, 3, 1), 1) == 17
    assert ml_bound(TruncationParams(3, 2, 0), 1) == 2


@settings(max_examples=300)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 80), st.integers(0, 6), st.integers(1, 300))
def test_ml_bound_counts_s_without_a_walk(p, e, i, m):
    # at the empty multi-index, s = #{a >= 0 : p^a m <= i e}; the bound is
    # the one the walk's s gives
    if e % p == 0:
        e += 1
    params = TruncationParams(p, e, i)
    s = s_function(params, m)
    assert s == sum(1 for a in range(s + 2) if p**a * m <= i * e)
    f = max(e, p ** (2 * s) * m)
    while f % p == 0:
        f += 1
    assert ml_bound(params, m) == f


def test_sweep_bounds_carry_s_along_the_tower():
    # the sweep counts s on from one level to the next; every record's
    # bound is the one counted afresh at its own level
    for p in (2, 3, 5):
        levels = [e for e in range(2, 60) if e % p]
        for i, m in itertools.product(range(4), (1, p + 1, 7 * p - 1, 40 * p + 1)):
            stab = stabilized_images(build_tower(p, i, Orbit(m), levels), levels[-1])
            assert [rec.ml_bound for rec in stab.per_level] == [
                ml_bound(TruncationParams(p, e, i), m) for e in levels
            ]


def test_ml_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ml_bound(TruncationParams(3, 2, 1), 0)
    with pytest.raises(ValueError):
        ml_bound(TruncationParams(3, 3, 1), 1)


def test_build_tower_groups():
    tower = build_tower(3, 1, Orbit(1), [2, 4, 5, 7, 8])
    assert tuple(sm.module.h for sm in tower.summands) == (1, 2, 2, 2, 2)
    adjacent = list(zip(tower.levels, tower.levels[1:]))
    assert len(adjacent) == 4
    assert all(tr_valuation(TruncationParams(3, e, 1), f, Orbit(1)) == 0 for e, f in adjacent)


def test_build_tower_rejects_bad_input():
    with pytest.raises(ValueError):
        build_tower(3, 1, Orbit(3), [2, 4])  # p | m
    with pytest.raises(ValueError):
        build_tower(4, 1, Orbit(1), [3, 5])  # p not prime
    with pytest.raises(ValueError):
        build_tower(3, 1, Orbit(1), [2, 6])  # level divisible by p
    with pytest.raises(ValueError):
        build_tower(3, 1, Orbit(1), [-1, 2])
    with pytest.raises(ValueError):
        build_tower(3, -1, Orbit(1), [2, 4])


def test_tower_summands_equal_single_level_summands():
    for p in (2, 3, 5):
        levels = [e for e in range(1, 25) if e % p]
        for i, alpha in itertools.product(range(5), bench_alpha_window(p)):
            for m in (m for m in range(1, max(i, 1) * 24 + 1) if m % p):
                orbit = Orbit(m, alpha)
                tower = build_tower(p, i, orbit, levels)
                assert tower.summands == tuple(level_summand.__wrapped__(p, e, i, orbit) for e in levels)


def test_tower_and_oracle_validate_p_once(monkeypatch):
    tower = build_tower(2, 1, Orbit(1), list(range(3, 24, 2)))
    assert isinstance(tower.p, Prime)
    assert isinstance(TransitionOracle(2, 1, Orbit(1), [3, 5]).p, Prime)
    tested = []
    real = padic_module._is_prime

    def counting(n):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(padic_module, "_is_prime", counting)
    # the sweep builds no TruncationParams, so it tests no prime
    stabilized_images(tower, 24)
    assert tested == []
    # a plain int is tested the first time only; a non-prime on every call
    monkeypatch.setattr(Prime, "_checked", {})
    TruncationParams(2, 3, 1)
    TruncationParams(2, 5, 1)
    assert tested == [2] and Prime(2) is TruncationParams(2, 7, 1).p
    for _ in range(2):
        with pytest.raises(ValueError, match="^9 is not prime$"):
            TruncationParams(9, 2, 1)
    assert tested == [2, 9, 9]


def test_stabilized_images_full_at_every_level():
    levels = [e for e in range(2, 29) if e % 3]
    tower = build_tower(3, 1, Orbit(1), levels)
    stab = stabilized_images(tower, 28)
    assert all(rec.stabilized == 0 for rec in stab.per_level)
    certified = [rec for rec in stab.per_level if rec.certified]
    assert certified and certified[0].level == 2


def test_stabilized_images_degenerate_orbit():
    tower = build_tower(3, 1, Orbit(2), [2, 4, 5, 7, 8])
    stab = stabilized_images(tower, 8)
    assert stab.per_level[0].h == 0
    assert stab.per_level[0].image_order_exponent == 0


def test_stabilization_before_bound_when_certifiable():
    levels = [e for e in range(3, 41) if e % 2]
    for i in (1, 2):
        tower = build_tower(2, i, Orbit(1), levels)
        stab = stabilized_images(tower, 40)
        for rec in stab.per_level:
            if rec.certified:
                assert rec.ml_index <= rec.ml_bound
    # weight 1 at e=3 has bound 17, inside the probe, so certification
    # actually fires somewhere in this grid
    tower = build_tower(2, 1, Orbit(1), levels)
    stab = stabilized_images(tower, 40)
    assert any(rec.certified for rec in stab.per_level)


def drift_level_2(monkeypatch, tower, drift):
    """Raise the valuation of each map into level 2 from a source in drift
    by 1, through the seam the sweep reads: the sources' terms of level 2's
    block, which on the p=3, weight 1, m=1 tower holds level 2 alone."""
    assert [sm.s for sm in tower.summands[:2]] == [1, 2] and tower.levels[0] == 2
    real = prosystem_module.source_term

    def drifting(p, s_e, m1, f, sm_f):
        return real(p, s_e, m1, f, sm_f) - (s_e == 1 and f in drift)

    monkeypatch.setattr(prosystem_module, "source_term", drifting)


def test_image_change_past_the_bound_raises_with_its_witness(monkeypatch):
    # p=3, weight 1, orbit m=1: level 2 has bound 10 inside the probe and
    # images 0; a valuation that grows at f=13 changes an image past it
    tower = build_tower(3, 1, Orbit(1), [e for e in range(2, 29) if e % 3])
    drift_level_2(monkeypatch, tower, {13})
    with pytest.raises(MLViolationError, match="level e=2: witness f=13"):
        stabilized_images(tower, 28)


@pytest.mark.parametrize("drift,witness", [({10}, 10), ({10, 13, 16}, 10), ({8}, None), ({2, 4, 8}, None)])
def test_image_change_at_the_bound_raises_and_before_it_moves_ml_index(monkeypatch, drift, witness):
    # the same tower: level 2 has bound 10 and images 0, so a change at the
    # bound itself is a violation whose witness is the least changed source
    # at or past it, and a change before the bound only moves the ml_index
    tower = build_tower(3, 1, Orbit(1), [e for e in range(2, 29) if e % 3])
    drift_level_2(monkeypatch, tower, drift)
    if witness is not None:
        with pytest.raises(MLViolationError, match=f"level e=2: witness f={witness}$"):
            stabilized_images(tower, 28)
        return
    rec = stabilized_images(tower, 28).per_level[0]
    assert (rec.level, rec.ml_bound, rec.certified, rec.stabilized) == (2, 10, True, 0)
    assert rec.ml_index == 10
    # witness: level 2's images under the drift, over every level from 2,
    # read through `tr_valuation`, which shares the drifted seam
    sources, summands = list(tower.levels), tower.summands
    vals = [tr_valuation(TruncationParams(3, 2, 1), f, Orbit(1)) for f in sources]
    images = image_exponents(summands[0].module.h, [sm.module.h for sm in summands], vals)
    assert [f for f, img in zip(sources, images) if img] == sorted(drift)
    assert (rec.stabilized, rec.ml_index, rec.certified) == read_off(sources, images, 10, 28)


def test_ill_defined_map_in_the_sweep_raises_the_image_rule_error(monkeypatch):
    # p=3, weight 1, orbit m=1: level 4 has h=2 and the source 7 has h=2, so
    # a valuation lowered by 3 gives a map Z/p^2 -> Z/p^2 that is not well
    # defined; the sweep rejects it with the error `image_exponents` raises.
    # Level 4 opens the block of levels with s_e = 2, so the drift is
    # injected into that block's term of source 7, read once, and lowers
    # the map (4, 7) before any other level of the block reads it
    tower = build_tower(3, 1, Orbit(1), [e for e in range(2, 29) if e % 3])
    h = dict(zip(tower.levels, (sm.module.h for sm in tower.summands)))
    sm = dict(zip(tower.levels, tower.summands))
    assert (sm[2].s, sm[4].s) == (1, 2)
    real = prosystem_module.source_term
    raised_terms = []

    def raising(p, s_e, m1, f, sm_f):
        term = real(p, s_e, m1, f, sm_f)
        if (s_e, f) == (2, 7):
            raised_terms.append(f)
            term += 3
        return term

    monkeypatch.setattr(prosystem_module, "source_term", raising)
    with pytest.raises(ValueError, match="not well defined") as raised:
        stabilized_images(tower, 28)
    assert raised_terms == [7]
    v = tr_valuation(TruncationParams(3, 4, 1), 7, Orbit(1))
    assert (h[4], h[7]) == (2, 2) and v + h[7] < h[4]
    with pytest.raises(ValueError) as direct:
        image_exponents(h[4], [h[7]], [v])
    assert str(raised.value) == str(direct.value)


@pytest.mark.parametrize("deficit", [0, 1])
def test_sweep_rejects_a_map_exactly_when_it_is_not_well_defined(monkeypatch, deficit):
    # p=3, weight 2, orbit m=1: levels 2 and 4 form the block s_e = 2, and
    # the maps from source 5 into them have v + h_5 - h_e = 2 and 1.
    # Raising the block's term of source 5 by 1 + deficit lowers both
    # valuations: at deficit 0 the map (4, 5) has v + h_5 = h_4 and is still
    # well defined, and the sweep reads both levels off the images; at
    # deficit 1 it is not, and the sweep raises the error `image_exponents`
    # raises
    levels = [e for e in range(2, 29) if e % 3]
    tower = build_tower(3, 2, Orbit(1), levels)
    h = dict(zip(levels, (sm.module.h for sm in tower.summands)))
    assert [sm.s for sm in tower.summands[:3]] == [2, 2, 3]
    real = prosystem_module.source_term

    def raising(p, s_e, m1, f, sm_f):
        return real(p, s_e, m1, f, sm_f) + (1 + deficit) * ((s_e, f) == (2, 5))

    monkeypatch.setattr(prosystem_module, "source_term", raising)
    # the drifted valuations, read through `tr_valuation`, which shares the seam
    vals = [[tr_valuation(TruncationParams(3, e, 2), f, Orbit(1)) for f in levels[k:]] for k, e in ((0, 2), (1, 4))]
    assert (vals[0][2] + h[5] - h[2], vals[1][1] + h[5] - h[4]) == (1 - deficit, -deficit)
    if deficit:
        with pytest.raises(ValueError) as direct:
            image_exponents(h[4], [h[f] for f in levels[1:]], vals[1])
        with pytest.raises(ValueError, match="not well defined") as raised:
            stabilized_images(tower, 28)
        assert str(raised.value) == str(direct.value)
        return
    stab = stabilized_images(tower, 28)
    for k, e in enumerate(levels[:2]):
        images = image_exponents(h[e], [h[f] for f in levels[k:]], vals[k])
        rec = stab.per_level[k]
        assert (rec.stabilized, rec.ml_index, rec.certified) == read_off(levels[k:], images, rec.ml_bound, 28)


def test_certified_level_reads_its_stable_image_from_a_trailing_run_under_three(monkeypatch):
    # p=3, weight 1, orbit m=1 probed to 11: level 2 has bound 10, so an
    # image change at f=8 leaves a constant run of two (10, 11) past it;
    # the level is certified, and its last image is the stable one
    tower = build_tower(3, 1, Orbit(1), [e for e in range(2, 12) if e % 3])
    drift_level_2(monkeypatch, tower, {8})
    rec = stabilized_images(tower, 11).per_level[0]
    assert (rec.level, rec.ml_bound, rec.ml_index, tower.levels[-2:]) == (2, 10, 10, (10, 11))
    assert rec.certified and rec.stabilized == 0


def s_alpha(p, weight, alpha):
    """The least a with floor_l1(p^a alpha) >= weight, counted afresh."""
    return next(a for a in itertools.count() if alpha.floor_l1(p, a) >= weight)


def exact_order(p, e, weight, orbit):
    """The order exponent of the stable image into level e: h_e minus the
    image exponent of the map from f0 = ml_bound(e)."""
    params = TruncationParams(p, e, weight)
    h = h1_syntomic_orbit(params, orbit).module.h
    if h == 0:
        return 0, 0
    return h, h - min(tr_valuation(params, ml_bound(params, orbit.m), orbit), h)


def test_orbit_limit_three_cases():
    def t(num, pexp):
        return MultiIndex.from_dict({"t": PAdicFraction(num, pexp)})

    assert orbit_limit(3, 1, Orbit(1)) == ProCyclicLimit("zp", None)
    assert orbit_limit(2, 1, Orbit(7)) == ProCyclicLimit("zp", None)
    for weight in (0, 2, 3, 7):
        assert orbit_limit(3, weight, Orbit(5)) == ProCyclicLimit("finite", 0)
    # floor(3^a * 1/3) = 0, 1, 3, 9, ...: S_alpha is 2 in weight 2 and 3 in weight 4
    assert orbit_limit(3, 2, Orbit(1, t(1, 1))) == ProCyclicLimit("finite", 2)
    assert orbit_limit(3, 4, Orbit(1, t(1, 1))) == ProCyclicLimit("finite", 3)
    assert orbit_limit(3, 1, Orbit(1, t(2, 0))) == ProCyclicLimit("finite", 0)
    assert orbit_limit(2, 0, Orbit(1, t(1, 2))) == ProCyclicLimit("finite", 0)
    with pytest.raises(ValueError, match="coprime to p"):
        orbit_limit(3, 1, Orbit(6))


def test_orbit_limit_is_the_exact_stable_image_past_e_star():
    # p in {2,3,5}, weights 0..3, m <= 12 * weight, the one-slot window:
    # at every level from 2 to e* + 12, the order of the stable image (read
    # at f0 = ml_bound(e)) is h_e for "zp", 0 for "finite 0", and for
    # nonempty alpha at most S_alpha, and exactly S_alpha from the least
    # level e* >= max(m + 1, p^(S_alpha - 1) m) prime to p on
    towers = levels_read = 0
    for p in (2, 3, 5):
        for weight, alpha in itertools.product(range(4), bench_alpha_window(p)):
            for m in (m for m in range(1, 12 * max(weight, 1) + 1) if m % p):
                orbit = Orbit(m, alpha)
                verdict = orbit_limit(p, weight, orbit)
                S = s_alpha(p, weight, alpha) if alpha.entries else 0
                e_star = max(m + 1, p ** max(S - 1, 0) * m)
                while e_star % p == 0:
                    e_star += 1
                assert verdict == (
                    ProCyclicLimit("finite", S) if alpha.entries
                    else ProCyclicLimit("zp", None) if weight == 1 else ProCyclicLimit("finite", 0)
                )
                for e in (e for e in range(2, e_star + 13) if e % p):
                    h, order = exact_order(p, e, weight, orbit)
                    if verdict.kind == "zp":
                        assert order == h
                    elif e >= e_star:
                        assert order == verdict.h
                    else:
                        assert order <= verdict.h
                    levels_read += 1
                if verdict.kind == "zp":  # h_e = #{a : p^a m <= e} past m grows: 4 at p^3 m + 1
                    assert exact_order(p, p**3 * m + 1, weight, orbit) == (4, 4)
                towers += 1
    assert (towers, levels_read) == (1891, 79905)


def test_limit_classify_on_real_tower():
    # p=3, weight 1, orbit m=1: TR of a perfect field is W(k), and the
    # swept tower's limit is that of its orbit, whatever the probe
    for probe in (11, 28, 100):
        levels = [e for e in range(2, probe + 1) if e % 3]
        verdict = limit_classify(stabilized_images(build_tower(3, 1, Orbit(1), levels), probe))
        assert verdict == orbit_limit(3, 1, Orbit(1)) == ProCyclicLimit("zp", None)


def test_tr_groups_odd_certificate():
    result = tr_groups(3, 0, AlphaBounds(), 30)
    assert result.odd.degree == -1
    assert result.odd.zero and result.odd.lim1_zero
    assert result.weight == 1
    assert result.odd.orbits > 0


def test_tower_verdict_constants_are_not_inputs():
    # lim^1 = 0, the odd zero and the weight are facts of the verdicts, not
    # fields a caller could set to something else
    for i in (-1, 0, 2):
        result = tr_groups(3, i, AlphaBounds(), 10)
        assert (result.degree, result.weight) == (2 * i, i + 1)
    with pytest.raises(TypeError):
        prosystem_module.OddZeroCertificate(1, 10, 0, zero=False)
    with pytest.raises(TypeError):
        prosystem_module.ProCyclicLimit("finite", 0, lim1_zero=False)
    assert [f.name for f in dataclasses.fields(prosystem_module.TRGroups)] == ["p", "degree", "even", "odd"]


def test_tr_groups_with_slots():
    result = tr_groups(2, 1, AlphaBounds(("t",), 4, 2), 12)
    assert result.odd.degree == 1
    assert result.odd.zero
    assert any(orbit.alpha.entries for orbit, _ in result.even)


def test_tr_groups_degenerate_weight():
    # weight 0 towers are all trivial
    result = tr_groups(3, -1, AlphaBounds(), 10)
    assert result.even == ()
    assert result.odd.zero


def test_public_entries_make_p_a_prime_before_reading_it():
    # p is made a `Prime` before it is read: unchecked, 4 would give a "zp"
    # limit, 0 would divide by zero and 1 would ask for a larger probe
    for p in (0, 1, 4):
        calls = (
            lambda: orbit_limit(p, 1, Orbit(1)),
            lambda: tr_groups(p, 1, AlphaBounds(), 8),
            lambda: list(transition_rows(p, 1, AlphaBounds(), [2, 4, 5])),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                call()
    # with p prime, a target without a later level has no row
    assert list(transition_rows(3, 1, AlphaBounds(), [2])) == []


def test_tr_groups_refuses_a_probe_without_levels():
    # p=2 and probe 2 leave no level coprime to p, so the window lists no
    # orbit and nothing is certified; probe 3 has the level 3
    with pytest.raises(ValueError, match="no level in"):
        tr_groups(2, 1, AlphaBounds(), 2)
    assert tr_groups(2, 1, AlphaBounds(), 3).odd.orbits > 0


@pytest.mark.parametrize("p,i,bounds", [(3, 0, AlphaBounds()), (2, 1, AlphaBounds(("t",), 2, 1))])
def test_tr_verdicts_are_the_same_at_every_probe(p, i, bounds):
    # each orbit's verdict is `orbit_limit`'s at probes 28, 100 and 1000;
    # a larger probe only lists more orbits.  In TR degree 0 every orbit
    # is "zp": TR of a perfect field is W(k)
    verdicts = {}
    for probe in (28, 100, 1000):
        result = tr_groups(p, i, bounds, probe)
        assert result.odd.orbits == len(result.even)
        for orbit, verdict in result.even:
            assert verdict == verdicts.setdefault(orbit, verdict) == orbit_limit(p, i + 1, orbit)
    if i == 0:
        assert {verdict for verdict in verdicts.values()} == {ProCyclicLimit("zp", None)}
    else:
        assert {v.kind for v in verdicts.values()} == {"finite"}


def test_the_oracle_backs_the_stable_images_the_readme_tower_jobs_read():
    # the README's tr job (p=3, weight 1, levels to 30) and ml-check job
    # (p=3, weight 1, levels to 11, a subset of the tr pairs): at every
    # nontrivial level of every listed orbit, the matrix-level valuation of
    # the map from f0 = ml_bound(e) is the closed form's, and the stable
    # image is all of W(k)/p^h_e, as the "zp" verdict says
    pairs = 0
    f0_max = 0
    for orbit, verdict in tr_groups(3, 0, AlphaBounds(), 30).even:
        assert verdict == ProCyclicLimit("zp", None)
        for e in (e for e in range(2, 31) if e % 3):
            params = TruncationParams(3, e, 1)
            h = h1_syntomic_orbit(params, orbit).module.h
            if h == 0:
                continue
            f0 = ml_bound(params, orbit.m)
            v = TransitionOracle(3, 1, orbit, [e, f0]).valuation(e, f0)
            assert v == min(tr_valuation(params, f0, orbit), h) == 0
            pairs += 1
            f0_max = max(f0_max, f0)
    assert (pairs, f0_max) == (190, 6562)


def test_nontrivial_towers_are_the_sorted_union_over_levels():
    bounds = AlphaBounds(("t",), 1, 1)
    levels = [2, 4, 5]
    towers = nontrivial_towers(3, 1, bounds, levels)
    orbits = [tower.orbit for tower in towers]
    union = {
        sm.orbit for e in levels for sm in enumerate_orbits(TruncationParams(3, e, 1), bounds)
    }
    assert set(orbits) == union
    assert len(orbits) == len(union)
    assert orbits == sorted(orbits, key=lambda o: o.sort_key())
    # each is the orbit's own tower over all the levels
    assert towers == [build_tower(3, 1, orbit, levels) for orbit in orbits]
    assert nontrivial_towers(3, 0, bounds, levels) == []
    with pytest.raises(ValueError):
        nontrivial_towers(3, 1, bounds, [2, 3])  # level divisible by p


def test_stabilized_images_walks_each_probed_level_once(monkeypatch):
    walked, floors = [], []
    real_summands = prosystem_module.orbit_summands
    real_floor = padic_module.MultiIndex.floor_l1

    def counting(p, i, orbit, levels):
        walked.extend(levels)
        return real_summands(p, i, orbit, levels)

    def counting_floor(self, p, a):
        floors.append(a)
        return real_floor(self, p, a)

    def forbidden(*args):
        raise AssertionError("towers must not read single-level summands or tr_valuation")

    levels = [e for e in range(2, 21) if e % 3]
    orbit = Orbit(1, MultiIndex.from_dict({"t": PAdicFraction(1, 1)}))
    # witness: the images pair by pair, one tr_valuation per (e, f)
    pairwise = []
    for e in levels:
        h = h1_syntomic_orbit(TruncationParams(3, e, 2), orbit).module.h
        images = []
        for f in (f for f in levels if f >= e):
            v = tr_valuation(TruncationParams(3, e, 2), f, orbit)
            h_f = h1_syntomic_orbit(TruncationParams(3, f, 2), orbit).module.h
            images.append(h if v is None or h == 0 else image_exponents(h, [h_f], [v])[0])
        pairwise.append(tuple(images))
    s_max = max(h1_syntomic_orbit(TruncationParams(3, e, 2), orbit).s for e in levels)
    monkeypatch.setattr(prosystem_module, "orbit_summands", counting)
    monkeypatch.setattr(padic_module.MultiIndex, "floor_l1", counting_floor)
    monkeypatch.setattr(prosystem_module, "h1_syntomic_orbit", forbidden)
    monkeypatch.setattr(prosystem_module, "level_summand", forbidden)
    monkeypatch.setattr(prosystem_module, "tr_valuation", forbidden)
    # the tower's own summands are reused: one walk per level in all, and
    # each alpha floor read at most once
    stab = stabilized_images(build_tower(3, 2, orbit, levels), 20)
    assert sorted(walked) == levels
    assert len(floors) <= s_max + 1
    bounds = [ml_bound(TruncationParams(3, e, 2), orbit.m) for e in levels]
    expected = [read_off(levels[k:], images, bound, 20) for k, (images, bound) in enumerate(zip(pairwise, bounds))]
    assert [(rec.stabilized, rec.ml_index, rec.certified) for rec in stab.per_level] == expected
    # a tower on fewer levels lacks sources, and is rejected rather than
    # completed by another walk
    walked.clear()
    with pytest.raises(ValueError, match="not every level"):
        stabilized_images(build_tower(3, 2, orbit, levels[:5]), 20)
    assert sorted(walked) == levels[:5]


def test_stabilized_images_match_the_pairwise_witness_on_every_probe_tower():
    # every tower of the tower-probe shape (levels 2..24 prime to p, weights
    # 1..3, m <= 24*i, the one-slot alpha window), on p = 2 and 3 as there
    # and on p = 5: each level's images are the pair-by-pair ones, and its
    # eventual image, ml_index and certification are read off them
    towers = 0
    for p in (2, 3, 5):
        levels = [e for e in range(2, 25) if e % p]
        for i, alpha in itertools.product(range(1, 4), bench_alpha_window(p)):
            for m in (m for m in range(1, i * levels[-1] + 1) if m % p):
                tower = build_tower(p, i, Orbit(m, alpha), levels)
                stab = stabilized_images(tower, 24)
                for k, rec in enumerate(stab.per_level):
                    sources = tower.levels[k:]
                    images = pairwise_images(p, rec.level, tower.summands[k], sources, tower.summands[k:])
                    bound = ml_bound(TruncationParams(p, rec.level, i), m)
                    assert (rec.stabilized, rec.ml_index, rec.certified) == read_off(sources, images, bound, 24)
                    assert rec.ml_bound == bound
                    assert rec.image_order_exponent == rec.h - images[-1]
                towers += 1
    assert towers == 1653 + 1521


def test_stabilized_images_match_the_pairwise_witness_on_long_blocks():
    # towers to probe 60 on p = 2, 3, 5, 7, weights 1 and 2, m <= 20, the
    # empty and the one-slot alpha: blocks of nontrivial levels sharing s_e
    # run to 50 levels, so the sweep's per-block tables are read at many
    # offsets; both readings of the run start occur, a stable image of h_e
    # on a nontrivial level and one below it
    longest = full = below = 0
    for p in (2, 3, 5, 7):
        levels = [e for e in range(2, 61) if e % p]
        for i, alpha in itertools.product((1, 2), bench_alpha_window(p)):
            for m in (m for m in range(1, 21) if m % p):
                tower = build_tower(p, i, Orbit(m, alpha), levels)
                stab = stabilized_images(tower, 60)
                for k, rec in enumerate(stab.per_level):
                    sources = tower.levels[k:]
                    images = pairwise_images(p, rec.level, tower.summands[k], sources, tower.summands[k:])
                    bound = ml_bound(TruncationParams(p, rec.level, i), m)
                    assert (rec.stabilized, rec.ml_index, rec.certified) == read_off(sources, images, bound, 60)
                    full += 0 < rec.h == rec.stabilized
                    below += rec.stabilized < rec.h
                s_values = [sm.s for sm in tower.summands if sm.module.h]
                longest = max([longest] + [s_values.count(s) for s in s_values])
    assert longest >= 50 and full and below


def test_sweep_builds_no_image_list_on_the_happy_path(monkeypatch):
    # a probe-200 tower with over a hundred nontrivial levels: the sweep
    # reads every level off its block tables, so the reference image rule
    # receives at most one (h_f, v) pair per level, not one per source of
    # every nontrivial level
    pairs = []
    real = prosystem_module.image_exponents

    def counting(h_e, hs_f, vals):
        pairs.extend(zip(hs_f, vals))
        return real(h_e, hs_f, vals)

    levels = [e for e in range(2, 201) if e % 3]
    tower = build_tower(3, 2, Orbit(1, MultiIndex.from_dict({"t": PAdicFraction(1, 1)})), levels)
    assert sum(sm.module.h > 0 for sm in tower.summands) > 100
    monkeypatch.setattr(prosystem_module, "image_exponents", counting)
    stab = stabilized_images(tower, 200)
    assert len(pairs) <= len(levels)
    assert [rec.level for rec in stab.per_level] == levels


def test_towers_build_no_truncation_params(monkeypatch):
    # building, sweeping and classifying a tower passes p, the levels and
    # the weight as plain ints; only the API boundary builds parameters
    built = []
    real = drw_module.TruncationParams.__new__

    def counting(cls, p, e, i):
        built.append((p, e, i))
        return real(cls, p, e, i)

    monkeypatch.setattr(drw_module.TruncationParams, "__new__", counting)
    alpha = MultiIndex.from_dict({"t": PAdicFraction(1, 1)})
    for p in (2, 3):
        levels = [e for e in range(2, 25) if e % p]
        for m in (1, 2 * p + 1, 7 * p - 1):
            limit_classify(stabilized_images(build_tower(p, 2, Orbit(m, alpha), levels), 24))
    tr_groups(3, 1, AlphaBounds(("t",), 2, 1), 20)
    assert built == []
    TruncationParams(3, 2, 1)
    assert built == [(3, 2, 1)]


def test_sweep_reads_source_terms_once_per_block_into_frozen_records(monkeypatch):
    # one `target_term` per target level with h > 0 and none on a trivial
    # one; the source terms once per block of nontrivial levels sharing
    # s_e, over the sources of the block's first level; one immutable
    # record per tower level, in level order
    targets, terms = [], []
    real_target, real_source = prosystem_module.target_term, prosystem_module.source_term

    def counting_target(p, e, m1):
        targets.append(e)
        return real_target(p, e, m1)

    def counting_source(p, s_e, m1, f, sm_f):
        terms.append((s_e, f))
        return real_source(p, s_e, m1, f, sm_f)

    monkeypatch.setattr(prosystem_module, "target_term", counting_target)
    monkeypatch.setattr(prosystem_module, "source_term", counting_source)
    alpha = MultiIndex.from_dict({"t": PAdicFraction(1, 1)})
    trivial = blocks = 0
    for p in (2, 3):
        for first in (1, 2):
            levels = [e for e in range(first, 25) if e % p]
            for i, orbit in itertools.product((1, 2), (Orbit(1), Orbit(2 * p + 1), Orbit(7 * p - 1, alpha))):
                tower = build_tower(p, i, orbit, levels)
                targets.clear()
                terms.clear()
                stab = stabilized_images(tower, 24)
                nontrivial = [(e, sm.s) for e, sm in zip(tower.levels, tower.summands) if sm.module.h]
                trivial += len(levels) - len(nontrivial)
                assert targets == [e for e, _ in nontrivial]
                block_first = {}
                for e, s in nontrivial:
                    block_first.setdefault(s, e)
                assert [s for _, s in nontrivial] == sorted(s for _, s in nontrivial)
                assert terms == [(s, f) for s, e in block_first.items() for f in levels if f >= e]
                blocks += len(block_first) > 1
                assert [rec.level for rec in stab.per_level] == levels
                for rec in stab.per_level:
                    if rec.h == 0:  # level 1 divides every m, so it is trivial; its sources start at 2
                        sources = [f for f in levels if f >= max(rec.level, 2)]
                        bound = ml_bound(TruncationParams(p, rec.level, i), orbit.m)
                        zeros = (0,) * len(sources)
                        assert (rec.stabilized, rec.ml_index, rec.certified) == read_off(sources, zeros, bound, 24)
    assert trivial > 0 and blocks > 0
    rec = stab.per_level[0]
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.image_order_exponent = 0


@pytest.mark.parametrize(
    "p,levels,probe",
    [
        (3, [2, 5, 7, 8], 8),  # gap: 4 missing
        (3, [2, 4, 5, 7], 8),  # stops short of the probe
        (3, [2, 4, 5, 7, 8, 10], 8),  # runs past the probe
        (2, [1, 5, 7], 7),  # gap: 3 missing
        (3, [], 8),  # no level at all
    ],
)
def test_stabilized_images_rejects_towers_without_every_source(p, levels, probe):
    tower = build_tower(p, 1, Orbit(1), levels)
    with pytest.raises(ValueError, match="not every level"):
        stabilized_images(tower, probe)


@pytest.mark.parametrize("m, match", [(0, "m >= 1"), (6, "coprime to p")])
def test_stabilized_images_rejects_an_invalid_orbit(m, match):
    # a Tower built by hand skips build_tower's checks; the sweep checks the
    # orbit once per tower, and the per-level bound takes m as checked
    good = build_tower(3, 1, Orbit(1), [2, 4, 5])
    with pytest.raises(ValueError, match=match):
        stabilized_images(dataclasses.replace(good, orbit=Orbit(m)), 5)


def test_stabilized_images_sources_start_at_level_2():
    # level 1 is not its own source, so its ML index is the next level (2
    # when p = 3); every other level is, and its record reads off the
    # pairwise images from itself on
    for p in (2, 3):
        levels = [e for e in range(1, 12) if e % p]
        tower = build_tower(p, 1, Orbit(1), levels)
        stab = stabilized_images(tower, 11)
        assert stab.per_level[0].ml_index == levels[1]
        for k, (rec, sm_e) in enumerate(zip(stab.per_level, tower.summands)):
            first = max(k, 1)
            images = pairwise_images(p, rec.level, sm_e, levels[first:], tower.summands[first:])
            bound = ml_bound(TruncationParams(p, rec.level, 1), 1)
            assert (rec.stabilized, rec.ml_index, rec.certified) == read_off(levels[first:], images, bound, 11)
