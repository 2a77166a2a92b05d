"""Transition valuations, Mittag-Leffler stabilization, and limit
classification of the degree-1 towers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trcalc.padic as padic_module
import trcalc.prosystem as prosystem_module
from trcalc.drw import TruncationParams
from trcalc.oracle import TransitionOracle
from trcalc.padic import MultiIndex, PAdicFraction, Prime
from trcalc.prosystem import (
    ClassificationRefusedError,
    RefusedClassification,
    build_tower,
    classify_orders,
    image_exponent,
    limit_classify,
    ml_bound,
    stabilized_images,
    tower_orbits,
    tr_groups,
    tr_valuation,
    transition_valuation,
)
from trcalc.syntomic import AlphaBounds, Orbit, enumerate_orbits, h1_syntomic_orbit, s_function

EMPTY = MultiIndex()


def test_tr_valuation_examples():
    params = TruncationParams(3, 2, 1)
    assert tr_valuation(params, 4, Orbit(1)) == 0
    assert tr_valuation(params, 8, Orbit(1)) == 0
    # degenerate target: s_e = 0, map to the trivial group
    assert tr_valuation(params, 4, Orbit(2)) is None


def test_tr_valuation_rejects_bad_levels():
    params = TruncationParams(3, 2, 1)
    with pytest.raises(ValueError):
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


def test_image_exponent():
    assert image_exponent(2, 1, 0) == 0
    assert image_exponent(3, 3, 2) == 2
    assert image_exponent(1, 3, 2) == 2  # boundary case v + h_f = h_e
    with pytest.raises(ValueError):
        image_exponent(1, 4, 2)


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


def test_ml_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ml_bound(TruncationParams(3, 2, 1), 0)
    with pytest.raises(ValueError):
        ml_bound(TruncationParams(3, 3, 1), 1)


def test_build_tower_groups():
    tower = build_tower(3, 1, Orbit(1), [2, 4, 5, 7, 8])
    assert tuple(sm.module.h for sm in tower.summands) == (1, 2, 2, 2, 2)
    adjacent = list(zip(tower.levels, tower.levels[1:], tower.summands, tower.summands[1:]))
    assert len(adjacent) == 4
    assert all(transition_valuation(3, e, f, sm_e, sm_f) == 0 for e, f, sm_e, sm_f in adjacent)


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
    # the bench's one-slot alpha window: num <= 4, pexp <= 2
    for p in (2, 3, 5):
        levels = [e for e in range(1, 25) if e % p]
        alphas = {EMPTY} | {
            MultiIndex.from_dict({"t": PAdicFraction.make(num, pexp, p)})
            for num, pexp in itertools.product(range(1, 5), range(3))
        }
        for i, alpha in itertools.product(range(5), alphas):
            for m in (m for m in range(1, max(i, 1) * 24 + 1) if m % p):
                orbit = Orbit(m, alpha)
                tower = build_tower(p, i, orbit, levels)
                assert tower.summands == tuple(
                    h1_syntomic_orbit.__wrapped__(TruncationParams(p, e, i), orbit) for e in levels
                )


def test_tower_and_oracle_validate_p_once(monkeypatch):
    tower = build_tower(2, 1, Orbit(1), [3, 5, 7])
    assert isinstance(tower.p, Prime)
    assert isinstance(TransitionOracle(2, 1, Orbit(1), [3, 5]).p, Prime)
    tested = []
    real = padic_module._is_prime

    def counting(n):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(padic_module, "_is_prime", counting)
    # every per-level TruncationParams of the sweep reuses the tower's Prime
    stabilized_images(tower, 24)
    assert tested == []
    TruncationParams(2, 3, 1)  # a plain int is still tested
    assert tested == [2]


def test_stabilized_images_full_at_every_level():
    levels = [e for e in range(2, 29) if e % 3]
    tower = build_tower(3, 1, Orbit(1), levels)
    stab = stabilized_images(tower, 28)
    assert all(rec.stabilized == 0 for rec in stab.per_level)
    certified = [rec for rec in stab.per_level if rec.certified]
    assert certified and certified[0].level == 2


def test_stabilized_images_degenerate_orbit():
    tower = build_tower(3, 1, Orbit(2), [2, 4])
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


def test_classify_zp_full():
    verdict = classify_orders(tuple(range(1, 11)), ml_index=2)
    assert verdict.kind == "zp" and verdict.lim1_zero


def test_classify_constant_tower():
    verdict = classify_orders((3,) * 7, ml_index=2)
    assert verdict.kind == "finite" and verdict.h == 3


def test_classify_all_trivial():
    verdict = classify_orders((0, 0, 0), ml_index=2)
    assert verdict.kind == "finite" and verdict.h == 0


def test_classify_refuses_ambiguous_growth():
    with pytest.raises(ClassificationRefusedError):
        classify_orders((0, 1, 1, 2, 2, 3), ml_index=2)


def test_limit_classify_on_real_tower():
    levels = [e for e in range(2, 29) if e % 3]
    tower = build_tower(3, 1, Orbit(1), levels)
    verdict = limit_classify(stabilized_images(tower, 28))
    # probe-scale judgment: orders settle at 3 over the settled window
    assert verdict.kind == "finite" and verdict.h == 3


def test_tr_groups_odd_certificate():
    result = tr_groups(3, 0, AlphaBounds(), 30)
    assert result.odd.degree == -1
    assert result.odd.zero and result.odd.lim1_zero
    assert result.weight == 1
    assert result.odd.orbits_checked > 0


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


def test_tr_groups_refuses_a_probe_without_levels():
    # p=2 and probe 2 leave no level coprime to p, so there is no evidence
    # for the odd-degree certificate; probe 3 has the level 3
    with pytest.raises(ValueError, match="no level in"):
        tr_groups(2, 1, AlphaBounds(), 2)
    assert tr_groups(2, 1, AlphaBounds(), 3).odd.orbits_checked > 0


def test_refusals_are_recorded_not_raised():
    result = tr_groups(3, 0, AlphaBounds(), 30)
    kinds = {type(res) for _, res in result.even}
    if result.refused:
        assert RefusedClassification in kinds


def test_refusal_evidence_is_the_settled_orders():
    # p=3, weight 1, orbit m=7: two trailing levels are unsettled at probe 30,
    # and the refusal must cite only the orders it was drawn from
    result = tr_groups(3, 0, AlphaBounds(), 30)
    verdict = dict(result.even)[Orbit(7)]
    assert isinstance(verdict, RefusedClassification)
    levels = [e for e in range(2, 31) if e % 3]
    stab = stabilized_images(build_tower(3, 1, Orbit(7), levels), 30)
    settled = tuple(rec.image_order_exponent for rec in stab.per_level if rec.settled)
    assert len(settled) < len(stab.per_level)
    assert verdict.evidence == settled
    assert str(settled) in verdict.reason


def test_tower_orbits_is_the_sorted_union_over_levels():
    bounds = AlphaBounds(("t",), 1, 1)
    levels = [2, 4, 5]
    orbits = tower_orbits(3, 1, bounds, levels)
    union = {
        sm.orbit for e in levels for sm in enumerate_orbits(TruncationParams(3, e, 1), bounds)
    }
    assert set(orbits) == union
    assert len(orbits) == len(union)
    assert orbits == sorted(orbits, key=lambda o: o.sort_key())
    assert tower_orbits(3, 0, bounds, levels) == []


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
            images.append(h if v is None or h == 0 else image_exponent(h_f, h, v))
        pairwise.append(tuple(images))
    s_max = max(h1_syntomic_orbit(TruncationParams(3, e, 2), orbit).s for e in levels)
    monkeypatch.setattr(prosystem_module, "orbit_summands", counting)
    monkeypatch.setattr(padic_module.MultiIndex, "floor_l1", counting_floor)
    monkeypatch.setattr(prosystem_module, "h1_syntomic_orbit", forbidden)
    monkeypatch.setattr(prosystem_module, "tr_valuation", forbidden)
    # the tower's own summands are reused: one walk per level in all, and
    # each alpha floor read at most once
    stab = stabilized_images(build_tower(3, 2, orbit, levels), 20)
    assert sorted(walked) == levels
    assert len(floors) <= s_max + 1
    assert [rec.images for rec in stab.per_level] == pairwise
    # a tower on fewer levels: only the probed levels it lacks are walked,
    # in one more walk with its own floors
    walked.clear()
    floors.clear()
    stab = stabilized_images(build_tower(3, 2, orbit, levels[:5]), 20)
    assert sorted(walked) == levels
    assert len(floors) <= 2 * (s_max + 1)
    assert [rec.images for rec in stab.per_level] == pairwise[:5]
