"""Closed-form orbit cohomology, including the independent unit-group
cross-check at weight 1.

At weight 1 the degree-1 group of the reduced complex for F_p[x]/x^e is
the relative unit group 1 + (x), which a few lines of direct polynomial
arithmetic can enumerate; no shared code with the closed forms."""

import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trcalc.drw as drw_module
from trcalc.drw import TruncationParams, degree1_exponent
from trcalc.oracle import TransitionOracle, certify_kernel_generator, default_truncation, fiber_cohomology
from trcalc.padic import MultiIndex, PAdicFraction, brace, vp
from trcalc.prosystem import tr_valuation
from trcalc.syntomic import (
    AlphaBounds,
    Orbit,
    enumerate_alphas,
    enumerate_orbits,
    h1_syntomic_orbit,
    level_summand,
    orbit_summands,
    s_function,
)

EMPTY = MultiIndex()


def _alpha(**entries) -> MultiIndex:
    return MultiIndex.from_dict(
        {slot: PAdicFraction(num, pexp) for slot, (num, pexp) in entries.items()}
    )


def test_s_function_examples():
    assert s_function(TruncationParams(3, 2, 1), 1) == 1
    assert s_function(TruncationParams(2, 2, 1), 1) == 2
    assert s_function(TruncationParams(2, 3, 1), 5) == 0


def test_s_function_alpha_lowers():
    params = TruncationParams(2, 3, 2)
    assert s_function(params, 1) == 3
    assert s_function(params, 1, _alpha(t=(1, 0))) == 1


def test_h1_syntomic_orbit_examples():
    assert h1_syntomic_orbit(TruncationParams(3, 2, 1), Orbit(1)).module.h == 1
    assert h1_syntomic_orbit(TruncationParams(2, 3, 1), Orbit(1)).module.h == 2
    assert h1_syntomic_orbit(TruncationParams(3, 2, 1), Orbit(2)).module.h == 0


def test_orbit_validation():
    with pytest.raises(ValueError):
        Orbit(3).validate(3)
    with pytest.raises(ValueError):
        Orbit(0).validate(2)


def _generator(params, orbit):
    return h1_syntomic_orbit(params, orbit).generator_exponents


def test_kernel_generator_examples():
    assert _generator(TruncationParams(3, 2, 1), Orbit(1)) == (0,)
    assert _generator(TruncationParams(2, 2, 1), Orbit(1)) == (0, 0)
    assert _generator(TruncationParams(2, 3, 2), Orbit(1)) == (0, 0, 1)
    assert _generator(TruncationParams(2, 3, 1), Orbit(5)) == ()


def test_kernel_generator_rejects_trivial():
    params = TruncationParams(2, 3, 1)
    trunc = default_truncation(params, Orbit(5))
    summand = h1_syntomic_orbit(params, Orbit(5))  # s = 0
    with pytest.raises(ValueError):
        certify_kernel_generator(fiber_cohomology(params, trunc), summand)


def test_enumerate_orbits_examples():
    got = [(sm.orbit.m, sm.module.h) for sm in enumerate_orbits(TruncationParams(3, 2, 1))]
    assert got == [(1, 1)]
    got = [(sm.orbit.m, sm.module.h) for sm in enumerate_orbits(TruncationParams(2, 3, 2))]
    assert got == [(1, 3), (5, 1)]
    got = [(sm.orbit.m, sm.module.h) for sm in enumerate_orbits(TruncationParams(3, 2, 2))]
    assert got == [(1, 2)]


def test_alpha_bounds_without_slots_rejected():
    # with no slot the bounds would be read by nothing
    for num_max, pexp_max in [(3, 0), (0, 1)]:
        with pytest.raises(ValueError):
            AlphaBounds((), num_max, pexp_max)


def test_enumerate_alphas_window():
    bounds = AlphaBounds(("t",), 3, 1)
    alphas = list(enumerate_alphas(bounds, 2))
    # zero plus num in {1, 3} (odd) times pexp in {0, 1}
    assert len(alphas) == 5
    assert EMPTY in alphas


# -- independent weight-1 oracle: unit groups of F_p[x]/x^e ---------------


def _poly_mul_mod(a, b, e, p):
    out = [0] * e
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if i + j < e:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _unit_group_orders(p, e):
    """Multiset of element orders of 1 + (x) inside (F_p[x]/x^e)^*."""
    group = []
    for coeffs in itertools.product(range(p), repeat=e - 1):
        group.append([1, *coeffs])
    one = [1] + [0] * (e - 1)
    orders = []
    for g in group:
        acc, order = g, 1
        while acc != one:
            acc = _poly_mul_mod(acc, g, e, p)
            order += 1
        orders.append(order)
    return sorted(orders)


def _orders_of_abelian_p_group(exponents, p):
    """Element orders of a direct sum of Z/p^h, h in exponents."""
    orders = []
    for combo in itertools.product(*[range(p**h) for h in exponents]):
        order = 1
        for val, h in zip(combo, exponents):
            if val:
                ordv = p**h // math.gcd(val, p**h)
                order = order * ordv // math.gcd(order, ordv)
        orders.append(order)
    return sorted(orders)


@pytest.mark.parametrize(
    "p,e",
    [(3, 2), (2, 3), (2, 4), (3, 3), (5, 2), (2, 5), (3, 4), (5, 3), (7, 2)],
)
def test_weight1_matches_unit_group(p, e):
    summands = enumerate_orbits(TruncationParams(p, e, 1))
    exponents = sorted((sm.module.h for sm in summands), reverse=True)
    assert _unit_group_orders(p, e) == _orders_of_abelian_p_group(exponents, p)


def test_k1_exact_values():
    # K_1(F_3[x]/x^2, (x)) = Z/3 and K_1(F_2[x]/x^3, (x)) = Z/4
    assert [sm.module.h for sm in enumerate_orbits(TruncationParams(3, 2, 1))] == [1]
    assert [sm.module.h for sm in enumerate_orbits(TruncationParams(2, 3, 1))] == [2]


# -- randomized property suites -------------------------------------------

GRID_PARAMS = st.tuples(
    st.sampled_from([2, 3, 5]), st.integers(2, 12), st.integers(0, 5), st.integers(1, 40)
)


@settings(max_examples=300)
@given(GRID_PARAMS, st.integers(1, 6), st.integers(0, 3))
def test_s_monotone_in_e(args, num, pexp):
    p, e, i, m = args
    if m % p == 0:
        m += 1
    for alpha in (MultiIndex(), MultiIndex.from_dict({"t": PAdicFraction.make(num, pexp, p)})):
        a = s_function(TruncationParams(p, e, i), m, alpha)
        b = s_function(TruncationParams(p, e + 1, i), m, alpha)
        assert b >= a


def test_transition_oracle_is_sized_by_its_longest_walk():
    # the oracle sizes every level by its top one; with s monotone in e
    # that is the truncation of the level whose walk is longest
    bounds = AlphaBounds(("t",), 2, 1)
    for p, i in itertools.product((2, 3, 5), range(4)):
        for alpha in enumerate_alphas(bounds, p):
            for m, e0 in itertools.product((1, 2, 4, 7), range(2, 9)):
                levels = [e for e in range(e0, e0 + 5) if e % p]
                if m % p == 0 or not levels:
                    continue
                orbit = Orbit(m, alpha)
                truncs = [default_truncation(TruncationParams(p, e, i), orbit) for e in levels]
                longest = max(truncs, key=lambda t: t.A)
                assert TransitionOracle(p, i, orbit, levels[::-1]).trunc == longest


@settings(max_examples=300)
@given(GRID_PARAMS, st.integers(0, 6), st.integers(0, 3))
def test_s_antitone_in_alpha(args, num, pexp):
    p, e, i, m = args
    if m % p == 0:
        m += 1
    alpha = MultiIndex.from_dict({"t": PAdicFraction.make(num, pexp, p)})
    params = TruncationParams(p, e, i)
    assert s_function(params, m, alpha) <= s_function(params, m)


@settings(max_examples=300)
@given(GRID_PARAMS)
def test_h_is_s_or_zero(args):
    p, e, i, m = args
    if m % p == 0 or e % p == 0:
        return
    sm = h1_syntomic_orbit(TruncationParams(p, e, i), Orbit(m))
    assert sm.module.h == (0 if m % e == 0 else sm.s)


def test_orbit_summands_read_h_off_s_at_every_level():
    # h = v_p(brace(p^s m, e)) at levels prime to p and at levels divisible
    # by p, which `syntomic` and `kgroups` read; there "h is s, or 0 when
    # e | m" is wrong wherever e | p^s m but not m and s != v_p(e)
    levels = (1, 2, 3, 4, 5, 7, 8, 9, 25, 27)
    off_the_coprime_rule = 0
    for p in (2, 3, 5):
        for i, alpha in itertools.product(range(5), (EMPTY, _alpha(t=(1, 1)))):
            for m in (m for m in range(1, 3 * i * levels[-1] + 2) if m % p):
                for e, sm in zip(levels, orbit_summands(p, i, Orbit(m, alpha), levels)):
                    assert sm.module.h == vp(brace(p**sm.s * m, e), p)
                    off_the_coprime_rule += sm.module.h != (0 if m % e == 0 else sm.s)
    assert off_the_coprime_rule > 0


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 5]), st.integers(2, 9), st.integers(0, 5))
def test_total_exponent_identity(p, e, i):
    if e % p == 0:
        return
    total = sum(sm.module.h for sm in enumerate_orbits(TruncationParams(p, e, i)))
    assert total == i * (e - 1)


@settings(max_examples=300)
@given(GRID_PARAMS, st.integers(1, 30), st.integers(0, 6), st.integers(0, 3))
def test_generator_suffix_is_the_transition_sum(args, df, num, pexp):
    # the source generator's scaling at level s_e - 1 is the sum of the
    # level-f degree-1 exponents over [s_e, s_f), which tr_valuation reads
    p, e, i, m = args
    f = e + df
    if m % p == 0:
        m += 1
    alpha = MultiIndex.from_dict({"t": PAdicFraction.make(num, pexp, p)})
    params_f = TruncationParams(p, f, i)
    sm_e = h1_syntomic_orbit(TruncationParams(p, e, i), Orbit(m, alpha))
    sm_f = h1_syntomic_orbit(params_f, Orbit(m, alpha))
    if sm_e.s == 0:
        return
    assert sm_f.s >= sm_e.s
    witness = sum(
        degree1_exponent(i, f, p**j * m, alpha.floor_l1(p, j)) for j in range(sm_e.s, sm_f.s)
    )
    assert sm_f.generator_exponents[sm_f.s - sm_e.s] == witness


def test_summand_cache_is_bounded():
    maxsize = level_summand.cache_info().maxsize
    assert maxsize is not None and maxsize >= 18


def test_summand_cache_misses_once_per_level():
    # shaped like acceptance criterion 5: every pair's tr_valuation plus the
    # two direct summand reads per pair, all through the one cache
    p, i, orbit = 3, 2, Orbit(1)
    levels = [e for e in range(2, 17) if e % p]
    level_summand.cache_clear()
    for e, f in itertools.combinations(levels, 2):
        tr_valuation(TruncationParams(p, e, i), f, orbit)
        h1_syntomic_orbit(TruncationParams(p, e, i), orbit)
        h1_syntomic_orbit(TruncationParams(p, f, i), orbit)
    info = level_summand.cache_info()
    pairs = len(levels) * (len(levels) - 1) // 2
    assert info.misses == len(levels)
    assert info.hits + info.misses == 4 * pairs


def test_pair_reads_build_no_truncation_params(monkeypatch):
    # the pair path passes p, the levels and the weight as plain ints: only
    # the caller's own parameters are built
    p, i, orbit = 2, 2, Orbit(3, _alpha(t=(1, 1)))
    levels = [e for e in range(3, 16) if e % p]
    params = {e: TruncationParams(p, e, i) for e in levels}
    built = []
    real = drw_module.TruncationParams.__new__

    def counting(cls, p, e, i):
        built.append((p, e, i))
        return real(cls, p, e, i)

    monkeypatch.setattr(drw_module.TruncationParams, "__new__", counting)
    level_summand.cache_clear()
    for e, f in itertools.combinations(levels, 2):
        tr_valuation(params[e], f, orbit)
        h1_syntomic_orbit(params[e], orbit)
    assert built == []
    assert level_summand.cache_info().misses == len(levels)


def test_orbit_hash_is_recomputed_after_pickle_and_copy():
    # an orbit stores its hash on first use; a copy or an unpickled orbit
    # carries no stored value and hashes like a fresh equal orbit
    orbit = Orbit(5, _alpha(t=(1, 1), u=(2, 0)))
    h = hash(orbit)
    assert hash(orbit) == h == hash(Orbit(5, _alpha(t=(1, 1), u=(2, 0))))
    for other in (copy.copy(orbit), copy.deepcopy(orbit), pickle.loads(pickle.dumps(orbit))):
        assert other == orbit and "_hash" not in other.__dict__
        assert hash(other) == hash(Orbit(5, _alpha(t=(1, 1), u=(2, 0))))
    assert {orbit: 1}[copy.deepcopy(orbit)] == 1


def test_summand_cache_rejects_bad_orbit_every_call():
    params = TruncationParams(3, 2, 1)
    for _ in range(2):
        with pytest.raises(ValueError):
            h1_syntomic_orbit(params, Orbit(3))


def test_cached_summands_equal_uncached():
    alphas = [EMPTY, _alpha(t=(1, 1)), _alpha(t=(2, 0), u=(1, 2))]
    for p, e, i, m, alpha in itertools.product((2, 3, 5), range(1, 8), range(4), range(1, 9), alphas):
        if m % p == 0:
            continue
        params, orbit = TruncationParams(p, e, i), Orbit(m, alpha)
        cached = h1_syntomic_orbit(params, orbit)
        assert cached == level_summand.__wrapped__(p, e, i, orbit)
        assert h1_syntomic_orbit(params, orbit) is cached
        assert level_summand(p, e, i, orbit) is cached
