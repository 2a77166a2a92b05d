"""Acceptance gate: seven criteria, each printed as a single PASS/FAIL line.

Every closed-form claim is checked against an independent witness: the
brute-force Smith-normal-form oracle on the actual integer matrices, a
direct unit-group enumeration at weight 1, and randomized identity suites
with a fixed seed.  A failure here means the library's results cannot be
trusted; nothing in this file may be weakened to make it pass.
"""

import itertools
import math
import random
import sys
import time

import pytest

from trcalc.drw import TruncationParams
from trcalc.oracle import (
    DegenerateOrbitError,
    OrbitTruncation,
    TransitionOracle,
    certify_kernel_generator,
    default_truncation,
    fiber_cohomology,
    oracle_cohomology,
)
from trcalc.padic import MultiIndex, PAdicFraction, ceil_div, factorial_ratio, vp
from trcalc.prosystem import build_tower, stabilized_images, tr_groups, tr_valuation
from trcalc.syntomic import AlphaBounds, Orbit, enumerate_orbits, h1_syntomic_orbit, s_function

SEED = 20260824

GRID_P = (2, 3, 5)
GRID_E = range(2, 10)
GRID_I = range(0, 6)


def _announce(capsys, num: int, ok: bool, detail: str) -> None:
    # bypass pytest capture so each criterion leaves exactly one visible line
    with capsys.disabled():
        sys.stdout.write(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}\n")
        sys.stdout.flush()


def _grid_orbits():
    for p, e, i in itertools.product(GRID_P, GRID_E, GRID_I):
        params = TruncationParams(p, e, i)
        for m in range(1, i * e + 1):
            if m % p:
                yield params, Orbit(m)


def test_criterion_1_closed_form_vs_oracle(capsys):
    t0 = time.time()
    checked = 0
    ok = True
    for params, orbit in _grid_orbits():
        exps = fiber_cohomology(params, default_truncation(params, orbit)).exponents(params.p)
        h = h1_syntomic_orbit(params, orbit).module.h
        if exps != {0: (), 1: ((h,) if h else ()), 2: ()}:
            ok = False
            break
        checked += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    _announce(capsys, 1, ok, f"closed form == oracle on {checked} orbits, {elapsed:.1f}s")
    assert ok, f"closed-form/oracle mismatch or over budget ({elapsed:.1f}s)"


def _unit_group_orders(p: int, e: int) -> list[int]:
    """Element orders of 1 + (x) inside (F_p[x]/x^e)^*, by enumeration."""

    def mul(a, b):
        out = [0] * e
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if i + j < e:
                        out[i + j] = (out[i + j] + ai * bj) % p
        return out

    one = [1] + [0] * (e - 1)
    orders = []
    for coeffs in itertools.product(range(p), repeat=e - 1):
        g = [1, *coeffs]
        acc, order = g, 1
        while acc != one:
            acc = mul(acc, g, )
            order += 1
        orders.append(order)
    return sorted(orders)


def _cyclic_orders(divisors: list[int]) -> list[int]:
    """Element orders of a direct sum of Z/d, d in divisors."""
    orders = []
    for combo in itertools.product(*[range(d) for d in divisors]):
        order = 1
        for val, d in zip(combo, divisors):
            if val:
                o = d // math.gcd(val, d)
                order = order * o // math.gcd(order, o)
        orders.append(order)
    return sorted(orders)


def _oracle_k_group(p: int, e: int, weight: int) -> list[int]:
    """Elementary divisors of K_{2*weight-1}(F_p[x]/x^e, (x)) from the
    per-orbit oracle, largest first."""
    params = TruncationParams(p, e, weight)
    divisors = []
    for summand in enumerate_orbits(params):
        exps = oracle_cohomology(params, default_truncation(params, summand.orbit))
        divisors.extend(p**a for a in exps[1])
    return sorted(divisors, reverse=True)


def test_criterion_2_exact_k_groups(capsys):
    # K_1 via independent unit-group enumeration
    k1_a = _unit_group_orders(3, 2)  # 1+(x) in F_3[x]/x^2
    k1_b = _unit_group_orders(2, 3)  # 1+(x) in F_2[x]/x^3
    ok = k1_a == _cyclic_orders([3])
    ok = ok and k1_b == _cyclic_orders([4])
    # K_3 via the SNF oracle
    ok = ok and _oracle_k_group(3, 2, 2) == [9]
    k3_b = _oracle_k_group(2, 3, 2)
    ok = ok and k3_b == [8, 2] and math.prod(k3_b) == 16
    _announce(capsys, 2, ok, "K1(F3[x]/x^2)=Z/3, K1(F2[x]/x^3)=Z/4, K3=Z/9 and Z/8+Z/2")
    assert ok


def test_criterion_3_total_order(capsys):
    checked = 0
    ok = True
    for p, e, i in itertools.product(GRID_P, GRID_E, GRID_I):
        if e % p == 0:
            continue
        total = sum(sm.module.h for sm in enumerate_orbits(TruncationParams(p, e, i)))
        if total != i * (e - 1):
            ok = False
            break
        checked += 1
    _announce(capsys, 3, ok, f"sum of exponents == i*(e-1) on {checked} (p,e,i) cells")
    assert ok


def test_criterion_4_kernel_generator(capsys):
    checked = 0
    ok = True
    for params, orbit in _grid_orbits():
        summand = h1_syntomic_orbit(params, orbit)
        if summand.s < 1:
            continue
        trunc = default_truncation(params, orbit)
        if not certify_kernel_generator(fiber_cohomology(params, trunc), summand):
            ok = False
            break
        checked += 1
    _announce(capsys, 4, ok, f"kernel generator certified on {checked} orbits with s >= 1")
    assert ok


def _alpha_window(p: int):
    """T = empty plus T = one slot with numerator <= 4, pexp <= 2."""
    seen = {MultiIndex()}
    for num, pexp in itertools.product(range(1, 5), range(0, 3)):
        frac = PAdicFraction.make(num, pexp, p)
        seen.add(MultiIndex.from_dict({"t": frac}))
    return sorted(seen, key=str)


def test_criterion_5_transition_formula(capsys):
    t0 = time.time()
    levels_by_p = {p: [e for e in range(2, 29) if e % p] for p in (2, 3)}
    checked = degenerate = 0
    ok = True
    for p in (2, 3):
        levels = levels_by_p[p]
        for i in range(1, 5):
            for m in range(1, i * levels[-2] + 1):
                if m % p == 0:
                    continue
                for alpha in _alpha_window(p):
                    orbit = Orbit(m, alpha)
                    sub = [e for e in levels if i * e >= m]
                    if len(sub) < 2:
                        continue
                    oracle = TransitionOracle(p, i, orbit, sub)
                    for e, f in itertools.combinations(sub, 2):
                        params = TruncationParams(p, e, i)
                        v = tr_valuation(params, f, orbit)
                        h_e = h1_syntomic_orbit(params, orbit).module.h
                        if v is None:
                            ok = ok and h_e == 0
                            degenerate += 1
                            continue
                        h_f = h1_syntomic_orbit(TruncationParams(p, f, i), orbit).module.h
                        if h_f == 0:
                            # trivial source: the closed form must predict a
                            # zero observable image
                            ok = ok and min(v, h_e) == h_e
                            degenerate += 1
                            continue
                        ok = ok and oracle.h_exponent(e) == h_e
                        ok = ok and min(v, h_e) == oracle.valuation(e, f)
                        checked += 1
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    _announce(capsys, 5,
        ok,
        f"transition valuation == oracle on {checked} pairs "
        f"(+{degenerate} degenerate), {elapsed:.1f}s",
    )
    assert ok, f"transition mismatch or over budget ({elapsed:.1f}s)"


def test_criterion_6_mittag_leffler_and_odd_vanishing(capsys):
    probe = 28
    certified = towers = 0
    ok = True
    for p in (2, 3):
        levels = [e for e in range(2, probe + 1) if e % p]
        for i in range(1, 5):
            for m in range(1, i * levels[-1] + 1):
                if m % p == 0:
                    continue
                for alpha in _alpha_window(p):
                    tower = build_tower(p, i, Orbit(m, alpha), levels)
                    # raises MLViolationError on any image change past the bound
                    stab = stabilized_images(tower, probe)
                    towers += 1
                    for rec in stab.per_level:
                        if rec.certified:
                            certified += 1
                            ok = ok and rec.ml_index <= rec.ml_bound
    odd_certs = 0
    for p in (2, 3):
        for i in range(0, 4):
            result = tr_groups(p, i, AlphaBounds(), probe)
            ok = ok and result.odd.zero and result.odd.lim1_zero
            ok = ok and result.odd.degree == 2 * i - 1
            odd_certs += 1
    _announce(capsys, 6,
        ok,
        f"no ML violation over {towers} towers, {certified} certified levels, "
        f"{odd_certs} odd-degree zero certificates",
    )
    assert ok


def test_criterion_7_identity_suites(capsys):
    rng = random.Random(SEED)
    ok = True

    # identity: v_p(floor(p*n)! / floor(n)!) = floor(n) on N[1/p]
    for _ in range(500):
        p = rng.choice(GRID_P)
        num, pexp = rng.randint(0, 200), rng.randint(0, 6)
        fl = num // p**pexp
        fl_p = num * p // p**pexp
        ok = ok and vp(factorial_ratio(fl_p, fl), p) == fl

    # identity: v_p(floor((p*m-1)/e)! / floor((m-1)/e)!) = ceil(m/e) - 1
    for _ in range(500):
        p = rng.choice(GRID_P)
        m, e = rng.randint(1, 200), rng.randint(1, 20)
        val = vp(factorial_ratio((p * m - 1) // e, (m - 1) // e), p)
        ok = ok and val == ceil_div(m, e) - 1

    # s-function: monotone in e, antitone in the multi-index
    for _ in range(500):
        p = rng.choice(GRID_P)
        e, i, m = rng.randint(2, 12), rng.randint(0, 5), rng.randint(1, 40)
        if m % p == 0:
            m += 1
        ok = ok and s_function(TruncationParams(p, e + 1, i), m) >= s_function(
            TruncationParams(p, e, i), m
        )
    for _ in range(500):
        p = rng.choice(GRID_P)
        e, i, m = rng.randint(2, 12), rng.randint(0, 5), rng.randint(1, 40)
        if m % p == 0:
            m += 1
        alpha = MultiIndex.from_dict(
            {"t": PAdicFraction.make(rng.randint(0, 6), rng.randint(0, 3), p)}
        )
        params = TruncationParams(p, e, i)
        ok = ok and s_function(params, m, alpha) <= s_function(params, m)

    # truncation stability (A -> A+1, N -> N+2) and H^k = 0 for k >= 2
    stable = 0
    for _ in range(500):
        p = rng.choice(GRID_P)
        e, i = rng.randint(2, 6), rng.randint(0, 3)
        m = rng.randint(1, 3 * e)
        if m % p == 0:
            m += 1
        alpha = MultiIndex()
        if rng.random() < 0.5:
            alpha = MultiIndex.from_dict(
                {"t": PAdicFraction.make(rng.randint(1, 4), rng.randint(0, 2), p)}
            )
        params = TruncationParams(p, e, i)
        orbit = Orbit(m, alpha)
        trunc = default_truncation(params, orbit)
        base = fiber_cohomology(params, trunc).exponents(p)
        grown = fiber_cohomology(params, OrbitTruncation(orbit, trunc.A + 1, trunc.N + 2)).exponents(p)
        ok = ok and base == grown
        ok = ok and base[0] == () and base[2] == ()
        stable += 1

    _announce(capsys, 7, ok, f"Legendre identities, s monotonicity, {stable} truncation-stable instances")
    assert ok
