"""Valuations, factorial ratios, and p-adic fraction plumbing."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trcalc.padic import (
    MultiIndex,
    PAdicFraction,
    Prime,
    brace,
    ceil_div,
    factorial_ratio,
    vp,
    vp_factorial,
)

PRIMES = st.sampled_from([2, 3, 5, 7, 11])


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of n >= 0."""
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def legendre_vp_factorial(n: int, p: int) -> int:
    """v_p(n!) via the Legendre formula (n - digit_sum_p(n)) / (p - 1)."""
    if n < 0:
        raise ValueError("n must be a natural number")
    return (n - digit_sum(n, p)) // (p - 1)


def test_prime_validates():
    assert Prime(2) == 2
    assert Prime(97) == 97
    for bad in (0, 1, 4, 9, 91):
        with pytest.raises(ValueError):
            Prime(bad)


def test_vp_examples():
    assert vp(18, 3) == 2
    assert vp(12, 2) == 2
    assert vp(7, 5) == 0


def test_vp_rejects_zero():
    with pytest.raises(ValueError):
        vp(0, 2)


def test_legendre_examples():
    assert legendre_vp_factorial(5, 2) == 3
    assert legendre_vp_factorial(9, 3) == 4
    assert legendre_vp_factorial(0, 7) == 0


@settings(max_examples=200)
@given(st.integers(0, 400), PRIMES)
def test_legendre_matches_direct_factorial(n, p):
    assert legendre_vp_factorial(n, p) == (n - digit_sum(n, p)) // (p - 1)
    assert legendre_vp_factorial(n, p) == (vp(math.factorial(n), p) if n > 1 else 0)


def test_vp_factorial_on_a_grid():
    for p in (2, 3, 5, 7, 11):
        for n in range(300):
            assert vp_factorial(n, p) == vp(math.factorial(n), p)
    assert vp_factorial(0, 2) == vp_factorial(1, 2) == 0
    with pytest.raises(ValueError):
        vp_factorial(-1, 3)


@settings(max_examples=200)
@given(st.integers(0, 3000), PRIMES)
def test_vp_factorial_is_the_valuation_of_the_factorial(n, p):
    assert vp_factorial(n, p) == vp(math.factorial(n), p)
    assert vp_factorial(n, p) == legendre_vp_factorial(n, p)


def test_factorial_ratio():
    assert factorial_ratio(5, 2) == 3 * 4 * 5
    assert factorial_ratio(4, 4) == 1
    with pytest.raises(ValueError):
        factorial_ratio(2, 5)


@settings(max_examples=200)
@given(st.integers(0, 3000), st.integers(0, 3000))
def test_factorial_ratio_is_the_range_product(a, b):
    if b > a:
        with pytest.raises(ValueError):
            factorial_ratio(a, b)
        return
    expected = 1
    for k in range(b + 1, a + 1):
        expected *= k
    assert factorial_ratio(a, b) == expected


def test_brace_symbol():
    # value is m when e does not divide m, else e
    assert brace(3, 2) == 3
    assert brace(6, 3) == 3
    assert brace(6, 4) == 6
    assert brace(6, 2) == 2


def test_ceil_div():
    assert ceil_div(7, 2) == 4
    assert ceil_div(6, 2) == 3
    assert ceil_div(1, 5) == 1


def test_fraction_floor():
    assert PAdicFraction(7, 1).floor(2, 0) == 3
    assert PAdicFraction(0, 0).floor(2, 0) == 0
    assert PAdicFraction(5, 0).floor(3, 0) == 5


def test_fraction_normalization():
    frac = PAdicFraction.make(6, 1, 3)
    assert (frac.num, frac.pexp) == (2, 0)
    zero = PAdicFraction.make(0, 4, 3)
    assert (zero.num, zero.pexp) == (0, 0)


def test_multi_index_floor_l1():
    alpha = MultiIndex.from_dict({"t1": PAdicFraction(3, 1), "t2": PAdicFraction(1, 2)})
    assert alpha.floor_l1(2, 0) == 1
    assert MultiIndex().floor_l1(2, 0) == 0
    assert MultiIndex.from_dict({"t": PAdicFraction(5, 0)}).floor_l1(2, 0) == 5


@settings(max_examples=300)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 8),
    st.lists(st.tuples(st.integers(1, 200), st.integers(0, 6)), max_size=3),
)
def test_multi_index_floor_l1_at_level(p, a, pairs):
    """floor_l1(p, a) is the l1 floor of p^a * alpha, read off the (num, pexp)
    pairs; stdlib fractions give the witness."""
    alpha = MultiIndex.from_dict(
        {f"t{k}": PAdicFraction.make(num, pexp, p) for k, (num, pexp) in enumerate(pairs)}
    )
    expected = sum(math.floor(Fraction(num * p**a, p**pexp)) for num, pexp in pairs)
    assert alpha.floor_l1(p, a) == expected


def test_multi_index_drops_zero_entries():
    alpha = MultiIndex.from_dict({"t": PAdicFraction(0, 0), "u": PAdicFraction(1, 1)})
    assert [slot for slot, _ in alpha.entries] == ["u"]


@settings(max_examples=200)
@given(st.integers(1, 10**6), st.integers(1, 50), PRIMES)
def test_vp_multiplicativity(a, b, p):
    assert vp(a * b, p) == vp(a, p) + vp(b, p)


@settings(max_examples=200)
@given(st.integers(0, 200), st.integers(0, 200), PRIMES)
def test_factorial_ratio_valuation_via_legendre(a, b, p):
    lo, hi = min(a, b), max(a, b)
    ratio = factorial_ratio(hi, lo)
    val = vp(ratio, p) if ratio > 1 else 0
    assert val == legendre_vp_factorial(hi, p) - legendre_vp_factorial(lo, p)
