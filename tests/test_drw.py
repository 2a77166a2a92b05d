"""Shared complex data: job parameters, cyclic Witt modules, and the
Nygaard exponents of one orbit level."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trcalc.drw import CyclicWittModule, TruncationParams, nygaard_exponents
from trcalc.padic import MultiIndex, PAdicFraction


def _alpha(n: int) -> MultiIndex:
    return MultiIndex.from_dict({"t": PAdicFraction(n, 0)})


def test_truncation_params_validates_prime():
    with pytest.raises(ValueError):
        TruncationParams(6, 2, 1)


def test_nygaard_exponents_formula():
    # (max(i - floor(m/e) - L, 0), max(i - ceil(m/e) - L, 0))
    assert nygaard_exponents(TruncationParams(3, 2, 2), 1, 0) == (2, 1)
    assert nygaard_exponents(TruncationParams(2, 2, 1), 4, 0) == (0, 0)
    assert nygaard_exponents(TruncationParams(3, 3, 3), 2, _alpha(1).floor_l1(3, 0)) == (2, 1)


def test_nygaard_exponents_clamp_is_ordered():
    # first coordinate is never smaller than the second
    for i in range(5):
        for e in (2, 3, 5):
            for m in range(1, 20):
                u0, u1 = nygaard_exponents(TruncationParams(3, e, i), m, 0)
                assert u0 >= u1 >= 0


@settings(max_examples=200)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 9),
    st.integers(0, 6),
    st.integers(1, 60),
    st.integers(0, 6),
)
def test_nygaard_exponents_match_exact_floor_and_ceiling(p, e, i, m, L):
    """Both scalings against floor/ceil of m/e taken with stdlib fractions."""
    x = Fraction(m, e)
    expected = (max(i - math.floor(x) - L, 0), max(i - math.ceil(x) - L, 0))
    assert nygaard_exponents(TruncationParams(p, e, i), m, L) == expected


def test_cyclic_witt_module_str():
    assert str(CyclicWittModule(0)) == "0"
    assert str(CyclicWittModule(3)) == "W(k)/p^3"
    assert CyclicWittModule(0).is_trivial()
    assert not CyclicWittModule(1).is_trivial()
