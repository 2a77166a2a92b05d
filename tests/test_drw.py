"""Shared complex data: job parameters, cyclic Witt modules, and the
Nygaard exponents of one orbit level."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trcalc.drw import CyclicWittModule, TruncationParams, nygaard_exponents
from trcalc.padic import MultiIndex, PAdicFraction, Prime


def _alpha(n: int) -> MultiIndex:
    return MultiIndex.from_dict({"t": PAdicFraction(n, 0)})


def test_truncation_params_validates_prime():
    with pytest.raises(ValueError):
        TruncationParams(6, 2, 1)


def test_truncation_params_is_an_immutable_value_record():
    # keyword and positional construction agree; values compare and hash
    # equal, the repr names the fields, p becomes a Prime, and nothing can
    # be assigned
    params = TruncationParams(p=2, e=3, i=2)
    assert params == TruncationParams(2, 3, 2) and hash(params) == hash(TruncationParams(2, 3, 2))
    assert params != TruncationParams(2, 5, 2)
    assert len({params, TruncationParams(2, 3, 2), TruncationParams(3, 2, 2)}) == 2
    assert repr(params) == "TruncationParams(p=2, e=3, i=2)"
    assert type(params.p) is Prime and type(TruncationParams(Prime(5), 2, 1).p) is Prime
    assert (params.p, params.e, params.i) == (2, 3, 2)
    for name in ("p", "e", "i"):
        with pytest.raises(AttributeError):
            setattr(params, name, 7)
    with pytest.raises(AttributeError):
        params.extra = 1


@pytest.mark.parametrize(
    "change,message",
    [({"e": 0}, "truncation exponent e must be >= 1"), ({"i": -1}, "weight i must be a natural number"), ({"p": 4}, "4 is not prime")],
)
def test_truncation_params_replace_checks_as_construction_does(change, message):
    params = TruncationParams(2, 3, 2)
    with pytest.raises(ValueError, match=message):
        params._replace(**change)
    with pytest.raises(ValueError, match=message):
        TruncationParams(**{"p": 2, "e": 3, "i": 2, **change})
    assert params._replace(e=5) == TruncationParams(2, 5, 2)
    assert type(params._replace(p=3).p) is Prime


def test_nygaard_exponents_formula():
    # (max(i - floor(m/e) - L, 0), max(i - ceil(m/e) - L, 0))
    # on plain ints (i, e, m, L), read at weight i and truncation e
    assert nygaard_exponents(2, 2, 1, 0) == (2, 1)
    assert nygaard_exponents(1, 2, 4, 0) == (0, 0)
    assert nygaard_exponents(3, 3, 2, _alpha(1).floor_l1(3, 0)) == (2, 1)


def test_nygaard_exponents_clamp_is_ordered():
    # first coordinate is never smaller than the second
    for i in range(5):
        for e in (2, 3, 5):
            for m in range(1, 20):
                u0, u1 = nygaard_exponents(i, e, m, 0)
                assert u0 >= u1 >= 0


@settings(max_examples=200)
@given(
    st.integers(1, 9),
    st.integers(0, 6),
    st.integers(1, 60),
    st.integers(0, 6),
)
def test_nygaard_exponents_match_exact_floor_and_ceiling(e, i, m, L):
    """Both scalings against floor/ceil of m/e taken with stdlib fractions;
    the prime plays no part, so none is passed."""
    x = Fraction(m, e)
    expected = (max(i - math.floor(x) - L, 0), max(i - math.ceil(x) - L, 0))
    assert nygaard_exponents(i, e, m, L) == expected


def test_cyclic_witt_module_str():
    assert str(CyclicWittModule(0)) == "0"
    assert str(CyclicWittModule(3)) == "W(k)/p^3"
    assert CyclicWittModule(0).is_trivial()
    assert not CyclicWittModule(1).is_trivial()
