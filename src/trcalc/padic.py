"""Exact p-adic arithmetic on naturals and p-power-denominator fractions.

Everything here is plain arbitrary-precision integer arithmetic: valuations
(of factorials by Legendre's formula), factorial ratios computed as range
products, and the two combinatorial gadgets the rest of the package is
built from -- fractions n/p^a in N[1/p] and finitely supported
multi-indices of such fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Prime(int):
    """A verified prime, usable anywhere a plain ``int`` is expected.

    Each value is tested once: `_checked` keeps the instance made for every
    prime seen so far, and a later call returns it without trial division.
    A value that is not prime is tested again on every call."""

    _checked: dict[int, "Prime"] = {}

    def __new__(cls, p: int) -> "Prime":
        p = int(p)
        known = cls._checked.get(p)
        if known is None:
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
            known = cls._checked[p] = super().__new__(cls, p)
        return known


def vp(n: int, p: int) -> int:
    """Largest a with p^a dividing n.  Rejects n = 0."""
    if n == 0:
        raise ValueError("v_p(0) is undefined here")
    n = abs(n)
    a = 0
    while n % p == 0:
        a += 1
        n //= p
    return a


def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) for n >= 0 by Legendre's formula, the sum over k >= 1 of
    floor(n / p^k), without forming n!."""
    if n < 0:
        raise ValueError(f"vp_factorial needs n >= 0, got n={n}")
    v = 0
    while n:
        n //= p
        v += n
    return v


def factorial_ratio(a: int, b: int) -> int:
    """Exact value of a!/b! for a >= b >= 0, the product over (b, a],
    which is the number of (a - b)-permutations of a."""
    if b > a:
        raise ValueError(f"factorial_ratio needs a >= b, got a={a}, b={b}")
    return math.perm(a, a - b)


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for b >= 1."""
    return -((-a) // b)


def brace(m: int, e: int) -> int:
    """The differential coefficient: m when e does not divide m, else e.

    Equivalently m * floor((m-1)/e)! / floor(m/e)!.  The m = 0 column is
    excluded from every reduced complex, so m = 0 is rejected.
    """
    if m < 1:
        raise ValueError("brace(m, e) needs m >= 1")
    if e < 1:
        raise ValueError("brace(m, e) needs e >= 1")
    return e if m % e == 0 else m


@dataclass(frozen=True, order=True)
class PAdicFraction:
    """An element num/p^pexp of N[1/p], kept normalized (p does not divide
    num unless num = 0, and 0 is stored as 0/p^0)."""

    num: int
    pexp: int

    @classmethod
    def make(cls, num: int, pexp: int, p: int) -> "PAdicFraction":
        if num < 0 or pexp < 0:
            raise ValueError("num and pexp must be natural numbers")
        if num == 0:
            return cls(0, 0)
        while pexp > 0 and num % p == 0:
            num //= p
            pexp -= 1
        return cls(num, pexp)

    def is_zero(self) -> bool:
        return self.num == 0

    def floor(self, p: int, a: int) -> int:
        """floor(p^a * num/p^pexp), read off the pair without rescaling it."""
        if a >= self.pexp:
            return self.num * p ** (a - self.pexp)
        return self.num // p ** (self.pexp - a)

    def __str__(self) -> str:
        if self.pexp == 0:
            return str(self.num)
        return f"{self.num}/p^{self.pexp}"


@dataclass(frozen=True)
class MultiIndex:
    """A finitely supported tuple of N[1/p] entries keyed by slot name.

    Zero entries are erased and slots are kept in lexicographic order, so
    equal multi-indices compare equal and print deterministically.
    """

    entries: tuple[tuple[str, PAdicFraction], ...] = ()

    def __post_init__(self) -> None:
        slots = [slot for slot, _ in self.entries]
        if slots != sorted(slots) or len(set(slots)) != len(slots):
            raise ValueError("slots must be distinct and sorted")
        if any(frac.is_zero() for _, frac in self.entries):
            raise ValueError("zero entries must be erased")

    @classmethod
    def from_dict(cls, entries: Mapping[str, PAdicFraction]) -> "MultiIndex":
        kept = sorted((slot, frac) for slot, frac in entries.items() if not frac.is_zero())
        return cls(tuple(kept))

    def floor_l1(self, p: int, a: int) -> int:
        """Sum over the entries of floor(p^a * entry)."""
        return sum(frac.floor(p, a) for _, frac in self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "{}"
        inner = ", ".join(f"{slot}: {frac}" for slot, frac in self.entries)
        return "{" + inner + "}"
