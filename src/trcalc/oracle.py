"""Brute-force verification by exact linear algebra.

For one orbit truncated at level A, the two-term complexes at the levels
(p^a m, p^a alpha), a = 0..A, are materialized as integer matrices: the
differential, the divided Frobenius (level a -> a+1, with contributions
exiting level A dropped), and the canonical inclusion of the weight-i
filtered subcomplex.  The mapping fiber of (divided Frobenius - canonical)
is assembled as a three-term cochain complex over Z/p^N and its cohomology
is computed by Smith normal form over Z/p^N.  The matrices use only the
Nygaard exponents, the brace symbol and factorial ratios; from the closed
forms being checked the oracle reads `s_function` (truncation sizes), the
summand's generator exponents (the generator it certifies) and, in
`verify_orbit`, the summand it compares against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product

from .drw import TruncationParams, nygaard_exponents
from .padic import brace, factorial_ratio
from .snf import (
    Matrix,
    QuotientPresentation,
    columns,
    hstack,
    kernel_mod,
    mat_vec,
    quotient,
    smith_mod_prime_power,
    solve_in_lattice,
)
from .syntomic import Orbit, h1_syntomic_orbit, s_function


class OracleError(Exception):
    pass


class TruncationInstabilityError(OracleError):
    """Cohomology changed under enlarging the truncation; the input breaks
    the headroom invariants."""


class DegenerateOrbitError(OracleError):
    """A transition valuation was requested where one side is trivial."""


@dataclass(frozen=True)
class OrbitTruncation:
    """Work on levels 0..A, with all arithmetic modulo p^N."""

    orbit: Orbit
    A: int
    N: int

    def validate(self, params: TruncationParams) -> None:
        self.orbit.validate(params.p)
        s = s_function(params, self.orbit.m, self.orbit.alpha)
        if self.A < s + 2:
            raise ValueError(f"truncation level A={self.A} below required {s + 2}")
        if self.N <= params.i * (self.A + 1) + 4:
            raise ValueError(f"precision N={self.N} lacks headroom for A={self.A}")


def default_truncation(params: TruncationParams, orbit: Orbit) -> OrbitTruncation:
    """A = s + 2 and N = i*(A+1) + 8."""
    A = s_function(params, orbit.m, orbit.alpha) + 2
    return OrbitTruncation(orbit, A, params.i * (A + 1) + 8)


@dataclass
class OrbitMatrices:
    """Diagonal/subdiagonal coefficient data of the truncated orbit
    complexes, reduced modulo p^N.

    Index a runs over levels 0..A.  `diff_nygaard` and `diff_full` are
    diagonal (level-preserving); `frob0`/`frob1` carry level a to a+1 and
    have length A; `can0`/`can1` are diagonal.
    """

    n: int
    modulus: int
    diff_nygaard: list[int]
    diff_full: list[int]
    can0: list[int]
    can1: list[int]
    frob0: list[int]
    frob1: list[int]

    def _shift(self, coeffs: list[int]) -> Matrix:
        M = [[0] * self.n for _ in range(self.n)]
        for a, c in enumerate(coeffs):
            M[a + 1][a] = c
        return M

    def _diag(self, coeffs: list[int]) -> Matrix:
        M = [[0] * self.n for _ in range(self.n)]
        for a, c in enumerate(coeffs):
            M[a][a] = c
        return M

    def phi_minus_can0(self) -> Matrix:
        M = self._shift(self.frob0)
        for a, c in enumerate(self.can0):
            M[a][a] = (M[a][a] - c) % self.modulus
        return M

    def phi_minus_can1(self) -> Matrix:
        M = self._shift(self.frob1)
        for a, c in enumerate(self.can1):
            M[a][a] = (M[a][a] - c) % self.modulus
        return M

    def fiber_d0(self) -> Matrix:
        """C^0 = N^0 -> C^1 = N^1 (+) D^0."""
        return self._diag(self.diff_nygaard) + self.phi_minus_can0()

    def fiber_d1(self) -> Matrix:
        """C^1 = N^1 (+) D^0 -> C^2 = D^1, (w, u) |-> (phi/p^i - can)w - d u."""
        pc1 = self.phi_minus_can1()
        neg_dd = self._diag([(-c) % self.modulus for c in self.diff_full])
        return hstack(pc1, neg_dd)

    def content_hash(self) -> str:
        body = repr(
            (
                self.n,
                self.modulus,
                self.diff_nygaard,
                self.diff_full,
                self.can0,
                self.can1,
                self.frob0,
                self.frob1,
            )
        ).encode()
        return hashlib.sha256(body).hexdigest()


def _alpha_floor_ratio(orbit: Orbit, a: int, p: int) -> int:
    """Product over slots of floor(p^(a+1) n_t)! / floor(p^a n_t)!."""
    out = 1
    for _, frac in orbit.alpha.entries:
        out *= factorial_ratio(frac.floor(p, a + 1), frac.floor(p, a))
    return out


def build_orbit_matrices(params: TruncationParams, trunc: OrbitTruncation) -> OrbitMatrices:
    """Exact integer coefficients of the truncated orbit complexes.

    The divided Frobenius coefficient at level a is the product of the
    degree scaling p^(nygaard exponent), the floor-factorial ratios picked
    up when rewriting in terms of the level-(a+1) generators, and (in
    degree 1) one extra factor of p from dlog(x^p) = p dlog x, all divided
    exactly by p^i.
    """
    trunc.validate(params)
    p, e, i = params.p, params.e, params.i
    orbit = trunc.orbit
    n = trunc.A + 1
    modulus = p**trunc.N

    u = [nygaard_exponents(params, p**a * orbit.m, orbit.alpha.floor_l1(p, a)) for a in range(n)]
    braces = [brace(p**a * orbit.m, e) for a in range(n)]

    diff_nygaard = [(p ** (u[a][0] - u[a][1]) * braces[a]) % modulus for a in range(n)]
    diff_full = [braces[a] % modulus for a in range(n)]
    can0 = [pow(p, u[a][0], modulus) for a in range(n)]
    can1 = [pow(p, u[a][1], modulus) for a in range(n)]

    frob0, frob1 = [], []
    pi = p**i
    for a in range(trunc.A):
        m_a = p**a * orbit.m
        ratio_alpha = _alpha_floor_ratio(orbit, a, p)
        r0 = ratio_alpha * factorial_ratio((p * m_a) // e, m_a // e)
        num0 = p ** u[a][0] * r0
        if num0 % pi:
            raise ArithmeticError("degree-0 Frobenius coefficient not divisible by p^i")
        frob0.append((num0 // pi) % modulus)
        r1 = ratio_alpha * factorial_ratio((p * m_a - 1) // e, (m_a - 1) // e)
        num1 = p ** (u[a][1] + 1) * r1
        if num1 % pi:
            raise ArithmeticError("degree-1 Frobenius coefficient not divisible by p^i")
        frob1.append((num1 // pi) % modulus)

    return OrbitMatrices(n, modulus, diff_nygaard, diff_full, can0, can1, frob0, frob1)


@dataclass
class FiberCohomology:
    """The three cohomology groups of the truncated fiber complex.

    Degrees 1 and 2 are computed modulo p^N.  Reducing the whole complex
    would fold the degree-1 torsion back into degree 0 (universal
    coefficients), so degree 0 is certified instead: a column of the first
    differential whose elementary divisor over Z/p^N is below p^N has a
    nonzero integer elementary divisor, and when every column has one the
    differential is injective over the integers and H^0 vanishes.
    `h0_kernel_rank` counts the columns left uncertified; `exponents`
    refuses when it is nonzero rather than guess.
    """

    matrices: OrbitMatrices
    h0_kernel_rank: int
    h1: QuotientPresentation
    h2: QuotientPresentation

    def exponents(self, p: int) -> dict[int, tuple[int, ...]]:
        if self.h0_kernel_rank:
            raise OracleError(
                f"degree-0 injectivity not certified mod p^N on {self.h0_kernel_rank} column(s)"
            )
        return {0: (), 1: self.h1.exponents(p), 2: self.h2.exponents(p)}


def fiber_cohomology(params: TruncationParams, trunc: OrbitTruncation) -> FiberCohomology:
    mats = build_orbit_matrices(params, trunc)
    p, n, modulus = params.p, mats.n, mats.modulus
    d0 = mats.fiber_d0()
    d1 = mats.fiber_d1()

    # a column whose divisor is below p^N is certified (see FiberCohomology)
    uncertified = smith_mod_prime_power(d0, p, modulus)[0][:n].count(modulus)
    h1 = quotient(kernel_mod(d1, p, modulus), d0)
    h2 = quotient(kernel_mod([[0] * n], p, modulus), d1)
    return FiberCohomology(mats, uncertified, h1, h2)


def oracle_cohomology(params: TruncationParams, trunc: OrbitTruncation) -> dict[int, tuple[int, ...]]:
    """Cohomology of the truncated fiber complex as p-power exponents per
    degree, rechecked at the grown truncation A -> A+1, N -> N+2."""
    result = fiber_cohomology(params, trunc).exponents(params.p)
    _check_stability(params, trunc, result)
    return result


def _check_stability(params: TruncationParams, trunc: OrbitTruncation, result: dict[int, tuple[int, ...]]) -> None:
    """Raise unless the grown truncation (A+1, N+2) gives the same exponents."""
    bigger = OrbitTruncation(trunc.orbit, trunc.A + 1, trunc.N + 2)
    again = fiber_cohomology(params, bigger).exponents(params.p)
    if again != result:
        raise TruncationInstabilityError(
            f"cohomology changed under truncation growth: {result} vs {again}"
        )


def closed_form_kernel_cochain(params: TruncationParams, trunc: OrbitTruncation, fc: FiberCohomology) -> list[int]:
    """The closed-form kernel generator as a degree-1 cochain (w, u) of the
    fiber complex.

    w carries the recursion scalings on levels 0..s-1.  On levels >= s the
    canonical map is invertible, so the Frobenius overflow out of level
    s-1 can be absorbed by a uniquely determined tail, which is solved for
    here together with the coboundary witness u; failure to solve means
    the closed-form vector is not annihilated up to coboundary.
    """
    p = params.p
    n, modulus = fc.matrices.n, fc.matrices.modulus
    exps = h1_syntomic_orbit(params, trunc.orbit).generator_exponents
    s = len(exps)
    w = [0] * n
    for a in range(s):
        w[a] = p ** exps[s - 1 - a]
    pc1 = fc.matrices.phi_minus_can1()
    v = [val % modulus for val in mat_vec(pc1, w)]
    # unknowns mod p^N: u (coboundary witness), t (tail levels s..A)
    neg_tail = [[-pc1[r][a] for a in range(s, n)] for r in range(n)]
    gen = hstack(fc.matrices._diag(fc.matrices.diff_full), neg_tail)
    z = solve_in_lattice(gen, v, p, modulus)
    if z is None:
        # The construction fixes only valuations; each level's generator
        # absorbs a unit.  Solve for a choice of per-level units before
        # giving up.
        relaxed = _unit_relaxed_kernel_cochain(params, trunc, fc, exps)
        if relaxed is None:
            raise OracleError("closed-form kernel vector is not annihilated up to coboundary")
        return relaxed
    u = z[:n]
    for a in range(s, n):
        w[a] = z[n + a - s]
    return w + u


def _nonvanishing_combination(vecs: list[list[int]], width: int, p: int) -> list[int] | None:
    """Coefficients c over F_p with sum(c_j * vecs_j) nonzero in every one
    of the first `width` coordinates, or None.  Reduces to an independent
    spanning set first, so the exhaustive search is over p^rank with
    rank <= width."""
    basis: list[tuple[list[int], list[int]]] = []  # (projected vector, coefficient row)
    for j, vec in enumerate(vecs):
        v = [x % p for x in vec[:width]]
        coeff = [0] * len(vecs)
        coeff[j] = 1
        for bv, bc in basis:
            lead = next((idx for idx, x in enumerate(bv) if x), None)
            if lead is not None and v[lead]:
                f = v[lead] * pow(bv[lead], -1, p) % p
                v = [(a - f * b) % p for a, b in zip(v, bv)]
                coeff = [(a - f * b) % p for a, b in zip(coeff, bc)]
        if any(v):
            basis.append((v, coeff))
    for combo in product(range(p), repeat=len(basis)):
        out = [0] * width
        for c, (bv, _) in zip(combo, basis):
            if c:
                for idx in range(width):
                    out[idx] = (out[idx] + c * bv[idx]) % p
        if all(out):
            coeffs = [0] * len(vecs)
            for c, (_, bc) in zip(combo, basis):
                if c:
                    coeffs = [(a + c * b) % p for a, b in zip(coeffs, bc)]
            return coeffs
    return None


def _unit_relaxed_kernel_cochain(
    params: TruncationParams,
    trunc: OrbitTruncation,
    fc: FiberCohomology,
    exps: tuple[int, ...],
) -> list[int] | None:
    """A degree-1 cocycle whose level-a coordinate is unit * p^(c_a) for
    a < s, with the units solved from the kernel lattice of the extended
    system (head columns pre-scaled by p^(c_a), free tail, coboundary
    witness); None if no choice of units works."""
    p = params.p
    n, modulus = fc.matrices.n, fc.matrices.modulus
    s = len(exps)
    profile = [exps[s - 1 - a] for a in range(s)]
    pc1 = fc.matrices.phi_minus_can1()
    cols: list[list[int]] = []
    for a in range(s):
        cols.append([pc1[r][a] * p ** profile[a] % modulus for r in range(n)])
    for a in range(s, n):
        cols.append([pc1[r][a] % modulus for r in range(n)])
    for c in columns(fc.matrices._diag(fc.matrices.diff_full)):
        cols.append([(-x) % modulus for x in c])
    M = [[cols[j][r] for j in range(len(cols))] for r in range(n)]
    K = kernel_mod(M, p, modulus)
    kernel_vectors = columns(K.basis)
    coeffs = _nonvanishing_combination(kernel_vectors, s, p)
    if coeffs is None:
        return None
    z = [0] * (2 * n)
    for c, vec in zip(coeffs, kernel_vectors):
        if c:
            for idx in range(2 * n):
                z[idx] = (z[idx] + c * vec[idx]) % modulus
    w = [z[a] * p ** profile[a] % modulus for a in range(s)]
    w += [z[a] for a in range(s, n)]
    u = z[n:]
    cochain = w + u
    check = mat_vec(fc.matrices.fiber_d1(), cochain)
    if any(v % modulus for v in check):
        raise OracleError("unit-relaxed kernel solve produced a non-cocycle")
    return cochain


def certify_kernel_generator(params: TruncationParams, trunc: OrbitTruncation, fc: FiberCohomology) -> bool:
    """Check the closed-form kernel generator against the matrices of `fc`,
    the fiber cohomology at `trunc`: it must be a cocycle, generate the
    degree-1 cohomology, and restrict to a generator at level s-1.
    Rejects orbits with s = 0, whose kernel summand is trivial."""
    p = params.p
    s = s_function(params, trunc.orbit.m, trunc.orbit.alpha)
    if s == 0:
        raise ValueError("orbit has s = 0; kernel summand is trivial")
    cochain = closed_form_kernel_cochain(params, trunc, fc)
    if cochain[s - 1] % p == 0:
        return False
    h = fc.h1.exponents(p)
    expected = h[0] if h else 0
    return fc.h1.class_order_exponent(cochain, p) == expected and len(h) <= 1


class TransitionOracle:
    """Matrix-level transition maps between truncation exponents f >= e for
    one orbit, with per-level cohomology cached so pair sweeps stay cheap.

    All levels share one (A, N) so the transition matrices line up
    levelwise.
    """

    def __init__(self, p: int, i: int, orbit: Orbit, levels: list[int]):
        orbit.validate(p)
        if any(lv % p == 0 for lv in levels):
            raise ValueError("levels must be coprime to p")
        self.p, self.i, self.orbit = p, i, orbit
        self.levels = sorted(levels)
        s_max = max(
            s_function(TruncationParams(p, lv, i), orbit.m, orbit.alpha) for lv in self.levels
        )
        self.A = s_max + 2
        self.N = i * (self.A + 1) + 8
        self._cache: dict[int, tuple[FiberCohomology, list[int] | None]] = {}

    def params(self, e: int) -> TruncationParams:
        return TruncationParams(self.p, e, self.i)

    def trunc(self) -> OrbitTruncation:
        return OrbitTruncation(self.orbit, self.A, self.N)

    def level(self, e: int) -> tuple[FiberCohomology, list[int] | None]:
        if e not in self._cache:
            fc = fiber_cohomology(self.params(e), self.trunc())
            exps = fc.h1.exponents(self.p)
            gen = fc.h1.generator_of_largest_factor(self.p) if exps else None
            self._cache[e] = (fc, gen)
        return self._cache[e]

    def h_exponent(self, e: int) -> int:
        fc, _ = self.level(e)
        exps = fc.h1.exponents(self.p)
        if len(exps) > 1:
            raise OracleError(f"degree-1 cohomology not cyclic at e={e}: {exps}")
        return exps[0] if exps else 0

    def _transition_deg1(self, e: int, f: int) -> tuple[list[int], list[int]]:
        """Diagonal coefficients of the f -> e map on N^1 and on D^0."""
        p = self.p
        modulus = p**self.N
        t_n1, t_d0 = [], []
        pe = self.params(e)
        pf = self.params(f)
        for a in range(self.A + 1):
            m_a = p**a * self.orbit.m
            L = self.orbit.alpha.floor_l1(p, a)
            u1_e = nygaard_exponents(pe, m_a, L)[1]
            u1_f = nygaard_exponents(pf, m_a, L)[1]
            num = p**u1_f * factorial_ratio((m_a - 1) // e, (m_a - 1) // f)
            if num % p**u1_e:
                raise ArithmeticError("transition coefficient not divisible by target scaling")
            t_n1.append((num // p**u1_e) % modulus)
            t_d0.append(factorial_ratio(m_a // e, m_a // f) % modulus)
        return t_n1, t_d0

    def valuation(self, e: int, f: int) -> int:
        """Observable p-valuation of the induced map on degree-1 cohomology:
        an integer in [0, h_e], where h_e means the zero map."""
        if f < e:
            raise ValueError("need f >= e")
        h_e = self.h_exponent(e)
        h_f = self.h_exponent(f)
        if h_e == 0 or h_f == 0:
            raise DegenerateOrbitError(f"trivial group at e={e} or f={f}")
        fc_e, _ = self.level(e)
        _, gen_f = self.level(f)
        assert gen_f is not None
        t_n1, t_d0 = self._transition_deg1(e, f)
        n = self.A + 1
        modulus = self.p**self.N
        image = [t_n1[a] * gen_f[a] % modulus for a in range(n)]
        image += [t_d0[a] * gen_f[n + a] % modulus for a in range(n)]
        return h_e - fc_e.h1.class_order_exponent(image, self.p)


def oracle_transition_map(
    p: int,
    i: int,
    e: int,
    f: int,
    orbit: Orbit,
) -> int:
    """Observable transition valuation f -> e for one orbit (see
    TransitionOracle.valuation)."""
    return TransitionOracle(p, i, orbit, [e, f]).valuation(e, f)


@dataclass(frozen=True)
class OrbitCertificate:
    """One verified orbit: inputs, matrix hash, divisors, and pass/fail."""

    orbit: Orbit
    s: int
    h_closed: int
    oracle_exponents: dict[int, tuple[int, ...]]
    kernel_ok: bool
    matrices_hash: str
    passed: bool


def verify_orbit(params: TruncationParams, orbit: Orbit, trunc: OrbitTruncation | None = None) -> OrbitCertificate:
    """Full closed-form vs oracle check for one orbit: degree-1 exponent
    equality, vanishing in degrees 0 and 2, truncation stability, and
    kernel-generator certification when s >= 1.

    `trunc` defaults to `default_truncation(params, orbit)`.  The fiber
    cohomology is computed once at `trunc` and once at the grown
    truncation of the stability recheck."""
    if trunc is None:
        trunc = default_truncation(params, orbit)
    summand = h1_syntomic_orbit(params, orbit)
    fc = fiber_cohomology(params, trunc)
    exps = fc.exponents(params.p)
    _check_stability(params, trunc, exps)
    h = summand.module.h
    degree_match = (
        exps[0] == ()
        and exps[2] == ()
        and exps[1] == ((h,) if h else ())
    )
    kernel_ok = True
    if summand.s >= 1 and h >= 1:
        kernel_ok = certify_kernel_generator(params, trunc, fc)
    return OrbitCertificate(
        orbit=orbit,
        s=summand.s,
        h_closed=h,
        oracle_exponents=exps,
        kernel_ok=kernel_ok,
        matrices_hash=fc.matrices.content_hash(),
        passed=degree_match and kernel_ok,
    )
