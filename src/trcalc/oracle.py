"""Brute-force verification by exact linear algebra.

For one orbit truncated at level A, the two-term complexes at the levels
(p^a m, p^a alpha), a = 0..A, are materialized as integer matrices: the
differential, the divided Frobenius (level a -> a+1, with contributions
exiting level A dropped), and the canonical inclusion of the weight-i
filtered subcomplex.  The mapping fiber of (divided Frobenius - canonical)
is assembled as a three-term cochain complex over Z/p^N and its cohomology
is computed by Smith normal form over Z/p^N.  The matrices use only the
Nygaard exponents, the brace symbol and factorial ratios, and the
truncation level is sized from the orbit's degree-1 walk in `drw`.  The
closed-form claim under test, a summand with its s, h and generator
exponents, is handed in by the caller of `verify_orbit` and
`certify_kernel_generator`.  The kernel-generator certificate is one exact
search: a kernel basis of d1 with the claimed scalings, and a search over
F_p for a combination whose level coordinates and class coordinate are
all units.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .drw import Orbit, TruncationParams, degree1_walk, nygaard_exponents
from .padic import Prime, brace, factorial_ratio, vp
from .snf import (
    ClassFunctional,
    Matrix,
    QuotientPresentation,
    columns,
    divisor_exponents,
    hstack,
    kernel_mod,
    quotient,
    smith_mod_prime_power,
)


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

    def grown(self, params: TruncationParams) -> "OrbitTruncation":
        """The truncation of the stability recheck: A -> A+1 and
        N -> max(N+2, i*(A+2)+5), the least precision with headroom for
        A+1, so the grown truncation validates whenever this one does."""
        return OrbitTruncation(self.orbit, self.A + 1, max(self.N + 2, params.i * (self.A + 2) + 5))

    def validate(self, params: TruncationParams) -> None:
        self.orbit.validate(params.p)
        s = len(degree1_walk(params, self.orbit.m, self.orbit.alpha))
        if self.A < s + 2:
            raise ValueError(f"truncation level A={self.A} below required {s + 2}")
        if self.N <= params.i * (self.A + 1) + 4:
            raise ValueError(f"precision N={self.N} lacks headroom for A={self.A}")


def default_truncation(params: TruncationParams, orbit: Orbit) -> OrbitTruncation:
    """A = s + 2 and N = i*(A+1) + 8."""
    A = len(degree1_walk(params, orbit.m, orbit.alpha)) + 2
    return OrbitTruncation(orbit, A, params.i * (A + 1) + 8)


@dataclass
class OrbitMatrices:
    """Diagonal/subdiagonal coefficient data of the truncated orbit
    complexes, reduced modulo p^N.

    Index a runs over levels 0..A.  `diff_nygaard` and `diff_full` are
    diagonal (level-preserving); `frob0`/`frob1` carry level a to a+1 and
    have length A; `can0`/`can1` are diagonal.  `u1` holds the degree-1
    Nygaard exponent of each level, which `can1` is built from.
    """

    n: int
    modulus: int
    diff_nygaard: list[int]
    diff_full: list[int]
    can0: list[int]
    can1: list[int]
    frob0: list[int]
    frob1: list[int]
    u1: list[int]

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

    def _phi_minus_can(self, frob: list[int], can: list[int]) -> Matrix:
        M = self._shift(frob)
        for a, c in enumerate(can):
            M[a][a] = (M[a][a] - c) % self.modulus
        return M

    def fiber_d0(self) -> Matrix:
        """C^0 = N^0 -> C^1 = N^1 (+) D^0."""
        return self._diag(self.diff_nygaard) + self._phi_minus_can(self.frob0, self.can0)

    def fiber_d1(self) -> Matrix:
        """C^1 = N^1 (+) D^0 -> C^2 = D^1, (w, u) |-> (phi/p^i - can)w - d u."""
        pc1 = self._phi_minus_can(self.frob1, self.can1)
        neg_dd = self._diag([(-c) % self.modulus for c in self.diff_full])
        return hstack(pc1, neg_dd)

    def fiber_d1_apply(self, x: list[int]) -> list[int]:
        """fiber_d1()·x mod p^N from the coefficient lists: row r reads
        only x[r-1], x[r] and x[n+r]."""
        n, q = self.n, self.modulus
        out = []
        for r in range(n):
            v = -self.can1[r] * x[r] - self.diff_full[r] * x[n + r]
            if r:
                v += self.frob1[r - 1] * x[r - 1]
            out.append(v % q)
        return out

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

    u1 = [u[a][1] for a in range(n)]
    return OrbitMatrices(n, modulus, diff_nygaard, diff_full, can0, can1, frob0, frob1, u1)


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

    Each fiber eliminates d1 once, for the kernel under H^1, and the
    quotient of that kernel by d0 once.  The kernel keeps only its
    nontrivial coordinates (t_j < p^N, see `snf.KernelLattice`).  The
    quotient builds the transforms its caller reads: the stability
    recheck compares exponents and builds none.  The degree-0 certificate
    and H^2 are read from those eliminations on first use.  H^2 =
    C^2/(im d1 + p^N·C^2) with C^2 all cocycles, so its exponents are
    those of the elementary divisors of d1 mod p^N, which the kernel
    keeps.  The columns of d0 lie in the kernel, so d0 ≡ B·Y mod p^N with
    B = V·diag(t) the kernel basis and Y their kernel coordinates, which
    the quotient solved for; V is invertible mod p^N, so the divisors of
    d0 below p^N are those of diag(t)·Y.  When d1 is onto mod p^N, as on
    every fiber of the README jobs and the acceptance grid, the kernel
    keeps n of its 2n coordinates, all with t_j = 1: H^1's quotient is
    n×n, it is Y itself, and the certificate needs no third elimination.
    d0 and d1 are built once; d1 is kept for the kernel-generator
    certificate, which copies it before writing.
    """

    matrices: OrbitMatrices
    p: int
    h1: QuotientPresentation
    d1: Matrix

    @classmethod
    def of(cls, mats: OrbitMatrices, p: int, transforms: tuple[str, ...] = ("U", "V")) -> "FiberCohomology":
        """The fiber cohomology of `mats`, building the transforms named in
        `transforms`: "U" for the class functional of H^1's quotient, "V"
        for the basis of the kernel of d1.  The kernel always builds V⁻¹,
        which the quotient's solves read."""
        d1 = mats.fiber_d1()
        kernel = kernel_mod(d1, p, mats.modulus, ("V", "Vinv") if "V" in transforms else ("Vinv",))
        h1 = quotient(kernel, mats.fiber_d0(), ("U",) if "U" in transforms else ())
        return cls(mats, p, h1, d1)

    @cached_property
    def h0_kernel_rank(self) -> int:
        # n minus the number of divisors of d0 below p^N, read from
        # diag(t)·Y; when every kept t_j is 1, H^1's G is Y itself
        h1, q = self.h1, self.matrices.modulus
        t = h1.kernel.t
        if any(tj > 1 for tj in t):
            scaled = [[tj * y % q for y in row] for tj, row in zip(t, h1.coords)]
            divisors = smith_mod_prime_power(scaled, self.p, q, ())[0]
        else:
            divisors = h1.divisors
        return self.matrices.n - sum(d < q for d in divisors)

    @cached_property
    def h2(self) -> tuple[int, ...]:
        return divisor_exponents(self.h1.kernel.divisors, self.p)

    def exponents(self, p: int) -> dict[int, tuple[int, ...]]:
        if self.h0_kernel_rank:
            raise OracleError(
                f"degree-0 injectivity not certified mod p^N on {self.h0_kernel_rank} column(s)"
            )
        return {0: (), 1: self.h1.exponents(p), 2: self.h2}


def fiber_cohomology(
    params: TruncationParams, trunc: OrbitTruncation, transforms: tuple[str, ...] = ("U", "V")
) -> FiberCohomology:
    """The fiber cohomology at `trunc`, building the transforms named in
    `transforms` ("U", "V"; see `FiberCohomology.of`)."""
    return FiberCohomology.of(build_orbit_matrices(params, trunc), params.p, transforms)


def oracle_cohomology(params: TruncationParams, trunc: OrbitTruncation) -> dict[int, tuple[int, ...]]:
    """Cohomology of the truncated fiber complex as p-power exponents per
    degree, rechecked at the grown truncation (`OrbitTruncation.grown`:
    A -> A+1, N -> max(N+2, i*(A+2)+5))."""
    result = fiber_cohomology(params, trunc).exponents(params.p)
    _check_stability(params, trunc, result)
    return result


def _check_stability(
    params: TruncationParams, trunc: OrbitTruncation, result: dict[int, tuple[int, ...]]
) -> None:
    """Raise unless the grown truncation (A+1, max(N+2, i*(A+2)+5)) gives
    the same exponents."""
    again = fiber_cohomology(params, trunc.grown(params), ()).exponents(params.p)
    if again != result:
        raise TruncationInstabilityError(
            f"cohomology changed under truncation growth: {result} vs {again}"
        )


def _nonvanishing_combination(vecs: list[list[int]], p: int) -> list[int] | None:
    """Coefficients c over F_p with sum(c_j * vecs_j) nonzero in every
    coordinate, or None.  The vectors independent of the ones before them
    span the same space, so the exhaustive search is over their p^rank
    combinations, with rank at most the number of coordinates."""
    kept: list[int] = []
    echelon: list[tuple[int, list[int]]] = []  # (lead index, row reduced mod p)
    for j, vec in enumerate(vecs):
        v = [x % p for x in vec]
        for lead, row in echelon:
            if v[lead]:
                f = v[lead] * pow(row[lead], -1, p) % p
                v = [(a - f * b) % p for a, b in zip(v, row)]
        lead = next((idx for idx, x in enumerate(v) if x), None)
        if lead is not None:
            kept.append(j)
            echelon.append((lead, v))
    for combo in product(range(p), repeat=len(kept)):
        if all(sum(c * vecs[j][k] for c, j in zip(combo, kept)) % p for k in range(len(vecs[0]))):
            coeffs = [0] * len(vecs)
            for c, j in zip(combo, kept):
                coeffs[j] = c
            return coeffs
    return None


def certify_kernel_generator(fc: FiberCohomology, summand) -> bool:
    """Check the kernel generator claimed by `summand` (a closed-form
    `SyntomicSummand` of the orbit) against the matrices of `fc`: some
    degree-1 cocycle has coordinate unit·p^(c_a) at each level a < s, with
    c_a the exponent the claim gives level a, and its class generates H^1.

    With the first s columns of d1 scaled by p^(c_a), such cocycles are the
    kernel vectors z of the scaled matrix whose first s coordinates are
    units, rescaled.  The s unit coordinates and, when H^1 is nontrivial,
    the class coordinate of the rescaled cocycle are F_p-linear forms that
    vanish on pK, and the kernel basis spans K modulo p^N, so one search
    over K/pK (`_nonvanishing_combination`) decides existence exactly,
    whatever the order of the basis.  The chosen cocycle is then built and
    checked.

    The exponents of levels 0..s-2 are not pinned, since more than one
    valuation profile can carry a generator: for p=2, e=3, i=2, m=1 the
    claims (0,0,2) and (0,0,3) pass as the closed form's (0,0,1) does,
    while (0,1,1) and (1,0,1) fail.  A non-cyclic H^1 fails.  Rejects a
    claim with s = 0, whose kernel summand is trivial."""
    p = fc.p
    s = summand.s
    if s == 0:
        raise ValueError("orbit has s = 0; kernel summand is trivial")
    mats = fc.matrices
    n, q = mats.n, mats.modulus
    h = fc.h1.exponents(p)
    if s != len(summand.generator_exponents) or s > n or len(h) > 1:
        return False
    scale = [p**c for c in reversed(summand.generator_exponents)] + [1] * (2 * n - s)
    scaled_d1 = [row[:] for row in fc.d1]
    for row in scaled_d1:
        row[:s] = [x * f % q for x, f in zip(row[:s], scale)]
    basis = columns(kernel_mod(scaled_d1, p, q, ("V",)).basis)
    forms = [col[:s] for col in basis]
    if h:
        functional = fc.h1.class_functional()
        scaled = ClassFunctional([w * f for w, f in zip(functional.w, scale)], q, functional.d)
        forms = [form + [scaled.coordinate(col)] for form, col in zip(forms, basis)]
    coeffs = _nonvanishing_combination(forms, p)
    if coeffs is None:
        return False
    z = [0] * (2 * n)
    for c, col in zip(coeffs, basis):
        if c:
            z = [x + c * y for x, y in zip(z, col)]
    cochain = [x * f % q for x, f in zip(z, scale)]
    if any(mats.fiber_d1_apply(cochain)):
        raise OracleError("kernel-generator search produced a non-cocycle")
    return not h or functional.coordinate(cochain) % p != 0


@dataclass(frozen=True)
class TransitionLevel:
    """What the pair queries of `TransitionOracle` read at one level e:
    the fiber matrices (with the degree-1 Nygaard exponent of each orbit
    level), h with H^1 = Z/p^h, and, when h >= 1, a cochain generating
    H^1 and the class functional of H^1."""

    matrices: OrbitMatrices
    h: int
    generator: list[int] | None
    functional: ClassFunctional | None


class TransitionOracle:
    """Matrix-level transition maps between truncation exponents f >= e for
    one orbit.

    All levels share one (A, N), the `default_truncation` of the level
    with the longest walk, so the transition matrices line up levelwise.
    Each level's work is done once, on first use (`TransitionLevel`): the
    fiber cohomology, h_e, the degree-1 Nygaard exponents, a generator of
    H^1 and the class functional of H^1.

    The observable valuation needs H^1 = Z/p^h cyclic, and a non-cyclic
    H^1 is refused.  Cyclicity is also what makes one functional enough:
    the class of a cocycle x is then a single coordinate in Z/p^h, read as
    one dot product w·x (`QuotientPresentation.class_functional`), and H^1
    is read through nothing else.  The generator is the first column of
    the kernel basis whose coordinate is a unit mod p.  One exists: the
    basis spans the kernel K modulo p^N and the class map K -> Z/p^h is
    onto, so the basis cannot map into pZ/p^h; a level where none is found
    is refused.  The valuation does not depend on the column picked: two
    generators differ by a unit factor and an element of
    im d0 + p^N·C^1, the f -> e map is a chain map and so sends that
    lattice at level f into its counterpart at level e, and a unit factor
    leaves v_p unchanged.

    A pair (e, f) costs O(A) arithmetic: the diagonal transition
    coefficients applied to the level-f generator, a sparse check that the
    image is a level-e cocycle (three terms per row of d1), and the dot
    product.  p is made a `Prime` once, so the per-level parameters skip
    the primality test.
    """

    def __init__(self, p: int, i: int, orbit: Orbit, levels: list[int]):
        p = Prime(p)
        orbit.validate(p)
        if any(lv % p == 0 for lv in levels):
            raise ValueError("levels must be coprime to p")
        self.p, self.i, self.orbit = p, i, orbit
        self.levels = sorted(levels)
        trunc = max((default_truncation(self.params(lv), orbit) for lv in self.levels), key=lambda t: t.A)
        self.A, self.N = trunc.A, trunc.N
        self._m = [p**a * orbit.m for a in range(self.A + 1)]
        self._cache: dict[int, TransitionLevel] = {}

    def params(self, e: int) -> TruncationParams:
        return TruncationParams(self.p, e, self.i)

    def trunc(self) -> OrbitTruncation:
        return OrbitTruncation(self.orbit, self.A, self.N)

    def level(self, e: int) -> TransitionLevel:
        if e not in self._cache:
            params = self.params(e)
            fc = fiber_cohomology(params, self.trunc())
            exps = fc.h1.exponents(self.p)
            if len(exps) > 1:
                raise OracleError(f"degree-1 cohomology not cyclic at e={e}: {exps}")
            if exps:
                functional = fc.h1.class_functional()
                basis = columns(fc.h1.kernel.basis)
                gen = next((col for col in basis if functional.coordinate(col) % self.p), None)
                if gen is None:
                    raise OracleError(f"no kernel basis column generates H^1 at e={e}")
            else:
                gen = functional = None
            self._cache[e] = TransitionLevel(fc.matrices, exps[0] if exps else 0, gen, functional)
        return self._cache[e]

    def h_exponent(self, e: int) -> int:
        return self.level(e).h

    def _transition_image(self, e: int, f: int, lv_e: TransitionLevel, lv_f: TransitionLevel) -> list[int]:
        """The f -> e map on N^1 (+) D^0, applied to the level-f generator.

        Its diagonal coefficients are p^(u1_f - u1_e)·((m_a-1)//e)!/((m_a-1)//f)!
        on N^1 and (m_a//e)!/(m_a//f)! on D^0.
        """
        p, q = self.p, self.p**self.N
        gen = lv_f.generator
        n = self.A + 1
        image = [0] * (2 * n)
        for a, (m_a, u1_e, u1_f) in enumerate(zip(self._m, lv_e.matrices.u1, lv_f.matrices.u1)):
            num = p**u1_f * factorial_ratio((m_a - 1) // e, (m_a - 1) // f)
            if num % p**u1_e:
                raise ArithmeticError("transition coefficient not divisible by target scaling")
            image[a] = (num // p**u1_e) * gen[a] % q
            image[n + a] = factorial_ratio(m_a // e, m_a // f) * gen[n + a] % q
        return image

    def valuation(self, e: int, f: int) -> int:
        """Observable p-valuation of the induced map on degree-1 cohomology:
        an integer in [0, h_e], where h_e means the zero map."""
        if f < e:
            raise ValueError("need f >= e")
        lv_e, lv_f = self.level(e), self.level(f)
        if lv_e.h == 0 or lv_f.h == 0:
            raise DegenerateOrbitError(f"trivial group at e={e} or f={f}")
        image = self._transition_image(e, f, lv_e, lv_f)
        if any(lv_e.matrices.fiber_d1_apply(image)):
            raise ArithmeticError("element outside the kernel lattice")
        c = lv_e.functional.coordinate(image)
        return vp(c, self.p) if c else lv_e.h


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


def verify_orbit(params: TruncationParams, summand, trunc: OrbitTruncation | None = None) -> OrbitCertificate:
    """Check the closed-form claim `summand` (a `SyntomicSummand`: orbit,
    module W(k)/p^h, s and generator exponents) against the oracle:
    degree-1 exponent equality, vanishing in degrees 0 and 2, truncation
    stability, and kernel-generator certification when s >= 1.

    `trunc` defaults to `default_truncation(params, summand.orbit)`.  The
    fiber cohomology is computed once at `trunc`, with the U transform the
    kernel certificate reads, and once at the grown truncation of the
    stability recheck, with no quotient transforms; both kernels of d1
    build V⁻¹ only, each d1 is eliminated once, and each degree-0
    certificate is read from its fiber's H^1 elimination."""
    if trunc is None:
        trunc = default_truncation(params, summand.orbit)
    fc = fiber_cohomology(params, trunc, ("U",))
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
        kernel_ok = certify_kernel_generator(fc, summand)
    return OrbitCertificate(
        orbit=summand.orbit,
        s=summand.s,
        h_closed=h,
        oracle_exponents=exps,
        kernel_ok=kernel_ok,
        matrices_hash=fc.matrices.content_hash(),
        passed=degree_match and kernel_ok,
    )
