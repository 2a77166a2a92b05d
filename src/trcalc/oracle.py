"""Brute-force verification by exact linear algebra.

For one orbit truncated at level A, the two-term complexes at the levels
(p^a m, p^a alpha), a = 0..A, are materialized as integer coefficient
lists: the differential, the divided Frobenius (level a -> a+1, with
contributions exiting level A dropped), and the canonical inclusion of the
weight-i filtered subcomplex.  The mapping fiber of (divided Frobenius -
canonical) is a three-term cochain complex over Z/p^N, and its cohomology
is computed by Smith normal form over Z/p^N.  The fiber's differentials
are read off the lists in one encoding, sparse rows, and with one sign:
d0 w = (-d w, (can - phi/p^i) w) and d1 (w, u) = (can - phi/p^i) w + d u,
the negatives of the pair with phi/p^i - can, with the same kernels and
images.  The canonical maps then enter as +1 at the levels past the
Nygaard range, so the elimination has no unit pivot to rescale there.
The rows of d1 are kept with the fiber, and every cocycle check of a
vector applies them (`sparse_product`).  That d0's columns are cocycles
is checked once per fiber on the lists themselves, two entries of d1·d0
per level (`OrbitMatrices.fiber_d0_rows`), and H^1's relations are then
the kernel's kept rows of V⁻¹ times d0's rows, with no solve
(`FiberCohomology`).  The matrices use only the Nygaard exponents, the
brace symbol and factorial ratios; what of them does not depend on e
(the x-weights, the alpha floors and the slot floor pairs) is read from
one orbit table per orbit (`OrbitTable`), which every level's build of
that orbit shares.  Every truncation's matrices come from a
build at that truncation (`build_orbit_matrices`).  The truncation level
is sized from the orbit's degree-1 walk in `drw` (`default_truncation`);
`verify_orbit` walks it once, both to size its truncation and to
validate it, and the truncation-stability recheck builds a grown
truncation from the same table (`_stable_fiber`).
The closed-form claim under test, a summand with its orbit, s, h and
generator exponents, is handed in by the caller of `verify_orbit` and
`certify_kernel_generator`.  A fiber reads its H^1 once, when it is
built (`FiberCohomology.of`): h when H^1 = Z/p^h is cyclic and, when U
is built, the class functional and one generator, the first kernel
basis column whose class is a unit (`FiberCohomology.generator`).  The
record keeps readings and no transform; the transition oracle keeps it
per level and applies the transition maps to its generator, and the
certificate accepts the same generator as its witness when its
valuations are exactly the claimed ones, eliminating a column-scaled d1
only for the claims it does not carry.  The matrices record their prime
and orbit (`OrbitMatrices.p`, `.orbit`), and every reader takes both
from there.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import product
from operator import mul

from .drw import Orbit, TruncationParams, degree1_walk, nygaard_exponents
from .padic import Prime, brace, factorial_ratio, vp
from .snf import (
    ClassFunctional,
    Sparse,
    divisor_exponents,
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
        """The truncation of the stability recheck: A -> A+1 and N -> the
        larger of N+2 and the least precision for A+1, so the grown
        truncation validates whenever this one does."""
        return OrbitTruncation(self.orbit, self.A + 1, max(self.N + 2, _least_precision(params.i, self.A + 1)))

    def validate(self, params: TruncationParams) -> None:
        _check_truncation(self, params.i, _walk_length(params, self.orbit))


def _walk_length(params: TruncationParams, orbit: Orbit) -> int:
    """s, the length of the orbit's degree-1 walk at level e, once the
    orbit is checked at p."""
    orbit.validate(params.p)
    return len(degree1_walk(params, orbit.m, orbit.alpha))


def _check_truncation(trunc: OrbitTruncation, i: int, s: int) -> None:
    """ValueError unless `trunc` reaches level s + 2 with headroom in
    weight i, for an orbit whose degree-1 walk has length s."""
    if trunc.A < s + 2:
        raise ValueError(f"truncation level A={trunc.A} below required {s + 2}")
    if trunc.N < _least_precision(i, trunc.A):
        raise ValueError(f"precision N={trunc.N} lacks headroom for A={trunc.A}")


def _least_precision(i: int, A: int) -> int:
    """The least N with headroom for levels 0..A in weight i: i*(A+1) + 5."""
    return i * (A + 1) + 5


def default_truncation(params: TruncationParams, orbit: Orbit) -> OrbitTruncation:
    """A = s + 2, with s the length of the orbit's degree-1 walk at level e,
    and N = i*(A+1) + 8, three above the least precision for A.  The
    truncation at the top level of a range serves every level below it
    (`TransitionOracle`)."""
    A = len(degree1_walk(params, orbit.m, orbit.alpha)) + 2
    return OrbitTruncation(orbit, A, _least_precision(params.i, A) + 3)


@dataclass
class OrbitMatrices:
    """Diagonal/subdiagonal coefficient data of the truncated complexes of
    `orbit` at the prime p, reduced modulo p^N.

    The prime and the orbit are facts of the matrices: every reader takes
    them from here.  Index a runs over levels 0..A.  `diff_nygaard` and
    `diff_full` are diagonal (level-preserving); `frob0`/`frob1` carry
    level a to a+1 and have length A; `can0`/`can1` are diagonal.  `u1`
    holds the degree-1 Nygaard exponent of each level, which `can1` is
    built from, and `floors0`/`floors1` the level floors m_a//e and
    (m_a-1)//e, which bound the Frobenius x ratios; the transition maps
    read all three (`TransitionOracle`).  Every instance comes from one
    build at its own truncation (`build_orbit_matrices`).  The fiber's
    differentials are read off these lists once each, both as rows
    (`fiber_d1_rows`, `fiber_d0_rows`), and have no other encoding.
    `content_hash` reads the coefficient lists, n and the modulus, and
    none of u1 and the floors.
    """

    p: int
    orbit: Orbit
    n: int
    modulus: int
    diff_nygaard: list[int]
    diff_full: list[int]
    can0: list[int]
    can1: list[int]
    frob0: list[int]
    frob1: list[int]
    u1: list[int]
    floors0: list[int]
    floors1: list[int]

    def fiber_d0_rows(self) -> list[Sparse]:
        """d0: C^0 = N^0 -> C^1 = N^1 (+) D^0, w |-> (-d w, (can - phi/p^i) w),
        as its 2n sparse rows, read off the coefficient lists: row a holds
        -diff_nygaard[a] at column a, and row n+a holds -frob0[a-1] at
        column a-1 when a > 0 and can0[a] at column a, in that order.
        Entries are reduced mod p^N and may be 0.  The pair (d0, d1) is the
        negative of (d w, (phi/p^i - can) w) and its d1, so the kernels and
        images, and so the cohomology, are those of that pair, and can0 is
        +1 wherever its Nygaard exponent is 0: a unit pivot there needs no
        rescaling (`snf.smith_mod_prime_power`).

        The columns of d0 are first checked to be cocycles, on the lists:
        column a of d1·d0 (`fiber_d1_rows`) can be nonzero only at row a,
        where it is diff_full[a]·can0[a] - can1[a]·diff_nygaard[a], and,
        below level A, at row a+1, where it is
        frob1[a]·diff_nygaard[a] - diff_full[a+1]·frob0[a]; negating both
        differentials leaves d1·d0 as it is.  Either one nonzero mod p^N
        raises ArithmeticError."""
        q, dn, df, c0, f0 = self.modulus, self.diff_nygaard, self.diff_full, self.can0, self.frob0
        # row a of d1·d0: column a, and column a-1 when a > 0
        for a, (u, f) in enumerate(zip(self.can1, [0] + self.frob1)):
            if (df[a] * c0[a] - u * dn[a]) % q or a and (f * dn[a - 1] - df[a] * f0[a - 1]) % q:
                raise ArithmeticError("a column of d0 is outside the kernel of d1: d1·d0 is not 0 mod p^N")
        rows = [{a: -v % q} for a, v in enumerate(dn)]
        rows.append({0: c0[0]})
        rows += [{a: -f % q, a + 1: c} for a, (f, c) in enumerate(zip(f0, c0[1:]))]
        return rows

    def fiber_d1_rows(self) -> list[Sparse]:
        """d1: C^1 = N^1 (+) D^0 -> C^2 = D^1, (w, u) |-> (can - phi/p^i)w + d u,
        as its n sparse rows, read off the coefficient lists: row r holds
        -frob1[r-1] at column r-1 when r > 0, can1[r] at column r and
        diff_full[r] at column n+r, in that order.  Entries are reduced
        mod p^N and may be 0.  The sign is that of `fiber_d0_rows`: can1
        is +1 at every level past the Nygaard range, so its unit pivots
        there need no rescaling."""
        n, q = self.n, self.modulus
        rows = []
        for r, (c, d) in enumerate(zip(self.can1, self.diff_full)):
            row = {r - 1: -self.frob1[r - 1] % q} if r else {}
            row[r] = c
            row[n + r] = d
            rows.append(row)
        return rows

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


def _ratio_or_zero(a: int, b: int, p: int, cap: int) -> int:
    """a!/b!, or 0 when a - b >= p·cap.  Every p consecutive integers hold
    a multiple of p, so a!/b! is then divisible by p^cap, and a coefficient
    p^scaling·(a!/b!)/p^i with cap = N + i - scaling vanishes mod p^N."""
    return 0 if cap <= 0 or a - b >= p * cap else factorial_ratio(a, b)


def _alpha_floor_ratio(pairs: tuple[tuple[int, int], ...], p: int, cap: int) -> int:
    """Product over slots of floor(p^(a+1) n_t)! / floor(p^a n_t)!, read
    from the floor pairs of one orbit level (`OrbitTable.slot_floors`), or 0
    when one factor is divisible by p^cap (`_ratio_or_zero`)."""
    out = 1
    for hi, lo in pairs:
        out *= _ratio_or_zero(hi, lo, p, cap)
    return out


@dataclass(frozen=True)
class OrbitTable:
    """What the matrices of one orbit read that does not depend on the
    truncation exponent e, for the orbit levels a = 0..A at the prime p:
    the x-weights p^a m (`weights`), the alpha l1 floors
    L_a = floor_l1(p^a alpha) (`floors`), and each slot's floor pair
    (floor(p^(a+1) n_t), floor(p^a n_t)) (`slot_floors`, one tuple per
    level).  Built once per orbit (`OrbitTable.of`) and read by every
    `build_orbit_matrices` of that orbit, whatever its e or level A: the
    levels of a `TransitionOracle` share one, as do the base and grown
    builds of the stability recheck (`_stable_fiber`), and the
    degree-1 walks of one orbit share their alpha floors
    (`drw.degree1_walks`)."""

    p: int
    orbit: Orbit
    A: int
    weights: tuple[int, ...]
    floors: tuple[int, ...]
    slot_floors: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def of(cls, p: int, orbit: Orbit, A: int) -> "OrbitTable":
        levels = range(A + 1)
        alpha = orbit.alpha
        return cls(
            p,
            orbit,
            A,
            tuple(p**a * orbit.m for a in levels),
            tuple(alpha.floor_l1(p, a) for a in levels),
            tuple(tuple((frac.floor(p, a + 1), frac.floor(p, a)) for _, frac in alpha.entries) for a in levels),
        )


def build_orbit_matrices(params: TruncationParams, trunc: OrbitTruncation, table: OrbitTable) -> OrbitMatrices:
    """Exact integer coefficients of the truncated orbit complexes, reduced
    mod p^N.

    Everything that does not depend on e is read from `table`, the orbit
    table of `trunc`'s orbit at p: the x-weights p^a m, from which the
    level floors m_a//e and (m_a-1)//e come (kept with the matrices as
    `floors0` and `floors1`), the alpha l1 floors the
    Nygaard exponents read (`drw.nygaard_exponents`), and the slot floor
    pairs of the alpha floor ratio.  A table of another prime or orbit, or
    one that stops below level A, is refused with ValueError; one that
    reaches past A is read on levels 0..A.

    The divided Frobenius coefficient at level a is the product of the
    degree scaling p^(nygaard exponent), the floor-factorial ratios picked
    up when rewriting in terms of the level-(a+1) generators, and (in
    degree 1) one extra factor of p from dlog(x^p) = p dlog x, all divided
    exactly by p^i.  A coefficient whose factorial ratios are long enough
    to make it vanish mod p^N is 0 without forming the product
    (`_ratio_or_zero`); every other one is formed exactly and checked for
    divisibility by p^i.

    The truncation is taken as given: `fiber_cohomology`,
    `oracle_cohomology` and `verify_orbit` validate theirs first, a grown
    truncation is
    valid whenever its base is (`OrbitTruncation.grown`), and the
    transition oracle's shared truncation, sized from its top level, is
    valid at every level below it (`TransitionOracle`).
    """
    p, e, i = params.p, params.e, params.i
    orbit, A, N = trunc.orbit, trunc.A, trunc.N
    if table.p != p:
        raise ValueError(f"orbit table is over p={table.p}, not p={p}")
    if table.orbit != orbit:
        raise ValueError(f"orbit table is for orbit {table.orbit}, not {orbit}")
    if table.A < A:
        raise ValueError(f"orbit table reaches level {table.A}, below A={A}")
    n = A + 1
    modulus, pi = p**N, p**i
    weights = table.weights[:n]

    # level by level: the Nygaard exponents, the differentials and the
    # canonical maps
    diff_nygaard, diff_full, can0, can1, u0, u1 = [], [], [], [], [], []
    for m_a, L in zip(weights, table.floors):
        v0, v1 = nygaard_exponents(i, e, m_a, L)
        b = brace(m_a, e)
        diff_nygaard.append(p ** (v0 - v1) * b % modulus)
        diff_full.append(b % modulus)
        can0.append(pow(p, v0, modulus))
        can1.append(pow(p, v1, modulus))
        u0.append(v0)
        u1.append(v1)

    # level a to a+1: the divided Frobenius, whose x ratios are bounded by
    # the level floors of a and a+1, since m_(a+1) = p·m_a
    floors0 = [m_a // e for m_a in weights]
    floors1 = [(m_a - 1) // e for m_a in weights]
    frob0, frob1 = [], []
    for a in range(A):
        # caps of the degree-0 scaling p^u0 and the degree-1 one p^(u1+1);
        # u0 - u1 is 0 or 1, so cap0 is the larger
        cap0, cap1 = N + i - u0[a], N + i - u1[a] - 1
        ratio_alpha = _alpha_floor_ratio(table.slot_floors[a], p, cap0)
        r0 = ratio_alpha and ratio_alpha * _ratio_or_zero(floors0[a + 1], floors0[a], p, cap0)
        num0 = p ** u0[a] * r0
        if num0 % pi:
            raise ArithmeticError("degree-0 Frobenius coefficient not divisible by p^i")
        frob0.append(num0 // pi % modulus)
        r1 = ratio_alpha and ratio_alpha * _ratio_or_zero(floors1[a + 1], floors1[a], p, cap1)
        num1 = p ** (u1[a] + 1) * r1
        if num1 % pi:
            raise ArithmeticError("degree-1 Frobenius coefficient not divisible by p^i")
        frob1.append(num1 // pi % modulus)

    return OrbitMatrices(p, orbit, n, modulus, diff_nygaard, diff_full, can0, can1, frob0, frob1, u1, floors0, floors1)


@dataclass(frozen=True)
class FiberCohomology:
    """The three cohomology groups of the truncated fiber complex, read
    once, when the fiber is built (`of`).

    Degrees 1 and 2 are computed modulo p^N.  Reducing the whole complex
    would fold the degree-1 torsion back into degree 0 (universal
    coefficients), so degree 0 is certified instead: a column of the first
    differential whose elementary divisor over Z/p^N is below p^N has a
    nonzero integer elementary divisor, and when every column has one the
    differential is injective over the integers and H^0 vanishes.
    `h0_kernel_rank` counts the columns left uncertified; `exponents`
    refuses when it is nonzero rather than guess.

    `of` first checks, on the coefficient lists, that the columns of d0
    are cocycles (`OrbitMatrices.fiber_d0_rows`), and raises
    ArithmeticError otherwise.  It then eliminates d1 once, for the kernel
    under H^1, and the quotient of that kernel by d0 once.  The kernel
    keeps only its nontrivial coordinates (t_j < p^N, see
    `snf.KernelLattice`) and the rows of V⁻¹, its one change of basis; a
    basis column is back-substituted from them on demand.  The columns
    of d0 lie in the kernel, so d0 ≡ B·Y mod p^N with B = V·diag(t) the
    kernel basis, and Y, their kernel coordinates, is the kernel's kept
    rows of V⁻¹ times d0, read off d0's rows (`KernelLattice.coordinates`);
    no vector is solved for.  V is invertible mod p^N, so the divisors of
    d0 below p^N are those of diag(t)·Y.  When d1 is onto mod p^N, as on
    every fiber of the README jobs and the acceptance grid, the kernel
    keeps n of its 2n coordinates, all with t_j = 1, each kept row of V⁻¹
    is a unit vector, so Y is the rows of d0 at the columns never pivoted
    on; H^1's quotient is n×n, it is Y itself, and the degree-0
    certificate needs no third elimination.  Both differentials come with
    the sign that makes the canonical maps +1 past the Nygaard range
    (`OrbitMatrices.fiber_d0_rows`), so the unit pivots there, in d1 and
    in Y alike, need no rescaling; the opposite sign has the same kernel
    and image, so every reading and the generator are the same, and the
    class functional differs only by a unit.  Elsewhere `of` eliminates
    diag(t)·Y for it, since every reading is made there.  The quotient
    builds U when its caller reads the class functional: the stability
    recheck compares exponents and builds none.  H^2 =
    C^2/(im d1 + p^N·C^2) with C^2 all cocycles, so its exponents (`h2`)
    are those of the elementary divisors of d1 mod p^N, which the kernel
    keeps.  The rows of d1 are kept: every cocycle check applies them, and
    only the certificate's fallback scales copies of them
    (`certify_kernel_generator`).

    The record keeps readings and no transform: `h0_kernel_rank`, H^1's
    exponents (`h1`), `h2`, and `h` with H^1 = Z/p^h, None when H^1 is not
    cyclic; and, when U is built and h >= 1, H^1's class functional
    (`functional`) and a generator (`generator`), both None otherwise.
    The certificate and the transition oracle alike read it.  The
    generator is the first kernel basis column whose class is a unit, its
    index k read from the same row of U as the functional
    (`QuotientPresentation.cyclic_reading`), where basis column k has class
    U[j][k] mod p^h; only that column is written out, by back-substitution
    over the kernel's V⁻¹ (`KernelLattice.basis_column`), and its class is
    still read through the functional: a column whose class there is not a
    unit leaves `generator` None.  One exists: the basis spans the kernel
    K modulo p^N and the class map K -> Z/p^h is onto, so the basis cannot
    map into pZ/p^h.  A frozen record: a changed copy comes from
    `dataclasses.replace`.
    """

    matrices: OrbitMatrices
    d1_rows: list[Sparse]
    h0_kernel_rank: int
    h1: tuple[int, ...]
    h2: tuple[int, ...]
    h: int | None
    functional: ClassFunctional | None = None
    generator: list[int] | None = None

    @classmethod
    def of(cls, mats: OrbitMatrices, build_u: bool = True) -> "FiberCohomology":
        """The fiber cohomology of `mats`, read once; H^1's quotient builds
        the U its class functional and generator read when `build_u` is
        set."""
        p, n, q = mats.p, mats.n, mats.modulus
        d0_rows, d1_rows = mats.fiber_d0_rows(), mats.fiber_d1_rows()
        kernel = kernel_mod(d1_rows, 2 * n, p, q)
        h1 = quotient(kernel, d0_rows, n, build_u)
        # n minus the number of divisors of d0 below p^N, read from
        # diag(t)·Y; when every kept t_j is 1, H^1's G is Y itself
        if any(t > 1 for t in kernel.t):
            scaled = [{c: t * y for c, y in row.items()} for t, row in zip(kernel.t, h1.coords)]
            d0_divisors = smith_mod_prime_power(scaled, n, p, q, False)[0]
        else:
            d0_divisors = h1.divisors
        exps = h1.exponents()
        h = None if len(exps) > 1 else sum(exps)
        functional = gen = None
        if build_u and h:
            functional, k = h1.cyclic_reading()
            gen = None if k is None else kernel.basis_column(k)
            if gen is not None and not functional.coordinate(gen) % p:
                gen = None
        h0_kernel_rank = n - sum(d < q for d in d0_divisors)
        h2 = divisor_exponents(kernel.divisors, p)
        return cls(mats, d1_rows, h0_kernel_rank, exps, h2, h, functional, gen)

    def exponents(self, p: int) -> dict[int, tuple[int, ...]]:
        """The p-power exponents of H^0, H^1 and H^2; p must be the prime
        of the matrices, since another prime reads every group as
        trivial."""
        if p != self.matrices.p:
            raise ValueError(f"fiber is over p={self.matrices.p}, not p={p}")
        uncertified = self.h0_kernel_rank
        if uncertified:
            raise OracleError(f"degree-0 injectivity not certified mod p^N on {uncertified} column(s)")
        return {0: (), 1: self.h1, 2: self.h2}


def fiber_cohomology(params: TruncationParams, trunc: OrbitTruncation) -> FiberCohomology:
    """The fiber cohomology at `trunc`, with U built, for the class
    functional and generator the kernel-generator certificate reads.
    `trunc` is validated first, and the matrices read one orbit table made
    at its level; the transition oracle, whose shared truncation is valid
    at each of its levels, builds its fibers with `FiberCohomology.of`."""
    trunc.validate(params)
    table = OrbitTable.of(params.p, trunc.orbit, trunc.A)
    return FiberCohomology.of(build_orbit_matrices(params, trunc, table))


def oracle_cohomology(params: TruncationParams, trunc: OrbitTruncation) -> dict[int, tuple[int, ...]]:
    """Cohomology of the truncated fiber complex as p-power exponents per
    degree, rechecked at the grown truncation (`_stable_fiber`).  `trunc`
    is validated first.  Only exponents are read, so neither fiber builds
    U."""
    trunc.validate(params)
    return _stable_fiber(params, trunc, False)[1]


def _stable_fiber(
    params: TruncationParams, trunc: OrbitTruncation, build_u: bool
) -> tuple[FiberCohomology, dict[int, tuple[int, ...]]]:
    """The fiber cohomology at `trunc`, building U when `build_u` is set,
    and its exponents, after the stability recheck: the fiber at the
    grown truncation (`OrbitTruncation.grown`) must give the same
    exponents, or TruncationInstabilityError.  Both fibers' matrices
    come from one build each, reading one orbit table made at the grown
    level; the base build reads its levels 0..A.  The caller validates
    `trunc`, and the grown truncation is valid whenever it is, so the one
    degree-1 walk of that check serves both.  Eliminating both fibers is
    the check, and the grown fiber builds no U."""
    grown = trunc.grown(params)
    table = OrbitTable.of(params.p, trunc.orbit, grown.A)
    base, grown_mats = build_orbit_matrices(params, trunc, table), build_orbit_matrices(params, grown, table)
    fc = FiberCohomology.of(base, build_u)
    exps = fc.exponents(params.p)
    again = FiberCohomology.of(grown_mats, False).exponents(params.p)
    if again != exps:
        raise TruncationInstabilityError(
            f"cohomology changed under truncation growth: {exps} vs {again}"
        )
    return fc, exps


def sparse_product(rows: list[Sparse], x: list[int], q: int) -> list[int]:
    """rows·x mod q, one entry per sparse row."""
    out = []
    for row in rows:
        v = 0
        for j, a in row.items():
            v += a * x[j]
        out.append(v % q)
    return out


def _nonvanishing_combination(vecs: list[list[int]], p: int) -> list[int] | None:
    """Coefficients c over F_p with sum(c_j * vecs_j) nonzero in every
    coordinate, or None; with no vectors the only combination is zero, so
    None.  The vectors independent of the ones before them span the same
    space, so the exhaustive search is over their p^rank combinations,
    with rank at most the number of coordinates.  The kernel-generator
    certificate runs it only when no single vector is nonzero in every
    coordinate (`certify_kernel_generator`)."""
    if not vecs:
        return None
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

    Two steps decide it.  When H^1 is nontrivial, the fiber's own
    generator column z, read when the fiber was built
    (`FiberCohomology.generator`), is tried first: if
    each z_a is p^(c_a) times a unit mod p^N, z is such a cocycle, and
    the claim holds.  This step accepts or passes the claim on; it never
    rejects.  Otherwise, with S = diag(p^(c_a)) scaling the first s
    columns of d1, such cocycles are S·z for the kernel vectors z of d1·S
    whose first s coordinates are units.  The s unit coordinates and,
    when H^1 is nontrivial, the class coordinate of S·z are F_p-linear
    forms that vanish on pK, and the kernel basis spans K modulo p^N, so
    one search over K/pK (`_nonvanishing_combination`) of every basis
    column decides existence exactly, whatever the order of the basis.
    The first step agrees with it: S⁻¹z lies in the kernel of d1·S with a
    unit at every form.  Either way the cocycle found is checked against
    d1, and a non-cocycle raises OracleError.

    The exponents of levels 0..s-2 are not pinned, since more than one
    valuation profile can carry a generator: for p=2, e=3, i=2, m=1 the
    claims (0,0,2) and (0,0,3) pass as the closed form's (0,0,1) does,
    while (0,1,1) and (1,0,1) fail.  A non-cyclic H^1 fails.  Rejects a
    claim with s = 0, whose kernel summand is trivial, a claim about
    another orbit than that of the matrices, and a nontrivial H^1 of a
    fiber built without U, which has no class functional."""
    mats = fc.matrices
    s, h, functional, cochain = summand.s, fc.h, fc.functional, fc.generator
    if s == 0:
        raise ValueError("orbit has s = 0; kernel summand is trivial")
    if summand.orbit != mats.orbit:
        raise ValueError(f"claim on orbit {summand.orbit} checked against the matrices of {mats.orbit}")
    if h and functional is None:
        raise ValueError("fiber has no U: its H^1 was read without a class functional")
    p, n, q = mats.p, mats.n, mats.modulus
    if s != len(summand.generator_exponents) or s > n or h is None:
        return False
    scale = [p**c for c in reversed(summand.generator_exponents)]
    if cochain is None or not all(x % f == 0 and x // f % p for x, f in zip(cochain, scale)):
        scale += [1] * (2 * n - s)
        kernel = kernel_mod([{j: a * scale[j] % q for j, a in row.items()} for row in fc.d1_rows], 2 * n, p, q)
        basis = [kernel.basis_column(k) for k in range(kernel.dim)]
        forms = [z[:s] for z in basis]
        if h:
            scaled = ClassFunctional([w * f for w, f in zip(functional.w, scale)], q, functional.d)
            forms = [form + [scaled.coordinate(z)] for form, z in zip(forms, basis)]
        coeffs = _nonvanishing_combination(forms, p)
        if coeffs is None:
            return False
        cochain = [sum(map(mul, coeffs, row)) * f % q for row, f in zip(zip(*basis), scale)]
    if any(sparse_product(fc.d1_rows, cochain, q)):
        raise OracleError("kernel-generator certificate produced a non-cocycle")
    return not h or functional.coordinate(cochain) % p != 0


class TransitionOracle:
    """Matrix-level transition maps between truncation exponents f >= e for
    one orbit.

    All levels share one truncation `trunc`, the `default_truncation` of
    the top level, so the transition matrices line up levelwise; the
    degree-1 walk never shrinks as e grows, so the top level's walk is the
    longest.  That walk sizes A and N, and no lower level's walk is
    longer, so `trunc` is valid at every level of `levels` and a level is
    built straight from `build_orbit_matrices` and `FiberCohomology.of`,
    with no second walk.  A level outside `levels` may need a larger
    truncation than `trunc`, so it is refused with ValueError rather than
    read at the wrong size.  What does not depend on e is worked out once
    per oracle, in one orbit table at level A (`OrbitTable`, `table`): the
    x-weights p^a m, the alpha l1 floors and the slot floor pairs, which
    every level's build reads.  Each level's work is done once, on first
    use (`level`): its `FiberCohomology`, which read h_e, the class
    functional of H^1 and a generator of H^1 when it was built, and keeps
    the matrices, the rows of d1 and those readings, but none of the
    transforms or coordinates of its eliminations.  The degree-1 Nygaard
    exponents and the factorial bounds (m_a-1)//e and m_a//e that the
    coefficients of every pair into or out of the level read are those the
    level's build computed (`OrbitMatrices.u1`, `.floors1`, `.floors0`);
    nothing recomputes them.

    The observable valuation needs H^1 = Z/p^h cyclic, and a non-cyclic
    H^1 is refused.  Cyclicity is also what makes one functional enough:
    the class of a cocycle x is then a single coordinate in Z/p^h, read as
    one dot product w·x (`QuotientPresentation.cyclic_reading`), and H^1
    is read through nothing else.  The generator is the fiber's pick, the
    first kernel basis column whose class is a unit
    (`FiberCohomology.generator`), the column the kernel-generator
    certificate tries first, and a level with no pick is refused.  The
    valuation does not depend on the column picked: two generators differ
    by a unit factor and an element of im d0 + p^N·C^1, the f -> e map is
    a chain map and so sends that lattice at level f into its counterpart
    at level e, and a unit factor leaves v_p unchanged.

    A pair (e, f) costs O(A) arithmetic: the diagonal transition
    coefficients applied to the level-f generator, each N^1 one a factorial
    ratio shifted by the exponent difference u1_f - u1_e, the level-e rows
    of d1 applied to the image (`sparse_product`, at most three terms a
    row), and the dot product.  p is made a `Prime` once, so the per-level
    parameters skip the primality test.
    """

    def __init__(self, p: int, i: int, orbit: Orbit, levels: list[int]):
        p = Prime(p)
        orbit.validate(p)
        if any(lv % p == 0 for lv in levels):
            raise ValueError("levels must be coprime to p")
        if i < 0 or not levels or min(levels) < 1:
            raise ValueError("need a weight i >= 0 and at least one level, each >= 1")
        self.p, self.i, self.orbit = p, i, orbit
        self.levels = sorted(levels)
        self.trunc = default_truncation(self.params(self.levels[-1]), orbit)
        self.table = OrbitTable.of(p, orbit, self.trunc.A)
        self._cache: dict[int, FiberCohomology] = {}

    def params(self, e: int) -> TruncationParams:
        return TruncationParams(self.p, e, self.i)

    def level(self, e: int) -> FiberCohomology:
        fc = self._cache.get(e)
        if fc is None:
            if e not in self.levels:
                raise ValueError(f"level e={e} is not among the oracle's levels {self.levels}")
            fc = FiberCohomology.of(build_orbit_matrices(self.params(e), self.trunc, self.table))
            if fc.h is None:
                raise OracleError(f"degree-1 cohomology not cyclic at e={e}: {fc.h1}")
            if fc.h and fc.generator is None:
                raise OracleError(f"no kernel basis column generates H^1 at e={e}")
            self._cache[e] = fc
        return fc

    def h_exponent(self, e: int) -> int:
        return self.level(e).h

    def _transition_image(self, lv_e: FiberCohomology, lv_f: FiberCohomology) -> list[int]:
        """The f -> e map on N^1 (+) D^0, applied to the level-f generator.

        Its diagonal coefficients are p^(u1_f - u1_e)·((m_a-1)//e)!/((m_a-1)//f)!
        on N^1 and (m_a//e)!/(m_a//f)! on D^0, with the exponents and the
        factorial bounds read off the two levels' matrices
        (`OrbitMatrices.u1`, `.floors1`, `.floors0`).
        A coefficient whose ratio makes it vanish mod p^N is 0 without
        forming the product (`_ratio_or_zero`); every other one is formed
        exactly.  The N^1 one reads the ratio shifted by the exponent
        difference alone, never p^(u1_f) and p^(u1_e) apart: u1 never
        falls as the level grows, so the difference is >= 0 for f >= e and
        the ratio is then multiplied by p^(u1_f - u1_e), or read as it is
        when the two exponents agree.  A negative difference must divide
        the ratio, or ArithmeticError.
        """
        p, N = self.p, self.trunc.N
        mats_e, mats_f = lv_e.matrices, lv_f.matrices
        q, n, gen = mats_e.modulus, mats_e.n, lv_f.generator
        image = [0] * (2 * n)
        levels = zip(mats_e.u1, mats_f.u1, mats_e.floors1, mats_f.floors1, mats_e.floors0, mats_f.floors0)
        for a, (u1_e, u1_f, b1_e, b1_f, b0_e, b0_f) in enumerate(levels):
            shift = u1_f - u1_e
            coeff = _ratio_or_zero(b1_e, b1_f, p, N - shift)
            if shift > 0:
                coeff *= p**shift
            elif shift < 0:
                if coeff % p**-shift:
                    raise ArithmeticError("transition coefficient not divisible by target scaling")
                coeff //= p**-shift
            image[a] = coeff * gen[a] % q
            image[n + a] = _ratio_or_zero(b0_e, b0_f, p, N) * gen[n + a] % q
        return image

    def valuation(self, e: int, f: int) -> int:
        """Observable p-valuation of the induced map on degree-1 cohomology:
        an integer in [0, h_e], where h_e means the zero map."""
        if f < e:
            raise ValueError("need f >= e")
        lv_e, lv_f = self.level(e), self.level(f)
        if not (lv_e.h and lv_f.h):
            raise DegenerateOrbitError(f"trivial group at e={e} or f={f}")
        image = self._transition_image(lv_e, lv_f)
        if any(sparse_product(lv_e.d1_rows, image, lv_e.matrices.modulus)):
            raise ArithmeticError("element outside the kernel lattice")
        c = lv_e.functional.coordinate(image)
        return vp(c, self.p) if c else lv_e.h


@dataclass(frozen=True)
class OrbitCertificate:
    """One verified orbit: inputs, the fiber's matrices, divisors, and
    pass/fail.  No report reads the matrices' hash, so `matrices_hash` is
    computed when read."""

    orbit: Orbit
    s: int
    h_closed: int
    oracle_exponents: dict[int, tuple[int, ...]]
    kernel_ok: bool
    matrices: OrbitMatrices = field(repr=False)
    passed: bool

    @property
    def matrices_hash(self) -> str:
        return self.matrices.content_hash()


def verify_orbit(params: TruncationParams, summand, A: int | None = None, N: int | None = None) -> OrbitCertificate:
    """Check the closed-form claim `summand` (a `SyntomicSummand`: orbit,
    module W(k)/p^h, s and generator exponents) against the oracle on the
    claim's own orbit: degree-1 exponent equality, vanishing in degrees 0
    and 2, truncation stability, and kernel-generator certification when
    s >= 1 and h >= 1.

    The truncation is `default_truncation(params, summand.orbit)`, with
    its level A or precision N replaced by either one given.  A level A
    given without N takes N by `default_truncation`'s own rule, three
    above the least precision for A.  One degree-1 walk, after one check
    of the orbit, both sizes the truncation and validates it, with the
    messages of `OrbitTruncation.validate`.  The fiber cohomology is
    computed once with the stability recheck (`_stable_fiber`), building
    the U transform the kernel certificate's class functional reads."""
    s = _walk_length(params, summand.orbit)
    A = s + 2 if A is None else A
    trunc = OrbitTruncation(summand.orbit, A, _least_precision(params.i, A) + 3 if N is None else N)
    _check_truncation(trunc, params.i, s)
    fc, exps = _stable_fiber(params, trunc, True)
    h = summand.module.h
    degree_match = exps == {0: (), 1: (h,) if h else (), 2: ()}
    kernel_ok = summand.s < 1 or h == 0 or certify_kernel_generator(fc, summand)
    return OrbitCertificate(
        orbit=summand.orbit,
        s=summand.s,
        h_closed=h,
        oracle_exponents=exps,
        kernel_ok=kernel_ok,
        matrices=fc.matrices,
        passed=degree_match and kernel_ok,
    )
