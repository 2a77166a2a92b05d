"""Brute-force oracle: matrix construction, fiber cohomology, kernel
certification, truncation stability, and transition maps."""

import ast
import dataclasses
import functools
import hashlib
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snf_witness as witness
from snf_witness import eye
import trcalc.drw as drw_module
import trcalc.oracle as oracle_module
import trcalc.snf as snf_module
from trcalc.cli import JobSpec, run_command
from trcalc.drw import CyclicWittModule, TruncationParams, nygaard_exponents
from trcalc.oracle import (
    DegenerateOrbitError,
    FiberCohomology,
    OracleError,
    OrbitTable,
    OrbitTruncation,
    TransitionOracle,
    TruncationInstabilityError,
    build_orbit_matrices,
    certify_kernel_generator,
    default_truncation,
    fiber_cohomology,
    oracle_cohomology,
    sparse_product,
    verify_orbit,
)
from trcalc.padic import MultiIndex, PAdicFraction, brace, factorial_ratio, vp, vp_factorial
from trcalc.prosystem import ml_bound, tr_valuation
from trcalc.snf import (
    ClassFunctional,
    QuotientPresentation,
    divisor_exponents,
    kernel_mod,
    quotient,
    smith_mod_prime_power,
)
from trcalc.syntomic import AlphaBounds, Orbit, enumerate_alphas, enumerate_orbits, h1_syntomic_orbit

EMPTY = MultiIndex()


def _build(params, trunc):
    """`build_orbit_matrices` at `trunc`, reading an orbit table made at
    its level for the one build."""
    return build_orbit_matrices(params, trunc, OrbitTable.of(params.p, trunc.orbit, trunc.A))


def _exps(p, e, i, m, alpha=EMPTY):
    params = TruncationParams(p, e, i)
    orbit = Orbit(m, alpha)
    return oracle_cohomology(params, default_truncation(params, orbit))


def test_oracle_cohomology_examples():
    assert _exps(3, 2, 1, 1) == {0: (), 1: (1,), 2: ()}
    assert _exps(2, 3, 1, 1) == {0: (), 1: (2,), 2: ()}
    assert _exps(2, 3, 2, 5) == {0: (), 1: (1,), 2: ()}


def test_oracle_trivial_orbit():
    assert _exps(2, 3, 1, 5) == {0: (), 1: (), 2: ()}


def test_truncation_invariants_rejected():
    params = TruncationParams(3, 2, 1)
    with pytest.raises(ValueError):
        OrbitTruncation(Orbit(1), A=1, N=40).validate(params)
    with pytest.raises(ValueError):
        OrbitTruncation(Orbit(1), A=4, N=5).validate(params)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.integers(1, 10),
    st.integers(2, 12),
    st.integers(1, 30),
    st.booleans(),
    st.integers(0, 3),
)
def test_grown_truncation_validates_whenever_the_base_does(p, i, e, m, one_over_p, extra_levels):
    # at the least precision the base allows, N + 2 alone lacks headroom
    # for A + 1 once i > 2
    if e % p == 0 or m % p == 0:
        return
    alpha = MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, p)}) if one_over_p else EMPTY
    params = TruncationParams(p, e, i)
    orbit = Orbit(m, alpha)
    A = default_truncation(params, orbit).A + extra_levels
    base = OrbitTruncation(orbit, A, i * (A + 1) + 5)
    base.validate(params)
    grown = base.grown(params)
    assert (grown.orbit, grown.A) == (orbit, A + 1) and grown.N >= base.N + 2
    grown.validate(params)


def test_differential_blocks_are_braces():
    params = TruncationParams(3, 2, 1)
    trunc = default_truncation(params, Orbit(1))
    mats = _build(params, trunc)
    assert mats.diff_full == [brace(3**a, 2) % mats.modulus for a in range(mats.n)]


def test_frobenius_units_below_s():
    # below the stopping level the divided Frobenius entries are p-units
    params = TruncationParams(3, 2, 1)
    mats = _build(params, OrbitTruncation(Orbit(1), 3, 40))
    assert mats.frob1[0] % 3 != 0


def _fiber_grid():
    """The fiber matrices at the base and the grown truncation of every
    orbit m <= max(i, 1)*e prime to p, for p in {2, 3, 5}, i <= 4,
    e <= 9 prime to p, and alpha empty or t^(1/p)."""
    for p in (2, 3, 5):
        alphas = [EMPTY, MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, p)})]
        for i, e, alpha in itertools.product(range(5), range(1, 10), alphas):
            if e % p == 0:
                continue
            params = TruncationParams(p, e, i)
            for m in range(1, max(i, 1) * e + 1):
                if m % p:
                    base = default_truncation(params, Orbit(m, alpha))
                    for trunc in (base, base.grown(params)):
                        yield _build(params, trunc)


def test_fiber_complex_composes_to_zero():
    # on the grid, the rows of d1 and the columns of d0 built from the
    # coefficient lists list their entries in ascending order and write
    # out to the dense reference assembly, and d1·d0 ≡ 0 mod p^N
    checked = 0
    for mats in _fiber_grid():
        n, q = mats.n, mats.modulus
        rows, cols = mats.fiber_d1_rows(), mats.fiber_d0_columns()
        assert all(list(vec) == sorted(vec) for vec in rows + cols)
        d1, d0 = witness.fiber_d1(mats), witness.fiber_d0(mats)
        assert witness.densify(rows, 2 * n) == d1
        assert witness.densify(cols, 2 * n) == witness.columns(d0)
        assert all(v % q == 0 for row in witness.mat_mul(d1, d0) for v in row)
        checked += 1
    assert checked > 2000


def test_sign_convention_independence():
    # negating (phi/p^i - can) in both degrees flips d0/d1 blocks but leaves
    # kernels and images, hence cohomology, unchanged; the exact-integer
    # witness, given the p^N columns explicitly, agrees
    params = TruncationParams(2, 3, 2)
    trunc = default_truncation(params, Orbit(1))
    fc = fiber_cohomology(params, trunc)
    mats = _build(params, trunc)
    mats.frob0 = [(-v) % mats.modulus for v in mats.frob0]
    mats.can0 = [(-v) % mats.modulus for v in mats.can0]
    mats.frob1 = [(-v) % mats.modulus for v in mats.frob1]
    mats.can1 = [(-v) % mats.modulus for v in mats.can1]

    n, modulus = mats.n, mats.modulus
    h1 = quotient(kernel_mod(mats.fiber_d1_rows(), 2 * n, 2, modulus), mats.fiber_d0_columns())
    assert h1.exponents() == fc.h1.exponents()

    k1 = witness.kernel_mod(witness.fiber_d1(mats), modulus)
    modulus_columns = [[modulus * v for v in row] for row in eye(2 * n)]
    divisors = witness.quotient_divisors(k1, witness.hstack(witness.fiber_d0(mats), modulus_columns))
    assert tuple(sorted((vp(d, 2) for d in divisors if d != 1), reverse=True)) == fc.h1.exponents()


def test_truncation_stability():
    params = TruncationParams(2, 3, 2)
    orbit = Orbit(1)
    trunc = default_truncation(params, orbit)
    base = fiber_cohomology(params, trunc).exponents(2)
    grown = fiber_cohomology(params, OrbitTruncation(orbit, trunc.A + 1, trunc.N + 2)).exponents(2)
    assert base == grown


def test_uncertified_degree0_column_is_refused(monkeypatch):
    params = TruncationParams(2, 3, 2)
    trunc = default_truncation(params, Orbit(1))
    assert fiber_cohomology(params, trunc).h0_kernel_rank == 0
    real = oracle_module.build_orbit_matrices

    def dead_last_column(params, trunc, table):
        # the last column of d0 holds only diff_nygaard[A] and -can0[A]
        mats = real(params, trunc, table)
        mats.diff_nygaard[-1] = 0
        mats.can0[-1] = mats.modulus
        return mats

    monkeypatch.setattr(oracle_module, "build_orbit_matrices", dead_last_column)
    fc = fiber_cohomology(params, trunc)
    assert fc.h0_kernel_rank == 1
    with pytest.raises(OracleError):
        fc.exponents(2)


def _scale_d1_row(mats, r, f):
    """Multiply row r of d1 by f, in the coefficient lists it is built from."""
    q = mats.modulus
    mats.can1[r] = mats.can1[r] * f % q
    mats.diff_full[r] = mats.diff_full[r] * f % q
    if r:
        mats.frob1[r - 1] = mats.frob1[r - 1] * f % q


def _direct_h0_kernel_rank(fc):
    """The degree-0 certificate from a separate elimination of d0, the
    dense reference assembly fed as sparse rows."""
    mats = fc.matrices
    d0_rows = witness.sparse_rows(witness.fiber_d0(mats))
    divisors = smith_mod_prime_power(d0_rows, mats.n, mats.p, mats.modulus, False)[0]
    return divisors[: mats.n].count(mats.modulus)


def test_degree0_certificate_matches_the_direct_snf_of_d0():
    # h0_kernel_rank is read from H^1's elimination (d0 = B·Y mod p^N);
    # on every orbit m <= i*e of this grid, at the default, grown and
    # minimal-N truncations, it agrees with the divisors of d0 itself
    checked = 0
    for p in (2, 3, 5):
        alphas = [EMPTY, MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, p)})]
        for i, e, alpha in itertools.product(range(1, 5), range(1, 7), alphas):
            if e % p == 0:
                continue
            params = TruncationParams(p, e, i)
            for m in range(1, i * e + 1):
                if m % p == 0:
                    continue
                base = default_truncation(params, Orbit(m, alpha))
                minimal_n = OrbitTruncation(base.orbit, base.A, i * (base.A + 1) + 5)
                for trunc in (base, base.grown(params), minimal_n):
                    fc = FiberCohomology.of(_build(params, trunc), False)
                    assert fc.h0_kernel_rank == _direct_h0_kernel_rank(fc) == 0
                    checked += 1
    # and on the README job `verify --p 2 --i 2 --e 3 --A 6 --N 24`
    params = TruncationParams(2, 3, 2)
    for m in (1, 5):
        fc = FiberCohomology.of(_build(params, OrbitTruncation(Orbit(m), 6, 24)), False)
        assert fc.h0_kernel_rank == _direct_h0_kernel_rank(fc) == 0
    assert checked > 1000


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.integers(1, 3),
    st.integers(2, 9),
    st.integers(1, 20),
    st.integers(1, 2),
    st.integers(0, 30),
    st.booleans(),
)
def test_degree0_certificate_with_nontrivial_kernel_steps(p, i, e, m, scale, level, dead_column):
    # scaling one row of d1 by p^scale keeps a kernel coordinate with
    # 1 < t_j < p^N, so the certificate eliminates diag(t)·Y; zeroing the
    # last column of d0 leaves exactly that column uncertified
    if e % p == 0 or m % p == 0:
        return
    params = TruncationParams(p, e, i)
    mats = _build(params, default_truncation(params, Orbit(m)))
    n, q = mats.n, mats.modulus
    _scale_d1_row(mats, level % n, p**scale)
    if dead_column:
        mats.diff_nygaard[-1] = 0
        mats.can0[-1] = q
    fc = FiberCohomology.of(mats, False)
    assert any(t > 1 for t in fc.h1.kernel.t)
    assert fc.h0_kernel_rank == _direct_h0_kernel_rank(fc) == int(dead_column)


def test_kernel_generator_certification():
    # the last two need units other than 1 at the levels below s: no
    # cocycle has coordinate exactly p^(c_a) there
    cases = [(3, 2, 1, 1), (2, 3, 1, 1), (2, 3, 2, 1), (2, 3, 2, 5), (5, 2, 2, 1), (3, 5, 3, 4), (2, 6, 4, 5)]
    for p, e, i, m in cases:
        params = TruncationParams(p, e, i)
        trunc = default_truncation(params, Orbit(m))
        summand = h1_syntomic_orbit(params, Orbit(m))
        assert certify_kernel_generator(fiber_cohomology(params, trunc), summand)


@pytest.mark.parametrize(
    "exps, ok",
    [((0, 0, 1), True), ((0, 0, 2), True), ((0, 0, 3), True), ((0, 1, 1), False), ((1, 0, 1), False)],
)
def test_kernel_generator_certificate_decides_the_claim(exps, ok):
    # the valuations below level s are checked only as far as a cocycle
    # generating H^1 has them: p^2 and p^3 at level 0 carry one as p does,
    # and an extra p at level 1 or at level s-1 = 2 leaves none
    params = TruncationParams(2, 3, 2)
    claim = h1_syntomic_orbit(params, Orbit(1))
    assert claim.generator_exponents == (0, 0, 1)
    fc = fiber_cohomology(params, default_truncation(params, Orbit(1)))
    assert certify_kernel_generator(fc, dataclasses.replace(claim, generator_exponents=exps)) is ok


def test_kernel_generator_certificate_searches_the_class_coordinate_too(monkeypatch):
    # with a class functional that reads cochain coordinate k, the
    # certificate holds exactly when some cocycle with the claimed level
    # valuations has a unit at k as well; a search that stops at the first
    # cocycle with units at the levels would miss the D^0 coordinates here
    params = TruncationParams(2, 3, 2)
    claim = h1_syntomic_orbit(params, Orbit(1))
    fc = fiber_cohomology(params, default_truncation(params, Orbit(1)))
    n, q, s, d = fc.matrices.n, fc.matrices.modulus, claim.s, 2 ** claim.module.h
    scale = [2**c for c in reversed(claim.generator_exponents)] + [1] * (2 * n - s)
    scaled_d1 = [[x * f % q for x, f in zip(row[:s], scale)] + row[s:] for row in witness.fiber_d1(fc.matrices)]
    kernel = kernel_mod(witness.sparse_rows(scaled_d1), 2 * n, 2, q)
    basis = [kernel.basis_column(k) for k in range(kernel.dim)]
    # kernel vectors z of the scaled d1 mod 2, and their cocycles scale·z
    combos = [
        [sum(c * col[j] for c, col in zip(cs, basis)) % 2 for j in range(2 * n)]
        for cs in itertools.product(range(2), repeat=len(basis))
    ]
    verdicts = []
    for k in range(2 * n):
        expected = any(all(z[:s]) and z[k] * scale[k] % 2 for z in combos)
        reads_k = ClassFunctional([q * (j == k) for j in range(2 * n)], q, d)
        monkeypatch.setattr(QuotientPresentation, "class_functional", lambda self: reads_k)
        assert certify_kernel_generator(FiberCohomology.of(fc.matrices), claim) is expected
        verdicts.append(expected)
    assert True in verdicts[n:] and False in verdicts


def test_nonvanishing_combination_of_no_vectors_is_none():
    # with no vectors the only combination is zero, which vanishes
    for p in (2, 3, 5):
        assert oracle_module._nonvanishing_combination([], p) is None
    assert oracle_module._nonvanishing_combination([[1, 0], [0, 1]], 2) == [1, 1]


def _full_search_verdict(fc, claim):
    """The kernel-generator verdict from every basis column at once: all
    columns written out and one `_nonvanishing_combination` over their
    forms, the s level coordinates and, when h >= 1, the class coordinate.
    Returns the verdict and whether some single column already has a unit
    at every form."""
    mats = fc.matrices
    p, n, q, s = mats.p, mats.n, mats.modulus, claim.s
    h = fc.h1.exponents()
    if s != len(claim.generator_exponents) or s > n or len(h) > 1:
        return False, False
    scale = [p**c for c in reversed(claim.generator_exponents)] + [1] * (2 * n - s)
    kernel = kernel_mod([{j: a * scale[j] % q for j, a in row.items()} for row in fc.d1_rows], 2 * n, p, q)
    basis = [kernel.basis_column(k) for k in range(kernel.dim)]
    forms = [col[:s] for col in basis]
    if h:
        functional = fc.h1.class_functional()
        scaled = ClassFunctional([w * f for w, f in zip(functional.w, scale)], q, functional.d)
        forms = [form + [scaled.coordinate(col)] for form, col in zip(forms, basis)]
    single = any(all(x % p for x in form) for form in forms)
    return oracle_module._nonvanishing_combination(forms, p) is not None, single


def _perturbed_claims():
    """Each closed-form claim with s >= 1 over p in {2, 3, 5}, i <= 4 and
    e <= 7 prime to p, for empty alpha and the one-slot window, as is and
    with one generator exponent moved by -1, +1 or +2 (kept when >= 0),
    each with the fiber cohomology of its orbit."""
    for p, i, e in itertools.product((2, 3, 5), range(5), range(1, 8)):
        if e % p == 0:
            continue
        params = TruncationParams(p, e, i)
        for bounds in (AlphaBounds(), AlphaBounds(("t",), 2, 1)):
            for claim in enumerate_orbits(params, bounds):
                if claim.s < 1:
                    continue
                fc = fiber_cohomology(params, default_truncation(params, claim.orbit))
                exps = claim.generator_exponents
                moved = [exps[:k] + (exps[k] + d,) + exps[k + 1 :] for k in range(len(exps)) for d in (-1, 1, 2)]
                for ex in [exps] + [ex for ex in moved if min(ex) >= 0]:
                    yield fc, dataclasses.replace(claim, generator_exponents=ex)


def test_kernel_generator_certificate_decides_the_perturbed_grid_as_the_full_search():
    # stopping at the first basis column with units at every form decides
    # each claim as the search over all columns does
    claims = accepted = 0
    for fc, claim in _perturbed_claims():
        expected, _ = _full_search_verdict(fc, claim)
        assert certify_kernel_generator(fc, claim) is expected, (fc.matrices.p, claim)
        claims += 1
        accepted += expected
    assert (claims, accepted) == (5004, 1782)


def test_kernel_generator_certificate_writes_columns_until_one_works(monkeypatch):
    # the closed-form claim at p=2, e=3, i=2, m=1 is carried by the fiber's
    # own generator column, so that one column of the fiber's kernel is
    # written, when the fiber is built, and the certificate writes none,
    # builds no scaled kernel and runs no search; (0,0,2) is not, so the
    # scaled d1 is eliminated once, all seven of its basis columns are
    # written and the search decides it, as the reference does
    params = TruncationParams(2, 3, 2)
    claim = h1_syntomic_orbit(params, Orbit(1))
    trunc = default_truncation(params, Orbit(1))
    wide = dataclasses.replace(claim, generator_exponents=(0, 0, 2))
    assert _full_search_verdict(fiber_cohomology(params, trunc), wide) == (True, False)
    written, searched, scaled_kernels = [], [], []
    basis_column = snf_module.KernelLattice.basis_column
    search = oracle_module._nonvanishing_combination
    real_kernel = oracle_module.kernel_mod

    def counting_column(self, k):
        written.append((k, self.dim))
        return basis_column(self, k)

    def counting_search(vecs, p):
        searched.append(len(vecs))
        return search(vecs, p)

    def counting_kernel(*args):
        scaled_kernels.append(args[1])
        return real_kernel(*args)

    monkeypatch.setattr(snf_module.KernelLattice, "basis_column", counting_column)
    monkeypatch.setattr(oracle_module, "_nonvanishing_combination", counting_search)
    monkeypatch.setattr(oracle_module, "kernel_mod", counting_kernel)
    fc = fiber_cohomology(params, trunc)
    n = fc.matrices.n
    assert written == [(fc.h1.generator_coordinate(), fc.h1.kernel.dim)] and fc.h1.kernel.dim != 7
    assert fc.generator == fc.h1.kernel.basis_column(written[0][0]) and scaled_kernels == [2 * n]
    written.clear()
    scaled_kernels.clear()
    assert certify_kernel_generator(fc, claim)
    assert written == [] and searched == [] and scaled_kernels == []
    assert certify_kernel_generator(fc, wide)
    assert written == [(k, 7) for k in range(7)] and searched == [7]
    assert scaled_kernels == [2 * n]


def test_kernel_generator_certificate_steps_on_the_perturbed_grid(monkeypatch):
    # which step decides each claim of the perturbed grid: the fiber's
    # generator column accepts exactly the unperturbed closed-form claims,
    # every one of them, and eliminates no scaled d1; every other claim
    # falls back to one elimination and one search over all its columns
    calls = []
    real_kernel = oracle_module.kernel_mod

    def counting_kernel(*args):
        calls.append(args[1])
        return real_kernel(*args)

    monkeypatch.setattr(oracle_module, "kernel_mod", counting_kernel)
    tally = {}
    last_fc = None
    for fc, claim in _perturbed_claims():
        closed, last_fc = fc is not last_fc, fc
        before = len(calls)
        verdict = certify_kernel_generator(fc, claim)
        assert len(calls) - before <= 1
        key = ("fallback" if len(calls) > before else "first", verdict, closed)
        tally[key] = tally.get(key, 0) + 1
    assert tally == {("first", True, True): 1346, ("fallback", True, False): 436, ("fallback", False, False): 3222}


def test_kernel_generator_certificate_refuses_a_first_step_non_cocycle(monkeypatch):
    # a generator column moved off the kernel at one coordinate past the
    # levels below s, keeping the claimed valuations and a unit class,
    # raises rather than being accepted
    for p, e, i, m in ((2, 3, 2, 1), (3, 2, 1, 1), (5, 2, 2, 1), (3, 5, 3, 4)):
        params = TruncationParams(p, e, i)
        claim = h1_syntomic_orbit(params, Orbit(m))
        fc = fiber_cohomology(params, default_truncation(params, Orbit(m)))
        mats, functional, gen = fc.matrices, fc.functional, fc.generator
        for j in range(claim.s, 2 * mats.n):
            bad = gen[:j] + [(gen[j] + 1) % mats.modulus] + gen[j + 1 :]
            if any(sparse_product(fc.d1_rows, bad, mats.modulus)) and functional.coordinate(bad) % p:
                break
        else:
            pytest.fail(f"no coordinate moves the generator off the kernel at {(p, e, i, m)}")
        assert certify_kernel_generator(fc, claim)
        with pytest.raises(OracleError, match="non-cocycle"):
            certify_kernel_generator(dataclasses.replace(fc, generator=bad), claim)


def test_transition_level_and_certificate_share_the_generator_pick(monkeypatch):
    # both read the fiber's one pick and class functional, the `generator`
    # and `functional` fields read when the fiber is built: each fiber
    # builds the functional and writes a basis column once, and the
    # certificate builds and writes neither again
    functionals, columns = [], []
    real_functional = QuotientPresentation.class_functional
    real_column = snf_module.KernelLattice.basis_column

    def counting_functional(self):
        functionals.append(self)
        return real_functional(self)

    def counting_column(self, k):
        columns.append(k)
        return real_column(self, k)

    monkeypatch.setattr(QuotientPresentation, "class_functional", counting_functional)
    monkeypatch.setattr(snf_module.KernelLattice, "basis_column", counting_column)
    for p, e, i, m in ((2, 3, 2, 1), (3, 2, 1, 1), (5, 2, 2, 1), (3, 5, 3, 4), (2, 5, 3, 3)):
        params = TruncationParams(p, e, i)
        claim = h1_syntomic_orbit(params, Orbit(m))
        functionals.clear()
        columns.clear()
        fc = fiber_cohomology(params, default_truncation(params, Orbit(m)))
        assert len(functionals) == len(columns) == 1
        assert certify_kernel_generator(fc, claim)
        assert len(functionals) == len(columns) == 1
        level = TransitionOracle(p, i, Orbit(m), [e]).level(e)
        assert level.matrices == fc.matrices and len(functionals) == len(columns) == 2
        assert level.generator == fc.generator and level.generator is not None
        assert level.functional == fc.functional and level.h == fc.h == claim.module.h


def test_certificate_refuses_a_fiber_built_without_u():
    # a fiber built without U reads h but no class functional or
    # generator; certifying its nontrivial H^1 is refused, not crashed on
    params = TruncationParams(2, 3, 2)
    claim = h1_syntomic_orbit(params, Orbit(1))
    mats = _build(params, default_truncation(params, Orbit(1)))
    fc = FiberCohomology.of(mats, False)
    assert fc.h == claim.module.h == 3 and fc.functional is None and fc.generator is None
    with pytest.raises(ValueError, match="fiber has no U"):
        certify_kernel_generator(fc, claim)
    assert certify_kernel_generator(FiberCohomology.of(mats), claim)


def test_verify_orbit_passes():
    params = TruncationParams(2, 3, 2)
    cert = verify_orbit(params, h1_syntomic_orbit(params, Orbit(1)))
    assert cert.passed
    assert cert.h_closed == 3
    assert cert.oracle_exponents[2] == ()
    assert len(cert.matrices_hash) == 64


@pytest.mark.parametrize("degree", [0, 2])
def test_verify_orbit_fails_a_fiber_with_cohomology_outside_degree_1(monkeypatch, degree):
    # the real fiber of a passing claim, reporting Z/p in degree 0 or 2:
    # the kernel generator still certifies, but the claim says those
    # degrees vanish, so the orbit fails, and the verify row prints H^2
    real = oracle_module._stable_fiber

    def extra_class(params, trunc, build_u):
        fc, exps = real(params, trunc, build_u)
        return fc, {**exps, degree: (1,)}

    monkeypatch.setattr(oracle_module, "_stable_fiber", extra_class)
    params = TruncationParams(2, 3, 2)
    cert = verify_orbit(params, h1_syntomic_orbit(params, Orbit(1)))
    assert cert.kernel_ok and not cert.passed
    assert cert.oracle_exponents[degree] == (1,) and cert.oracle_exponents[1] == (3,)
    report, _ = run_command(JobSpec(command="verify", p=2, i=2, e=3))
    assert report.orbits and not any(rec["pass"] for rec in report.orbits)
    assert all(rec["oracle_h2"] == ([1] if degree == 2 else []) for rec in report.orbits)
    assert report.certificates[-1]["all_pass"] is False


def test_kernel_generator_certificate_fails_a_generator_whose_class_is_not_a_unit(monkeypatch):
    # the fiber's own generator column carries the claim's valuations, so
    # the first step takes it and no search runs; under a class functional
    # that reads every class as 0 that cocycle does not generate H^1, and
    # the claim fails
    params = TruncationParams(2, 3, 2)
    claim = h1_syntomic_orbit(params, Orbit(1))
    fc = fiber_cohomology(params, default_truncation(params, Orbit(1)))
    zero = ClassFunctional([0] * len(fc.generator), fc.functional.modulus, fc.functional.d)
    monkeypatch.setattr(oracle_module, "kernel_mod", lambda *args: pytest.fail("the search ran"))
    assert certify_kernel_generator(fc, claim)
    assert certify_kernel_generator(dataclasses.replace(fc, functional=zero), claim) is False


def test_verify_orbit_builds_base_and_grown_truncation_once(monkeypatch):
    # one build at (A, N) and one at (A+1, N+2), both reading one orbit
    # table made at the grown level; the base matrices equal a build with
    # a table of their own, hash included; each fiber's d0 columns serve
    # both H^1 and the degree-0 certificate, and the base d1 rows serve
    # both H^1 and the kernel certificate
    built, tables, results, d0_built, d1_built = [], [], [], [], []
    real = oracle_module.build_orbit_matrices
    real_d0 = oracle_module.OrbitMatrices.fiber_d0_columns
    real_d1 = oracle_module.OrbitMatrices.fiber_d1_rows

    def counting(params, trunc, table):
        built.append(trunc)
        tables.append(table)
        results.append(real(params, trunc, table))
        return results[-1]

    def counting_d0(mats):
        d0_built.append(mats.n)
        return real_d0(mats)

    def counting_d1(mats):
        d1_built.append(mats.n)
        return real_d1(mats)

    monkeypatch.setattr(oracle_module, "build_orbit_matrices", counting)
    monkeypatch.setattr(oracle_module.OrbitMatrices, "fiber_d0_columns", counting_d0)
    monkeypatch.setattr(oracle_module.OrbitMatrices, "fiber_d1_rows", counting_d1)
    params = TruncationParams(2, 3, 2)
    cert = verify_orbit(params, h1_syntomic_orbit(params, Orbit(1)))
    assert cert.s >= 1 and cert.kernel_ok
    base = default_truncation(params, Orbit(1))
    assert built == [base, OrbitTruncation(Orbit(1), base.A + 1, base.N + 2)]
    assert tables[0] is tables[1] and (tables[0].p, tables[0].orbit, tables[0].A) == (2, Orbit(1), base.A + 1)
    assert d0_built == [base.A + 1, base.A + 2]
    assert d1_built == [base.A + 1, base.A + 2]
    direct = _build(params, base)
    own, grown = results
    assert own == direct and cert.matrices_hash == direct.content_hash()
    assert grown == _build(params, base.grown(params))


def test_stability_recheck_validates_the_base_truncation(monkeypatch):
    # an invalid base truncation is refused before either build
    built = []
    monkeypatch.setattr(oracle_module, "build_orbit_matrices", lambda *args: built.append(args))
    params = TruncationParams(3, 2, 1)
    for trunc in (OrbitTruncation(Orbit(1), A=1, N=40), OrbitTruncation(Orbit(1), A=4, N=5)):
        with pytest.raises(ValueError):
            oracle_cohomology(params, trunc)
    assert built == []


def test_verify_orbit_walks_the_degree1_walk_twice(monkeypatch):
    # once to size the default truncation and once to validate it; the
    # grown truncation is valid whenever the base is, so its build does not
    # walk again
    params = TruncationParams(3, 4, 2)
    claims = [sm for sm in enumerate_orbits(params) if sm.s and sm.module.h]
    real = drw_module.degree1_walks
    walks = []

    def recording(p, i, m, alpha, levels):
        walks.append(tuple(levels))
        return real(p, i, m, alpha, levels)

    monkeypatch.setattr(drw_module, "degree1_walks", recording)
    cert = verify_orbit(params, claims[0])
    assert cert.passed and cert.kernel_ok
    assert walks == [(4,), (4,)]


def test_verify_orbit_rejects_unstable_truncation(monkeypatch):
    # the grown fiber is injected where the two truncations part: at their
    # one build, the base is m=1's and the grown one is m=5's, so the
    # recheck must see a change
    params = TruncationParams(2, 3, 2)
    real = oracle_module.build_orbit_matrices

    def other_orbit_when_grown(params, trunc, table):
        # the grown build is the one at the table's own level
        if trunc.A < table.A:
            return real(params, trunc, table)
        return real(params, OrbitTruncation(Orbit(5), trunc.A, trunc.N), OrbitTable.of(params.p, Orbit(5), table.A))

    monkeypatch.setattr(oracle_module, "build_orbit_matrices", other_orbit_when_grown)
    with pytest.raises(TruncationInstabilityError):
        verify_orbit(params, h1_syntomic_orbit(params, Orbit(1)))
    with pytest.raises(TruncationInstabilityError):
        oracle_cohomology(params, default_truncation(params, Orbit(1)))


def test_verify_orbit_pinned_truncation_matches_cli_job():
    params = TruncationParams(2, 3, 2)
    cert = verify_orbit(params, h1_syntomic_orbit(params, Orbit(1)), A=6, N=24)
    report, _ = run_command(JobSpec(command="verify", p=2, i=2, e=3, A=6, N=24))
    rec = next(rec for rec in report.orbits if rec["m"] == 1)
    assert cert.oracle_exponents[0] == ()
    assert (rec["oracle_h"],) == cert.oracle_exponents[1]
    assert rec["oracle_h2"] == list(cert.oracle_exponents[2])
    assert rec["kernel_ok"] == cert.kernel_ok
    assert rec["pass"] == cert.passed


@pytest.mark.parametrize("alpha", [EMPTY, MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, 2)})])
def test_verify_orbit_checks_the_claim_on_its_own_orbit(monkeypatch, alpha):
    # the m=5 claim at p=2, e=3, i=3 matches the exponents of the m=7
    # matrices at the same (A, N) = (3, 20), with and without the one-slot
    # window's t^(1/2); so the orbit comes from the claim alone, every build is of the claim's orbit, and the
    # certificate's hash names its matrices
    params = TruncationParams(2, 3, 3)
    claim = h1_syntomic_orbit(params, Orbit(5, alpha))
    real = oracle_module.build_orbit_matrices
    built = []

    def recording(params, trunc, table):
        built.append(trunc.orbit)
        return real(params, trunc, table)

    monkeypatch.setattr(oracle_module, "build_orbit_matrices", recording)
    cert = verify_orbit(params, claim, 3, 20)
    assert cert.passed and cert.orbit == claim.orbit and built == [claim.orbit] * 2
    own = _build(params, OrbitTruncation(claim.orbit, 3, 20)).content_hash()
    other = _build(params, OrbitTruncation(Orbit(7, alpha), 3, 20)).content_hash()
    assert cert.matrices_hash == own != other


@pytest.mark.parametrize("alpha", [EMPTY, MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, 2)})])
def test_kernel_generator_certificate_refuses_a_claim_on_another_orbit(alpha):
    # the m=5 claim at p=2, e=3, i=3 would certify against the m=7 fiber at
    # (A, N) = (3, 20); the fiber knows its orbit, so the claim is refused,
    # and on its own orbit's fiber it still certifies
    params = TruncationParams(2, 3, 3)
    claim = h1_syntomic_orbit(params, Orbit(5, alpha))
    other = fiber_cohomology(params, OrbitTruncation(Orbit(7, alpha), 3, 20))
    assert other.matrices.orbit == Orbit(7, alpha)
    with pytest.raises(ValueError, match="checked against the matrices of"):
        certify_kernel_generator(other, claim)
    own = fiber_cohomology(params, OrbitTruncation(claim.orbit, 3, 20))
    assert certify_kernel_generator(own, claim)


def test_fiber_exponents_refuse_a_foreign_prime():
    # H^1 of the p=2 fiber of (e=3, i=2, m=1) is Z/8; read at p=3 its
    # divisors would all look trivial, so any prime but the fiber's is refused
    params = TruncationParams(2, 3, 2)
    fc = fiber_cohomology(params, default_truncation(params, Orbit(1)))
    assert fc.matrices.p == 2
    assert fc.exponents(2) == {0: (), 1: (3,), 2: ()}
    for p in (3, 5):
        with pytest.raises(ValueError, match="not p="):
            fc.exponents(p)


def _package_imports(module):
    """Relative and absolute `trcalc` imports of a module's source."""
    tree = ast.parse(Path(module.__file__).read_text())
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    absolute += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level]
    return relative, [name for name in absolute if name.split(".")[0] == "trcalc"]


def test_oracle_imports_no_closed_form():
    # the oracle checks the claim it is handed; it imports none of the
    # closed forms, so a closed-form error cannot move its own check
    assert _package_imports(oracle_module) == ({"drw", "padic", "snf"}, [])
    # and the engine under it imports nothing of the package at all
    assert _package_imports(snf_module) == (set(), [])
    # nor does the exact witness the engine is checked against, so the two
    # share no code
    assert _package_imports(witness) == (set(), [])
    # sparse rows are the engine's only input: the oracle imports no dense
    # helper from it, and it defines none
    snf_names = {
        alias.name
        for node in ast.walk(ast.parse(Path(oracle_module.__file__).read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "snf"
        for alias in node.names
    }
    assert snf_names and not snf_names & {"Matrix", "hstack", "columns"}
    snf_defs = {
        node.name
        for node in ast.walk(ast.parse(Path(snf_module.__file__).read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "smith_mod_prime_power" in snf_defs and not snf_defs & {"hstack", "columns"}


def test_verify_orbit_runs_only_the_transforms_it_reads(monkeypatch):
    # each fiber eliminates d1 once, in the kernel under H^1, which builds
    # no U, and H^2 comes from that kernel's divisors; the base quotient
    # builds the U that the certificate's class functional reads, the
    # stability recheck compares exponents and builds none, the degree-0
    # certificate is read from the quotient's own elimination, and the
    # closed-form claim is carried by the fiber's own generator column, so
    # the certificate eliminates no copy of d1 scaled by the claimed p^(c_a)
    smith_calls, inside, kernels, quotient_shapes = [], [], [], []
    real_smith = snf_module.smith_mod_prime_power
    real_kernel = oracle_module.kernel_mod

    def smith(*args):
        smith_calls.append((inside[-1] if inside else None, args[4]))
        if inside and inside[-1] == "quotient":
            quotient_shapes.append((len(args[0]), args[1]))
        return real_smith(*args)

    def tagged(name, real):
        def run(*args):
            inside.append(name)
            try:
                return real(*args)
            finally:
                inside.pop()

        return run

    def kernel_mod(M, cols, p, q):
        kernels.append(witness.densify(M, cols))
        return real_kernel(M, cols, p, q)

    for module in (snf_module, oracle_module):
        monkeypatch.setattr(module, "smith_mod_prime_power", smith)
    monkeypatch.setattr(oracle_module, "kernel_mod", tagged("kernel_mod", kernel_mod))
    monkeypatch.setattr(oracle_module, "quotient", tagged("quotient", oracle_module.quotient))
    params = TruncationParams(2, 3, 2)
    cert = verify_orbit(params, h1_syntomic_orbit(params, Orbit(1)))
    assert cert.passed and cert.s >= 1
    assert [u for tag, u in smith_calls if tag == "quotient"] == [True, False]
    assert kernels and all(any(v for row in M for v in row) for M in kernels)
    assert smith_calls == [
        ("kernel_mod", False),
        ("quotient", True),
        ("kernel_mod", False),
        ("quotient", False),
    ]
    base = default_truncation(params, Orbit(1))
    fibers = [_build(params, t) for t in (base, base.grown(params))]
    assert kernels == [witness.fiber_d1(mats) for mats in fibers]
    # each H^1 quotient is n x n: the kernel keeps the n coordinates of its
    # 2n that are not identically zero, and none needs a relation column
    assert quotient_shapes == [(mats.n, mats.n) for mats in fibers]
    fc = FiberCohomology.of(fibers[0], True)
    assert fc.h1.kernel.dim == fibers[0].n and fc.h1.kernel.t == [1] * fibers[0].n


def test_oracle_cohomology_runs_only_the_transforms_it_reads(monkeypatch):
    # only exponents are read: neither the base nor the grown fiber builds
    # U in its kernel or its quotient
    params = TruncationParams(2, 3, 2)
    trunc = default_truncation(params, Orbit(1))
    full = fiber_cohomology(params, trunc).exponents(params.p)
    build_u = []
    real_smith = snf_module.smith_mod_prime_power

    def smith(*args):
        build_u.append(args[4])
        return real_smith(*args)

    for module in (snf_module, oracle_module):
        monkeypatch.setattr(module, "smith_mod_prime_power", smith)
    assert oracle_cohomology(params, trunc) == full == {0: (), 1: (3,), 2: ()}
    assert build_u == [False] * 4


def test_fiber_cohomology_serves_the_certificate_and_the_transition_oracle():
    # the kernel-generator certificate reads the class functional (U) and
    # the transition oracle a kernel basis column too: every
    # fiber_cohomology result carries U, and a one-level transition oracle
    # reads the same fiber and picks its generator among the basis
    # columns
    checked = 0
    for p, e, i in ((2, 3, 2), (2, 5, 3), (3, 2, 1), (3, 4, 2), (5, 2, 2)):
        params = TruncationParams(p, e, i)
        for claim in enumerate_orbits(params, AlphaBounds(("t",), 2, 1)):
            fc = fiber_cohomology(params, default_truncation(params, claim.orbit))
            kernel = fc.h1.kernel
            assert fc.h1._U is not None
            level = TransitionOracle(p, i, claim.orbit, [e]).level(e)
            assert level.matrices == fc.matrices
            if claim.module.h:
                assert certify_kernel_generator(fc, claim)
                assert level.functional == fc.h1.class_functional()
                assert level.generator in [kernel.basis_column(k) for k in range(kernel.dim)]
                checked += 1
    assert checked > 10


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.integers(1, 3),
    st.integers(2, 9),
    st.integers(1, 20),
    st.booleans(),
    st.integers(0, 2),
    st.integers(0, 30),
)
def test_h2_is_the_cokernel_of_d1(p, i, e, m, one_over_p, scale, level):
    # H^2 from the divisors that the kernel of d1 under H^1 keeps equals the
    # old presentation (the kernel of the 1 x n zero matrix modulo d1) and
    # the exact cokernel of [d1 | q·I]; scaling one row of d1 by p^scale
    # makes H^2 nontrivial
    if e % p == 0 or m % p == 0:
        return
    alpha = MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, p)}) if one_over_p else EMPTY
    params = TruncationParams(p, e, i)
    mats = _build(params, default_truncation(params, Orbit(m, alpha)))
    n, q = mats.n, mats.modulus
    _scale_d1_row(mats, level % n, p**scale)
    h2 = FiberCohomology.of(mats, False).h2
    d1 = witness.fiber_d1(mats)
    assert h2 == quotient(kernel_mod([{}], n, p, q), witness.sparse_columns(d1)).exponents()
    exact = witness.smith_normal_form(witness.hstack(d1, [[q * v for v in row] for row in eye(n)]))
    assert h2 == tuple(sorted((vp(d, p) for d in exact.diagonal if d != 1), reverse=True))
    # the kernel's divisors are those of a separate transform-free elimination
    assert h2 == divisor_exponents(smith_mod_prime_power(mats.fiber_d1_rows(), 2 * n, p, q, False)[0], p)
    if scale:
        assert h2 and h2[0] >= scale


@pytest.mark.parametrize("m", [1, 5])
def test_verify_orbit_refutes_a_wrong_claim(m):
    params = TruncationParams(2, 3, 2)
    claim = h1_syntomic_orbit(params, Orbit(m))
    assert verify_orbit(params, claim).passed
    wrong_h = dataclasses.replace(claim, module=CyclicWittModule(claim.module.h + 1))
    assert verify_orbit(params, wrong_h).passed is False
    raised = tuple(c + 1 for c in claim.generator_exponents)
    wrong_generator = dataclasses.replace(claim, generator_exponents=raised)
    assert verify_orbit(params, wrong_generator).passed is False
    wrong_s = dataclasses.replace(claim, s=claim.s + 1)
    assert verify_orbit(params, wrong_s).passed is False


def test_verify_orbit_refutes_a_generator_with_no_cocycle():
    # (0, 0, 1) scales levels 0, 1, 2 by p, 1, 1; an extra p at level 1
    # leaves no cocycle with those valuations, which is a failed check and
    # not an oracle error
    params = TruncationParams(2, 3, 2)
    claim = h1_syntomic_orbit(params, Orbit(1))
    assert claim.generator_exponents == (0, 0, 1)
    wrong = dataclasses.replace(claim, generator_exponents=(0, 1, 1))
    assert verify_orbit(params, wrong).passed is False


def test_transition_examples():
    orbit = Orbit(1)
    assert TransitionOracle(3, 1, orbit, [2, 4]).valuation(2, 4) == 0
    assert TransitionOracle(3, 1, orbit, [2, 8]).valuation(2, 8) == 0


def test_transition_degenerate():
    with pytest.raises(DegenerateOrbitError):
        TransitionOracle(3, 1, Orbit(2), [2, 4]).valuation(2, 4)


def test_transition_composition_consistency():
    # valuations compose: the g -> e image equals the g -> f -> e image
    p, i = 2, 2
    orbit = Orbit(1)
    for e, f, g in [(3, 5, 7), (3, 7, 9), (5, 7, 11)]:
        oc = TransitionOracle(p, i, orbit, [e, f, g])
        h_e = oc.h_exponent(e)
        v_ge = oc.valuation(e, g)
        v_fe = oc.valuation(e, f)
        v_gf = oc.valuation(f, g)
        assert min(v_ge, h_e) == min(v_gf + v_fe, h_e)
        # images can only shrink as the source rises
        assert v_ge >= v_fe


def test_oracle_with_multi_index():
    alpha = MultiIndex.from_dict({"t": PAdicFraction(1, 1)})
    params = TruncationParams(2, 3, 2)
    from trcalc.syntomic import h1_syntomic_orbit

    h = h1_syntomic_orbit(params, Orbit(1, alpha)).module.h
    exps = _exps(2, 3, 2, 1, alpha)
    assert exps == {0: (), 1: ((h,) if h else ()), 2: ()}


def _dense_witness_level(oc, e):
    """H^1 = K/Λ at level e, Λ = im d0 + p^N·C^1, on the witness alone:
    a reader of class orders modulo Λ, the exponents of H^1, and a
    generator, the kernel basis column of largest class order h.  The
    basis generates H^1, so p^h is its exponent, and H^1 is cyclic (as
    asserted) exactly when its order [C^1 : Λ] / [C^1 : K] is p^h."""
    mats = _build(oc.params(e), oc.trunc)
    q, d0 = mats.modulus, witness.fiber_d0(mats)
    K = witness.kernel_mod(witness.fiber_d1(mats), q)
    order = functools.partial(witness.class_order_exponent, d0, q, oc.p)
    basis = witness.columns(K.basis)
    orders = [order(col) for col in basis]
    h = max(orders)
    relations = witness.hstack(d0, [[q * v for v in row] for row in eye(2 * mats.n)])
    assert math.prod(witness.smith_normal_form(relations).diagonal) == oc.p**h * math.prod(K._t)
    return order, ((h,) if h else ()), (basis[orders.index(h)] if h else None)


def _dense_witness_valuation(oc, e, f, level_e, level_f):
    """h_e minus the witness class order of the f -> e image of the
    level-f generator, with the Nygaard exponents recomputed for the
    pair."""
    p, n, modulus = oc.p, oc.trunc.A + 1, oc.p**oc.trunc.N
    (order_e, exps_e, _), (_, _, gen) = level_e, level_f
    image_n1, image_d0 = [], []
    for a in range(n):
        m_a = p**a * oc.orbit.m
        floor_l1 = oc.orbit.alpha.floor_l1(p, a)
        u1_e = nygaard_exponents(oc.i, e, m_a, floor_l1)[1]
        u1_f = nygaard_exponents(oc.i, f, m_a, floor_l1)[1]
        num = p**u1_f * factorial_ratio((m_a - 1) // e, (m_a - 1) // f)
        assert num % p**u1_e == 0
        image_n1.append(num // p**u1_e * gen[a] % modulus)
        image_d0.append(factorial_ratio(m_a // e, m_a // f) * gen[n + a] % modulus)
    return exps_e[0] - order_e(image_n1 + image_d0)


def test_transition_valuation_matches_dense_witness():
    checked = 0
    for p in (2, 3):
        levels = [e for e in range(2, 12) if e % p]
        alphas = [EMPTY, MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, p)})]
        for i in (1, 2):
            for m in range(1, i * levels[-2] + 1):
                if m % p == 0:
                    continue
                for alpha in alphas:
                    sub = [e for e in levels if i * e >= m]
                    if len(sub) < 2:
                        continue
                    oc = TransitionOracle(p, i, Orbit(m, alpha), sub)
                    dense = {e: _dense_witness_level(oc, e) for e in sub}
                    for e in sub:
                        assert oc.h_exponent(e) == (dense[e][1] or (0,))[0]
                    for e, f in itertools.combinations(sub, 2):
                        if not (dense[e][1] and dense[f][1]):
                            with pytest.raises(DegenerateOrbitError):
                                oc.valuation(e, f)
                            continue
                        assert oc.valuation(e, f) == _dense_witness_valuation(oc, e, f, dense[e], dense[f])
                        checked += 1
    assert checked > 100


def test_transition_formula_at_the_ml_bound():
    # the pairs (e, f0) with f0 = ml_bound(e), far past criterion 5's
    # levels: p <= 5, i <= 3, 2 <= e < 16 prime to p, alpha empty or t^(1/p),
    # every orbit m <= i*e; f0 reaches 15,626
    checked = 0
    for p in (2, 3, 5):
        alphas = [EMPTY, MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, p)})]
        for i, e, alpha in itertools.product((1, 2, 3), range(2, 16), alphas):
            if e % p == 0:
                continue
            params = TruncationParams(p, e, i)
            for m in range(1, i * e + 1):
                if m % p == 0:
                    continue
                orbit = Orbit(m, alpha)
                f0 = ml_bound(params, m)
                sm_e, sm_f = h1_syntomic_orbit(params, orbit), h1_syntomic_orbit(TruncationParams(p, f0, i), orbit)
                v = tr_valuation(params, f0, orbit)
                if v is None:
                    assert sm_e.module.h == 0
                    continue
                assert sm_e.module.h and sm_f.module.h
                oc = TransitionOracle(p, i, orbit, [e, f0])
                assert oc.h_exponent(e) == sm_e.module.h
                assert oc.valuation(e, f0) == min(v, sm_e.module.h)
                checked += 1
    assert checked == 1612


def test_two_slot_fiber_cohomology_matches_the_closed_form():
    # both slots of alpha nonzero, each 1 or 1/p, on p up to 11: every orbit
    # m <= i*e, trivial ones included, has the closed form's H^1 and
    # nothing in degrees 0 and 2
    checked = nontrivial = 0
    for p in (2, 3, 5, 7, 11):
        alphas = [a for a in enumerate_alphas(AlphaBounds(("s", "t"), 1, 1), p) if len(a.entries) == 2]
        for i, e, alpha in itertools.product((1, 2, 3), range(1, 8), alphas):
            if e % p == 0:
                continue
            params = TruncationParams(p, e, i)
            for m in range(1, i * e + 1):
                if m % p == 0:
                    continue
                orbit = Orbit(m, alpha)
                h = h1_syntomic_orbit(params, orbit).module.h
                mats = _build(params, default_truncation(params, orbit))
                exps = FiberCohomology.of(mats, False).exponents(p)
                assert exps == {0: (), 1: (h,) if h else (), 2: ()}
                checked += 1
                nontrivial += h > 0
    assert (checked, nontrivial) == (2124, 827)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(0, 60),
    st.integers(-2, 8),
    st.sampled_from(("below", "at", "above", "small")),
    st.integers(0, 40),
)
def test_ratio_or_zero_is_the_factorial_ratio_mod_p_cap(p, b, cap, where, extra):
    # a - b = p·cap - 1 is formed exactly, a - b = p·cap and beyond is 0,
    # and either way the value is a!/b! mod p^cap
    k = max(cap, 0)
    length = {"below": p * k - 1, "at": p * k, "above": p * k + extra, "small": extra % (p * k + 1)}[where]
    if length < 0:
        return
    a = b + length
    got = oracle_module._ratio_or_zero(a, b, p, cap)
    exact = factorial_ratio(a, b)
    assert got == (0 if length >= p * k else exact)
    assert got % p**k == exact % p**k


def _exact_frobenius(params, trunc):
    """The divided Frobenius lists with every factorial ratio formed
    exactly, then reduced mod p^N."""
    p, e, i = params.p, params.e, params.i
    orbit, q = trunc.orbit, p**trunc.N
    frob0, frob1 = [], []
    for a in range(trunc.A):
        m_a = p**a * orbit.m
        u0, u1 = nygaard_exponents(i, e, m_a, orbit.alpha.floor_l1(p, a))
        r = math.prod(factorial_ratio(f.floor(p, a + 1), f.floor(p, a)) for _, f in orbit.alpha.entries)
        frob0.append(p**u0 * r * factorial_ratio(p * m_a // e, m_a // e) // p**i % q)
        frob1.append(p ** (u1 + 1) * r * factorial_ratio((p * m_a - 1) // e, (m_a - 1) // e) // p**i % q)
    return frob0, frob1


def test_frobenius_coefficients_equal_the_exact_products(monkeypatch):
    # the coefficients that skip the product read 0, as the exact product
    # reduced mod p^N does; the grid takes both paths
    skipped = []
    real = oracle_module._ratio_or_zero

    def recording(a, b, p, cap):
        skipped.append(a - b >= p * max(cap, 0))
        return real(a, b, p, cap)

    monkeypatch.setattr(oracle_module, "_ratio_or_zero", recording)
    for p in (2, 3, 5):
        alphas = [EMPTY, MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, p)})]
        for i, e, alpha in itertools.product((1, 2, 3), range(2, 8), alphas):
            if e % p == 0:
                continue
            params = TruncationParams(p, e, i)
            for m in range(1, i * e + 1):
                if m % p == 0:
                    continue
                base = default_truncation(params, Orbit(m, alpha))
                for trunc in (base, base.grown(params)):
                    mats = _build(params, trunc)
                    assert (mats.frob0, mats.frob1) == _exact_frobenius(params, trunc)
    assert any(skipped) and not all(skipped)


def test_transition_image_outside_the_kernel_is_refused(monkeypatch):
    oc = TransitionOracle(2, 2, Orbit(1), [3, 5])
    assert oc.valuation(3, 5) >= 0
    not_a_cocycle = [1] + [0] * (2 * (oc.trunc.A + 1) - 1)
    fc = fiber_cohomology(oc.params(3), oc.trunc)
    level = oc.level(3)
    assert any(sparse_product(level.d1_rows, not_a_cocycle, level.matrices.modulus))
    assert fc.h1.kernel.solve(witness.sparse_vector(not_a_cocycle)) is None
    monkeypatch.setattr(TransitionOracle, "_transition_image", lambda self, *args: not_a_cocycle)
    with pytest.raises(ArithmeticError, match="outside the kernel lattice"):
        oc.valuation(3, 5)


def test_transition_coefficient_not_divisible_by_target_scaling_is_refused():
    # u1 never falls as the level grows; a level e whose u1 at orbit level
    # 0 is raised past the source's leaves the shift u1_f - u1_e negative,
    # and p^1 does not divide the ratio 0!/0! = 1 there
    oc = TransitionOracle(2, 2, Orbit(1), [3, 5])
    lv_e, lv_f = oc.level(3), oc.level(5)
    assert lv_e.h and lv_f.h and lv_e.matrices.floors1[0] == lv_f.matrices.floors1[0] == 0
    u1 = [lv_f.matrices.u1[0] + 1] + lv_e.matrices.u1[1:]
    oc._cache[3] = dataclasses.replace(lv_e, matrices=dataclasses.replace(lv_e.matrices, u1=u1))
    with pytest.raises(ArithmeticError, match="not divisible by target scaling"):
        oc.valuation(3, 5)


def test_transition_levels_walk_the_degree1_walk_once(monkeypatch):
    # the shared truncation is sized from the top level's walk, which no
    # lower level's walk is longer than, so no level walks again
    real = drw_module.degree1_walks
    walks = []

    def recording(p, i, m, alpha, levels):
        walks.append(tuple(levels))
        return real(p, i, m, alpha, levels)

    monkeypatch.setattr(drw_module, "degree1_walks", recording)
    levels = list(range(3, 16, 2))
    oc = TransitionOracle(2, 2, Orbit(1), levels)
    for e in levels:
        oc.level(e)
    assert walks == [(15,)]


def test_level_without_a_unit_coordinate_is_refused(monkeypatch):
    # a functional scaled by p reads every basis column in pZ/p^h; the
    # level is refused rather than given a non-generator
    real = QuotientPresentation.class_functional

    def off_by_p(self):
        functional = real(self)
        return ClassFunctional([3 * w for w in functional.w], functional.modulus, functional.d)

    monkeypatch.setattr(QuotientPresentation, "class_functional", off_by_p)
    with pytest.raises(OracleError, match="no kernel basis column generates"):
        TransitionOracle(3, 1, Orbit(1), [2, 4]).level(2)


def _in_order(transform):
    """A sparse transform with the order of its vectors, and of each
    vector's entries, kept: a list of vectors, or a dict of them by key."""
    if isinstance(transform, dict):
        return [(key, list(vec.items())) for key, vec in transform.items()]
    return None if transform is None else [list(vec.items()) for vec in transform]


def test_fiber_rows_keep_the_pivots_of_the_dense_input():
    # on the grid, the engine eliminates the rows and columns built from
    # the coefficient lists exactly as it does the dense assembly converted
    # once: same divisors, and every transform entry for entry, in order,
    # the kernel's columns of V^-1 and its basis columns included
    for mats in _fiber_grid():
        p, n, q = mats.p, mats.n, mats.modulus
        rows = mats.fiber_d1_rows()
        reference = witness.sparse_rows(witness.fiber_d1(mats))
        got, want = smith_mod_prime_power(rows, 2 * n, p, q), smith_mod_prime_power(reference, 2 * n, p, q)
        assert got[0] == want[0]
        assert [_in_order(T) for T in got[1:]] == [_in_order(T) for T in want[1:]]
        K, W = kernel_mod(rows, 2 * n, p, q), kernel_mod(reference, 2 * n, p, q)
        assert (K.t, K.divisors, K._order) == (W.t, W.divisors, W._order)
        assert _in_order(K._Vinv_cols) == _in_order(W._Vinv_cols)
        assert [K.basis_column(k) for k in range(K.dim)] == [W.basis_column(k) for k in range(W.dim)]
        Q = quotient(K, mats.fiber_d0_columns())
        R = quotient(W, witness.sparse_columns(witness.fiber_d0(mats)))
        assert Q.divisors == R.divisors
        assert (_in_order(Q._U), _in_order(Q.coords)) == (_in_order(R._U), _in_order(R.coords))
        # the class functional read off the kept rows of V^-1 is the dense
        # sum over every row; on an onto fiber each kept row is a unit vector
        assert _in_order(K._kept_rows) == _in_order(W._kept_rows)
        if K.dim == n and set(K.t) == {1}:
            assert all(list(row.values()) == [1] for row in K._kept_rows)
        if len(Q.exponents()) == 1:
            assert Q.class_functional().w == witness.dense_class_functional(Q)


def test_sparse_d1_matches_dense_d1():
    # the fiber's kept rows of d1, applied through the one sparse product,
    # agree with the dense witness d1 on vectors that reach every column
    params = TruncationParams(3, 4, 2)
    trunc = default_truncation(params, Orbit(5, MultiIndex.from_dict({"t": PAdicFraction(1, 1)})))
    fc = fiber_cohomology(params, trunc)
    mats = fc.matrices
    for k in range(2 * mats.n):
        x = [(k + 1) * (j + 3) ** 2 if j % 3 != k % 3 else 0 for j in range(2 * mats.n)]
        want = [v % mats.modulus for v in witness.mat_vec(witness.fiber_d1(mats), x)]
        assert sparse_product(fc.d1_rows, x, mats.modulus) == want


def test_transition_levels_skip_degree0_and_degree2(monkeypatch):
    # one kernel and one quotient per level; no degree-0 certificate, no H^2
    calls = []
    for name in ("kernel_mod", "quotient", "smith_mod_prime_power"):
        real = getattr(oracle_module, name)
        monkeypatch.setattr(
            oracle_module, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
        )
    oc = TransitionOracle(2, 2, Orbit(1), [3, 5, 7])
    oc.valuation(3, 5)
    oc.valuation(3, 7)
    oc.valuation(5, 7)
    assert sorted(calls) == ["kernel_mod"] * 3 + ["quotient"] * 3


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.integers(1, 3),
    st.integers(2, 9),
    st.integers(1, 20),
    st.sampled_from(((0, 0), (1, 1), (2, 1), (1, 2))),
)
def test_generator_class_order_is_the_largest_exponent(p, i, e, m, slot):
    # the transition oracle's generator, the first kernel basis column
    # with a unit class coordinate, has the largest class order that the
    # witness's exact solves in im d0 + p^N·C^1 read
    if e % p == 0 or m % p == 0:
        return
    alpha = MultiIndex.from_dict({"t": PAdicFraction.make(*slot, p)})
    oc = TransitionOracle(p, i, Orbit(m, alpha), [e])
    level = oc.level(e)
    exps = fiber_cohomology(oc.params(e), oc.trunc).h1.exponents()
    if not exps:
        assert level.h == 0 and level.generator is None
        return
    mats = level.matrices
    order = witness.class_order_exponent(witness.fiber_d0(mats), mats.modulus, p, level.generator)
    assert order == level.h == exps[0]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((2, 3)),
    st.integers(1, 2),
    st.integers(1, 12),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_valuation_does_not_depend_on_the_generator(p, i, m, one_over_p, seed):
    # replacing the level-f generator g by u·g + (a column of d0) +
    # p^N·e_k, for a unit u, moves its class by a unit factor only, so no
    # valuation (e, f) changes
    if m % p == 0:
        return
    rng = random.Random(seed)
    alpha = MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, p)}) if one_over_p else EMPTY
    levels = [e for e in range(2, 12) if e % p and i * e >= m]
    if len(levels) < 2:
        return
    oc = TransitionOracle(p, i, Orbit(m, alpha), levels)
    live = [e for e in levels if oc.h_exponent(e)]
    pairs = list(itertools.combinations(live, 2))
    before = {pair: oc.valuation(*pair) for pair in pairs}
    q = p**oc.trunc.N
    for f in live:
        lv = oc.level(f)
        d0 = witness.fiber_d0(lv.matrices)
        col = witness.columns(d0)[rng.randrange(len(d0[0]))]
        unit = rng.choice([u for u in range(1, 3 * p) if u % p])
        gen = [unit * g + c for g, c in zip(lv.generator, col)]
        gen[rng.randrange(len(gen))] += q
        assert gen != lv.generator
        oc._cache[f] = dataclasses.replace(lv, generator=gen)
    assert {pair: oc.valuation(*pair) for pair in pairs} == before


def test_transition_oracle_makes_one_orbit_table(monkeypatch):
    # every level read, and the alpha floors are read once: the sizing walk
    # reads levels 0..s and the one table levels 0..A
    tables, floor_reads = [], []
    real_of, real_floor = OrbitTable.of.__func__, MultiIndex.floor_l1

    def counting_of(cls, p, orbit, A):
        tables.append((p, orbit, A))
        return real_of(cls, p, orbit, A)

    def counting_floor(self, p, a):
        floor_reads.append(a)
        return real_floor(self, p, a)

    monkeypatch.setattr(OrbitTable, "of", classmethod(counting_of))
    monkeypatch.setattr(MultiIndex, "floor_l1", counting_floor)
    orbit = Orbit(1, MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, 2)}))
    levels = list(range(3, 16, 2))
    oc = TransitionOracle(2, 2, orbit, levels)
    for e in levels:
        oc.level(e)
    assert (oc.trunc.A, len(levels)) == (4, 7)
    assert tables == [(2, orbit, 4)]
    # s = 2: 3 walk reads and 5 table reads; a build that read the floors
    # at each level made 3 + 7·5 = 38
    assert floor_reads == [0, 1, 2] + [0, 1, 2, 3, 4]


def test_build_orbit_matrices_refuses_a_table_of_another_orbit():
    # the table must be of the truncation's prime and orbit and reach its
    # level A; one that reaches past A is read on levels 0..A
    params = TruncationParams(2, 3, 2)
    orbit = Orbit(1, MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, 2)}))
    trunc = default_truncation(params, orbit)
    own = build_orbit_matrices(params, trunc, OrbitTable.of(2, orbit, trunc.A))
    assert build_orbit_matrices(params, trunc, OrbitTable.of(2, orbit, trunc.A + 2)) == own
    for table, message in [
        (OrbitTable.of(3, Orbit(1, orbit.alpha), trunc.A), "orbit table is over p=3, not p=2"),
        (OrbitTable.of(2, Orbit(5, orbit.alpha), trunc.A), "orbit table is for orbit"),
        (OrbitTable.of(2, Orbit(1), trunc.A), "orbit table is for orbit"),
        (OrbitTable.of(2, orbit, trunc.A - 1), f"orbit table reaches level {trunc.A - 1}, below A={trunc.A}"),
    ]:
        with pytest.raises(ValueError, match=message):
            build_orbit_matrices(params, trunc, table)


def _reference_matrices(params, trunc):
    """The orbit matrices written out level by level, each level's data
    read afresh: the Nygaard exponents from that level's x-weight and
    alpha floor, the brace symbol, the level floors m_a//e and (m_a-1)//e,
    and each Frobenius coefficient from its factorial ratios.  A
    coefficient is 0 when Legendre's formula puts its p-adic valuation at
    N + i or more, and is formed exactly otherwise."""
    p, e, i = params
    orbit, A, N = trunc.orbit, trunc.A, trunc.N
    q = p**N
    mats = oracle_module.OrbitMatrices(p, orbit, A + 1, q, [], [], [], [], [], [], [], [], [])
    for a in range(A + 1):
        m_a = p**a * orbit.m
        u0, u1 = nygaard_exponents(i, e, m_a, orbit.alpha.floor_l1(p, a))
        b = brace(m_a, e)
        mats.diff_nygaard.append(p ** (u0 - u1) * b % q)
        mats.diff_full.append(b % q)
        mats.can0.append(p**u0 % q)
        mats.can1.append(p**u1 % q)
        mats.u1.append(u1)
        mats.floors0.append(m_a // e)
        mats.floors1.append((m_a - 1) // e)
        if a == A:
            break
        slots = [(frac.floor(p, a + 1), frac.floor(p, a)) for _, frac in orbit.alpha.entries]
        for out, scale, x_ratio in (
            (mats.frob0, u0, (p * m_a // e, m_a // e)),
            (mats.frob1, u1 + 1, ((p * m_a - 1) // e, (m_a - 1) // e)),
        ):
            ratios = slots + [x_ratio]
            v = scale + sum(vp_factorial(hi, p) - vp_factorial(lo, p) for hi, lo in ratios)
            if v >= N + i:
                out.append(0)
                continue
            num = p**scale * math.prod(factorial_ratio(hi, lo) for hi, lo in ratios)
            assert num % p**i == 0
            out.append(num // p**i % q)
    return mats


def _dense_solve_coords(kernel, L):
    """The kernel coordinates Y of the sparse columns L as a dense solve
    writes them: V⁻¹·x at every position, each kept coordinate divided by
    its t, and the zero ones left out of the rows."""
    dropped = kernel.n - kernel.dim
    Y = [{} for _ in range(kernel.dim)]
    for c, col in enumerate(L):
        acc = [0] * kernel.n
        for r, v in col.items():
            for j, a in kernel._Vinv_cols[r].items():
                acc[j] += v * a
        for k, row in enumerate(Y):
            val = acc[dropped + k] % kernel.modulus
            if val:
                row[c] = val // kernel.t[k]
    return Y


def test_levels_built_from_the_orbit_table_equal_a_level_by_level_build():
    # p in {2, 3, 5}, i <= 3, the levels 2..16 prime to p, and alpha empty
    # or in the one-slot window (t = num/p^pexp, num <= 4, pexp <= 2): each
    # level's matrices from the oracle's one table equal the reference, and
    # on alpha empty and t^(1/p) the H^1 coordinates equal a dense solve's
    levels_built = fibers = 0
    for p in (2, 3, 5):
        window = list(enumerate_alphas(AlphaBounds(("t",), 4, 2), p))
        one_over_p = MultiIndex.from_dict({"t": PAdicFraction.make(1, 1, p)})
        assert window[0] == EMPTY and one_over_p in window
        levels = [e for e in range(2, 17) if e % p]
        for i in range(4):
            for m in range(1, max(i, 1) * levels[-1] + 1):
                if m % p == 0:
                    continue
                sub = [e for e in levels if max(i, 1) * e >= m]
                for alpha in window:
                    oc = TransitionOracle(p, i, Orbit(m, alpha), sub)
                    for e in sub:
                        params = oc.params(e)
                        mats = build_orbit_matrices(params, oc.trunc, oc.table)
                        assert mats == _reference_matrices(params, oc.trunc)
                        levels_built += 1
                        if alpha in (EMPTY, one_over_p):
                            h1 = FiberCohomology.of(mats, False).h1
                            assert h1.coords == _dense_solve_coords(h1.kernel, mats.fiber_d0_columns())
                            assert all(list(row) == sorted(row) for row in h1.coords)
                            fibers += 1
    assert (levels_built, fibers) == (13923, 2556)


def test_readme_verify_jobs_keep_their_matrices_hashes():
    # the matrices every README `verify` job checks, as one digest of their
    # content hashes in report order
    jobs = [
        (TruncationParams(2, 3, 2), AlphaBounds(), 6, 24, "0c23fbf7f05eb651"),
        (TruncationParams(3, 3, 3), AlphaBounds(("t",), 2, 1), None, None, "975f1d9d9a2a5674"),
    ]
    for params, bounds, A, N, digest in jobs:
        hashes = [verify_orbit(params, sm, A, N).matrices_hash for sm in enumerate_orbits(params, bounds)]
        assert hashlib.sha256(" ".join(hashes).encode()).hexdigest()[:16] == digest


def test_transition_level_is_an_immutable_value_record():
    # a level is its fiber's one record: keyword construction, value
    # equality, a repr naming the fields, no assignment, changed copies
    # through `dataclasses.replace`, and one cached record per level
    oc = TransitionOracle(2, 2, Orbit(1), [3, 5])
    lv = oc.level(3)
    assert type(lv) is FiberCohomology
    fields = {f.name: getattr(lv, f.name) for f in dataclasses.fields(lv)}
    assert FiberCohomology(**fields) == lv and FiberCohomology(*fields.values()) == lv
    assert dataclasses.replace(lv, h=lv.h) == lv and dataclasses.replace(lv, h=lv.h + 1) != lv
    assert repr(lv).startswith("FiberCohomology(matrices=OrbitMatrices(p=2, orbit=Orbit(m=1")
    with pytest.raises(AttributeError):
        lv.h = 0
    with pytest.raises(AttributeError):
        lv.extra = 0
    assert oc.level(3) is lv and oc.level(5) != lv
