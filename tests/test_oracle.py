"""Brute-force oracle: matrix construction, fiber cohomology, kernel
certification, truncation stability, and transition maps."""

import ast
import dataclasses
import functools
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snf_witness as witness
import trcalc.oracle as oracle_module
import trcalc.snf as snf_module
from trcalc.cli import JobSpec, run_command
from trcalc.drw import CyclicWittModule, TruncationParams, nygaard_exponents
from trcalc.oracle import (
    DegenerateOrbitError,
    FiberCohomology,
    OracleError,
    OrbitTruncation,
    TransitionOracle,
    TruncationInstabilityError,
    build_orbit_matrices,
    certify_kernel_generator,
    default_truncation,
    fiber_cohomology,
    oracle_cohomology,
    verify_orbit,
)
from trcalc.padic import MultiIndex, PAdicFraction, brace, factorial_ratio, vp
from trcalc.snf import (
    ClassFunctional,
    QuotientPresentation,
    columns,
    divisor_exponents,
    eye,
    hstack,
    kernel_mod,
    quotient,
    smith_mod_prime_power,
)
from trcalc.syntomic import Orbit, h1_syntomic_orbit

EMPTY = MultiIndex()


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
    mats = build_orbit_matrices(params, trunc)
    assert mats.diff_full == [brace(3**a, 2) % mats.modulus for a in range(mats.n)]


def test_frobenius_units_below_s():
    # below the stopping level the divided Frobenius entries are p-units
    params = TruncationParams(3, 2, 1)
    mats = build_orbit_matrices(params, OrbitTruncation(Orbit(1), 3, 40))
    assert mats.frob1[0] % 3 != 0


def test_fiber_complex_composes_to_zero():
    for p, e, i, m in [(3, 2, 2, 1), (2, 3, 2, 1), (5, 4, 3, 7)]:
        params = TruncationParams(p, e, i)
        trunc = default_truncation(params, Orbit(m))
        mats = build_orbit_matrices(params, trunc)
        prod = witness.mat_mul(mats.fiber_d1(), mats.fiber_d0())
        assert all(v % mats.modulus == 0 for row in prod for v in row)


def test_sign_convention_independence():
    # negating (phi/p^i - can) in both degrees flips d0/d1 blocks but leaves
    # kernels and images, hence cohomology, unchanged; the exact-integer
    # witness, given the p^N columns explicitly, agrees
    params = TruncationParams(2, 3, 2)
    trunc = default_truncation(params, Orbit(1))
    fc = fiber_cohomology(params, trunc)
    mats = build_orbit_matrices(params, trunc)
    mats.frob0 = [(-v) % mats.modulus for v in mats.frob0]
    mats.can0 = [(-v) % mats.modulus for v in mats.can0]
    mats.frob1 = [(-v) % mats.modulus for v in mats.frob1]
    mats.can1 = [(-v) % mats.modulus for v in mats.can1]

    n, modulus = mats.n, mats.modulus
    h1 = quotient(kernel_mod(mats.fiber_d1(), 2, modulus), mats.fiber_d0())
    assert h1.exponents(2) == fc.h1.exponents(2)

    k1 = witness.kernel_mod(mats.fiber_d1(), modulus)
    modulus_columns = [[modulus * v for v in row] for row in eye(2 * n)]
    divisors = witness.quotient_divisors(k1, hstack(mats.fiber_d0(), modulus_columns))
    assert tuple(sorted((vp(d, 2) for d in divisors if d != 1), reverse=True)) == fc.h1.exponents(2)


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

    def dead_last_column(params, trunc):
        # the last column of d0 holds only diff_nygaard[A] and -can0[A]
        mats = real(params, trunc)
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
    """The degree-0 certificate from a separate elimination of d0."""
    mats = fc.matrices
    divisors = smith_mod_prime_power(mats.fiber_d0(), fc.p, mats.modulus, ())[0]
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
                    fc = fiber_cohomology(params, trunc, ())
                    assert fc.h0_kernel_rank == _direct_h0_kernel_rank(fc) == 0
                    checked += 1
    # and on the README job `verify --p 2 --i 2 --e 3 --A 6 --N 24`
    params = TruncationParams(2, 3, 2)
    for m in (1, 5):
        fc = fiber_cohomology(params, OrbitTruncation(Orbit(m), 6, 24), ())
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
    mats = build_orbit_matrices(params, default_truncation(params, Orbit(m)))
    n, q = mats.n, mats.modulus
    _scale_d1_row(mats, level % n, p**scale)
    if dead_column:
        mats.diff_nygaard[-1] = 0
        mats.can0[-1] = q
    fc = FiberCohomology.of(mats, p, ())
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
    scaled_d1 = [[x * f % q for x, f in zip(row[:s], scale)] + row[s:] for row in fc.matrices.fiber_d1()]
    basis = columns(kernel_mod(scaled_d1, 2, q, ("V",)).basis)
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
        assert certify_kernel_generator(fc, claim) is expected
        verdicts.append(expected)
    assert True in verdicts[n:] and False in verdicts


def test_verify_orbit_passes():
    params = TruncationParams(2, 3, 2)
    cert = verify_orbit(params, h1_syntomic_orbit(params, Orbit(1)))
    assert cert.passed
    assert cert.h_closed == 3
    assert cert.oracle_exponents[2] == ()
    assert len(cert.matrices_hash) == 64


def test_verify_orbit_builds_base_and_grown_truncation_once(monkeypatch):
    # exponents, matrix hash and kernel certificate share the base build;
    # the stability recheck adds the one build at (A+1, N+2), each fiber's
    # d0 serves both H^1 and the degree-0 certificate, and the base d1
    # serves both H^1 and the kernel certificate
    built, d0_built, d1_built = [], [], []
    real = oracle_module.build_orbit_matrices
    real_d0 = oracle_module.OrbitMatrices.fiber_d0
    real_d1 = oracle_module.OrbitMatrices.fiber_d1

    def counting(params, trunc):
        built.append(trunc)
        return real(params, trunc)

    def counting_d0(mats):
        d0_built.append(mats.n)
        return real_d0(mats)

    def counting_d1(mats):
        d1_built.append(mats.n)
        return real_d1(mats)

    monkeypatch.setattr(oracle_module, "build_orbit_matrices", counting)
    monkeypatch.setattr(oracle_module.OrbitMatrices, "fiber_d0", counting_d0)
    monkeypatch.setattr(oracle_module.OrbitMatrices, "fiber_d1", counting_d1)
    params = TruncationParams(2, 3, 2)
    cert = verify_orbit(params, h1_syntomic_orbit(params, Orbit(1)))
    assert cert.s >= 1 and cert.kernel_ok
    base = default_truncation(params, Orbit(1))
    assert built == [base, OrbitTruncation(Orbit(1), base.A + 1, base.N + 2)]
    assert d0_built == [base.A + 1, base.A + 2]
    assert d1_built == [base.A + 1, base.A + 2]


def test_verify_orbit_rejects_unstable_truncation(monkeypatch):
    params = TruncationParams(2, 3, 2)
    base = default_truncation(params, Orbit(1))
    real = oracle_module.fiber_cohomology

    def other_orbit_when_grown(params, trunc, transforms):
        # orbit m=5 has h=1 where m=1 has h=3, so the recheck must see a change
        if trunc != base:
            trunc = OrbitTruncation(Orbit(5), trunc.A, trunc.N)
        return real(params, trunc, transforms)

    monkeypatch.setattr(oracle_module, "fiber_cohomology", other_orbit_when_grown)
    with pytest.raises(TruncationInstabilityError):
        verify_orbit(params, h1_syntomic_orbit(params, Orbit(1)))


def test_verify_orbit_pinned_truncation_matches_cli_job():
    params = TruncationParams(2, 3, 2)
    cert = verify_orbit(params, h1_syntomic_orbit(params, Orbit(1)), OrbitTruncation(Orbit(1), 6, 24))
    report, _ = run_command(JobSpec(command="verify", p=2, i=2, e=3, A=6, N=24))
    rec = next(rec for rec in report.orbits if rec["m"] == 1)
    assert cert.oracle_exponents[0] == ()
    assert (rec["oracle_h"],) == cert.oracle_exponents[1]
    assert rec["oracle_h2"] == list(cert.oracle_exponents[2])
    assert rec["kernel_ok"] == cert.kernel_ok
    assert rec["pass"] == cert.passed


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


def test_verify_orbit_runs_only_the_transforms_it_reads(monkeypatch):
    # each fiber eliminates d1 once, in the kernel under H^1, which builds
    # only the V^-1 that solves read, and H^2 comes from that kernel's
    # divisors; the base quotient builds the U that the certificate's class
    # functional reads, the stability recheck compares exponents and
    # builds none, the degree-0 certificate is read from the quotient's
    # own elimination, and the generator search reads the basis V of the
    # kernel of d1 with its first s columns scaled by the claimed p^(c_a)
    smith_calls, inside, kernels, quotient_shapes = [], [], [], []
    real_smith = snf_module.smith_mod_prime_power
    real_kernel = oracle_module.kernel_mod

    def smith(*args):
        smith_calls.append((inside[-1] if inside else None, args[3]))
        if inside and inside[-1] == "quotient":
            quotient_shapes.append((len(args[0]), len(args[0][0])))
        return real_smith(*args)

    def tagged(name, real):
        def run(*args):
            inside.append(name)
            try:
                return real(*args)
            finally:
                inside.pop()

        return run

    def kernel_mod(M, p, q, transforms):
        kernels.append(M)
        return real_kernel(M, p, q, transforms)

    for module in (snf_module, oracle_module):
        monkeypatch.setattr(module, "smith_mod_prime_power", smith)
    monkeypatch.setattr(oracle_module, "kernel_mod", tagged("kernel_mod", kernel_mod))
    monkeypatch.setattr(oracle_module, "quotient", tagged("quotient", oracle_module.quotient))
    params = TruncationParams(2, 3, 2)
    cert = verify_orbit(params, h1_syntomic_orbit(params, Orbit(1)))
    assert cert.passed and cert.s >= 1
    assert [t for tag, t in smith_calls if tag == "quotient"] == [("U",), ()]
    assert kernels and all(any(v for row in M for v in row) for M in kernels)
    assert smith_calls == [
        ("kernel_mod", ("Vinv",)),
        ("quotient", ("U",)),
        ("kernel_mod", ("Vinv",)),
        ("quotient", ()),
        ("kernel_mod", ("V",)),
    ]
    base = default_truncation(params, Orbit(1))
    fibers = [build_orbit_matrices(params, t) for t in (base, base.grown(params))]
    assert kernels[:2] == [mats.fiber_d1() for mats in fibers]
    # each H^1 quotient is n x n: the kernel keeps the n coordinates of its
    # 2n that are not identically zero, and none needs a relation column
    assert quotient_shapes == [(mats.n, mats.n) for mats in fibers]
    fc = fiber_cohomology(params, base, ("U",))
    assert fc.h1.kernel.dim == fibers[0].n and fc.h1.kernel.t == [1] * fibers[0].n
    # the claim (0, 0, 1) scales the columns of levels 0, 1, 2 by 2, 1, 1
    d1, q = fibers[0].fiber_d1(), fibers[0].modulus
    assert kernels[2] == [[2 * row[0] % q] + row[1:] for row in d1]


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
    mats = build_orbit_matrices(params, default_truncation(params, Orbit(m, alpha)))
    n, q = mats.n, mats.modulus
    _scale_d1_row(mats, level % n, p**scale)
    h2 = FiberCohomology.of(mats, p, ()).h2
    assert h2 == quotient(kernel_mod([[0] * n], p, q), mats.fiber_d1()).exponents(p)
    exact = witness.smith_normal_form(hstack(mats.fiber_d1(), [[q * v for v in row] for row in eye(n)]))
    assert h2 == tuple(sorted((vp(d, p) for d in exact.diagonal if d != 1), reverse=True))
    # the kernel's divisors are those of a separate transform-free elimination
    assert h2 == divisor_exponents(smith_mod_prime_power(mats.fiber_d1(), p, q, ())[0], p)
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
    mats = build_orbit_matrices(oc.params(e), oc.trunc())
    q, d0 = mats.modulus, mats.fiber_d0()
    K = witness.kernel_mod(mats.fiber_d1(), q)
    order = functools.partial(witness.class_order_exponent, d0, q, oc.p)
    basis = columns(K.basis)
    orders = [order(col) for col in basis]
    h = max(orders)
    relations = hstack(d0, [[q * v for v in row] for row in eye(2 * mats.n)])
    assert math.prod(witness.smith_normal_form(relations).diagonal) == oc.p**h * math.prod(K._t)
    return order, ((h,) if h else ()), (basis[orders.index(h)] if h else None)


def _dense_witness_valuation(oc, e, f, level_e, level_f):
    """h_e minus the witness class order of the f -> e image of the
    level-f generator, with the Nygaard exponents recomputed for the
    pair."""
    p, n, modulus = oc.p, oc.A + 1, oc.p**oc.N
    (order_e, exps_e, _), (_, _, gen) = level_e, level_f
    image_n1, image_d0 = [], []
    for a in range(n):
        m_a = p**a * oc.orbit.m
        floor_l1 = oc.orbit.alpha.floor_l1(p, a)
        u1_e = nygaard_exponents(oc.params(e), m_a, floor_l1)[1]
        u1_f = nygaard_exponents(oc.params(f), m_a, floor_l1)[1]
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


def test_transition_image_outside_the_kernel_is_refused(monkeypatch):
    oc = TransitionOracle(2, 2, Orbit(1), [3, 5])
    assert oc.valuation(3, 5) >= 0
    not_a_cocycle = [1] + [0] * (2 * (oc.A + 1) - 1)
    fc = fiber_cohomology(oc.params(3), oc.trunc())
    assert any(oc.level(3).matrices.fiber_d1_apply(not_a_cocycle))
    assert fc.h1.kernel.solve(not_a_cocycle) is None
    monkeypatch.setattr(TransitionOracle, "_transition_image", lambda self, *args: not_a_cocycle)
    with pytest.raises(ArithmeticError, match="outside the kernel lattice"):
        oc.valuation(3, 5)


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


def test_sparse_d1_matches_dense_d1():
    params = TruncationParams(3, 4, 2)
    trunc = default_truncation(params, Orbit(5, MultiIndex.from_dict({"t": PAdicFraction(1, 1)})))
    mats = build_orbit_matrices(params, trunc)
    for k in range(2 * mats.n):
        x = [(k + 1) * (j + 3) ** 2 if j % 3 != k % 3 else 0 for j in range(2 * mats.n)]
        assert mats.fiber_d1_apply(x) == [v % mats.modulus for v in witness.mat_vec(mats.fiber_d1(), x)]


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
    exps = fiber_cohomology(oc.params(e), oc.trunc()).h1.exponents(p)
    if not exps:
        assert level.h == 0 and level.generator is None
        return
    mats = level.matrices
    order = witness.class_order_exponent(mats.fiber_d0(), mats.modulus, p, level.generator)
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
    q = p**oc.N
    for f in live:
        lv = oc.level(f)
        d0 = lv.matrices.fiber_d0()
        col = columns(d0)[rng.randrange(len(d0[0]))]
        unit = rng.choice([u for u in range(1, 3 * p) if u % p])
        gen = [unit * g + c for g, c in zip(lv.generator, col)]
        gen[rng.randrange(len(gen))] += q
        assert gen != lv.generator
        oc._cache[f] = dataclasses.replace(lv, generator=gen)
    assert {pair: oc.valuation(*pair) for pair in pairs} == before
