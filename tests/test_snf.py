"""Smith normal form over Z/p^N, kernel lattices, and quotient
presentations, checked against the exact-integer witness in
`snf_witness` (and sympy's Smith normal form where it imports)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snf_witness as witness
from trcalc.padic import vp
from trcalc.snf import (
    columns,
    eye,
    hstack,
    kernel_mod,
    quotient,
    smith_mod_prime_power,
)


def test_snf_examples():
    assert witness.smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert witness.smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)
    assert witness.smith_normal_form([[4, 2], [2, 4]]).diagonal == (2, 6)


def test_snf_empty_and_rectangular():
    assert witness.smith_normal_form([]).diagonal == ()
    assert witness.smith_normal_form([[6, 4]]).diagonal == (2,)
    assert witness.smith_normal_form([[6], [4]]).diagonal == (2,)


def _random_matrix(rng, rows, cols, bound=30):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _det2(M):
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def _mod(A, q):
    return [[a % q for a in row] for row in A]


def test_transforms_reconstruct_and_are_unimodular():
    rng = random.Random(20260824)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = _random_matrix(rng, rows, cols)
        dec = witness.smith_with_transforms(M)
        assert witness.mat_mul(witness.mat_mul(dec.U, M), dec.V) == dec.D
        assert witness.mat_mul(dec.U, dec.Uinv) == eye(rows)
        assert witness.mat_mul(dec.V, dec.Vinv) == eye(cols)
        diag = dec.diagonal()
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        assert all(d >= 0 for d in diag)


def test_solve_in_lattice():
    # over Z, on the witness
    gen = [[2, 0], [0, 3]]
    assert witness.solve_in_lattice(gen, [4, 9]) == [2, 3]
    assert witness.solve_in_lattice(gen, [1, 0]) is None
    # overdetermined consistent system
    gen = [[1], [2]]
    assert witness.solve_in_lattice(gen, [3, 6]) == [3]
    assert witness.solve_in_lattice(gen, [3, 5]) is None


def test_kernel_mod_membership():
    rng = random.Random(7)
    p, modulus = 2, 2**5
    for _ in range(40):
        M = _random_matrix(rng, 3, 4, bound=12)
        K = kernel_mod(M, p, modulus)
        for x in columns(K.basis):
            assert all(v % modulus == 0 for v in witness.mat_vec(M, x))
            assert K.solve(x) is not None


def test_quotient_cyclic_group():
    p, modulus = 3, 3**4
    # x with 3x = 0 mod 81 modulo im(d) where d hits 27*Z
    K = kernel_mod([[3]], p, modulus)
    Q = quotient(K, [[27]])
    assert Q.exponents(p) == ()


def test_quotient_exponents_and_orders():
    modulus = 2**6
    K = kernel_mod([[0, 0]], 2, modulus)  # everything is a cocycle
    L = [[4, 0], [0, 8]]
    Q = quotient(K, hstack(L, [[modulus, 0], [0, modulus]]))
    assert sorted(Q.exponents(2), reverse=True) == [3, 2]
    # the class orders that the exact lattice solves of the witness read
    # in Z^2/(L + 64·Z^2) ≅ Z/4 + Z/8
    assert witness.class_order_exponent(L, modulus, 2, [1, 0]) == 2
    assert witness.class_order_exponent(L, modulus, 2, [0, 1]) == 3
    assert witness.class_order_exponent(L, modulus, 2, [2, 2]) == 2


def test_quotient_adds_the_modulus_lattice():
    # quotient presents K/(L + p^N·Z^n): L need not carry p^N·Z^n itself
    modulus = 2**6
    K = kernel_mod([[0, 0]], 2, modulus)
    Q = quotient(K, [[4, 0], [0, 8]])
    assert Q.exponents(2) == (3, 2)
    assert quotient(K, [[0], [0]]).exponents(2) == (6, 6)
    # K = {x : 4x = 0 mod 64} = 16Z, and K/64Z is cyclic of order 4
    assert quotient(kernel_mod([[4]], 2, modulus), [[0]]).exponents(2) == (2,)


def test_kernel_without_nontrivial_coordinates():
    # M = [1] mod 2: the one coordinate has t = q, so nothing is kept
    p, q = 2, 2
    K = kernel_mod([[1]], p, q)
    assert K.dim == 0 and K.t == [] and K.divisors == [1]
    assert K.solve([2]) == [] and K.solve([1]) is None
    Q = quotient(K, [[0]])
    assert Q.exponents(p) == ()
    assert K.basis == [[]]
    with pytest.raises(ValueError):
        Q.class_functional()


def test_dropped_coordinates_still_decide_membership():
    # K = {x : x_0 ≡ 0 mod 4}: the coordinate of x_0 is dropped from the
    # basis but still read by solve
    K = kernel_mod([[1, 0]], 2, 4)
    assert K.dim == 1 and K.t == [1]
    assert K.solve([1, 0]) is None
    assert K.solve([4, 3]) is not None and K.solve([0, 1]) is not None


def test_class_functional_of_a_cyclic_quotient():
    # Z/(25 + 125) ≅ Z/25: 1 generates, 5 has order 5, 25 is trivial
    p, modulus = 5, 5**3
    K = kernel_mod([[0]], p, modulus)
    functional = quotient(K, [[25]]).class_functional()
    assert functional.d == 25
    assert functional.coordinate([1]) % p
    assert vp(functional.coordinate([5]), p) == 1
    assert functional.coordinate([25]) == functional.coordinate([125]) == 0
    for x in ([1], [5], [7], [25]):
        c = functional.coordinate(x)
        assert witness.class_order_exponent([[25]], modulus, p, x) == (2 - vp(c, p) if c else 0)


@settings(max_examples=150)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_snf_invariant_under_row_shuffle(rows, cols, seed):
    rng = random.Random(seed)
    M = _random_matrix(rng, rows, cols)
    shuffled = M[:]
    rng.shuffle(shuffled)
    assert witness.smith_normal_form(M).diagonal == witness.smith_normal_form(shuffled).diagonal


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_snf_2x2_determinant_invariant(seed):
    rng = random.Random(seed)
    M = _random_matrix(rng, 2, 2)
    d1, d2 = witness.smith_normal_form(M).diagonal
    assert d1 * d2 == abs(_det2(M))


@st.composite
def _prime_power_cases(draw):
    """(p, N, M, xs): p in {2, 3, 5}, N <= 6, M up to 5x5 with entries
    often divisible by powers of p, and a few vectors to test for kernel
    membership."""
    p = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(1, 6))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.one_of(
        st.integers(-40, 40),
        st.builds(lambda k, u: p**k * u, st.integers(0, N + 1), st.integers(-4, 4)),
    )
    M = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    xs = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=3))
    return p, N, M, xs


def _reduced_divisors(diagonal, rows, p, N):
    """p^min(v_p(d), N) for each integer elementary divisor d (p^N for 0),
    padded with p^N to one per row."""
    q = p**N
    out = [p ** min(vp(d, p), N) if d else q for d in diagonal]
    return out + [q] * (rows - len(out))


@settings(max_examples=200, deadline=None)
@given(_prime_power_cases())
def test_mod_prime_power_snf_matches_witness(case):
    _check_against_witness(*case)


@settings(max_examples=150, deadline=None)
@given(_prime_power_cases(), st.integers(1, 3))
def test_mod_prime_power_snf_without_units_matches_witness(case, k):
    # every entry divisible by p^k: no block has a unit, so every pivot
    # comes from the least-valuation search
    p, N, M, xs = case
    _check_against_witness(p, N, [[p**k * a for a in row] for row in M], xs)


def _check_against_witness(p, N, M, xs):
    q = p**N
    rows, cols = len(M), len(M[0])
    divisors, U, V, Vinv = smith_mod_prime_power(M, p, q)

    assert divisors == _reduced_divisors(witness.smith_normal_form(M).diagonal, rows, p, N)
    D = [[divisors[i] % q if i == j else 0 for j in range(cols)] for i in range(rows)]
    assert _mod(witness.mat_mul(witness.mat_mul(U, M), V), q) == D
    # U is invertible mod q: its integer elementary divisors are prime to p
    assert all(d % p for d in witness.smith_normal_form(U).diagonal)
    assert _mod(witness.mat_mul(V, Vinv), q) == eye(cols)
    # each caller's reduced call gives the same divisors and transforms
    full = {"U": U, "V": V, "Vinv": Vinv}
    for transforms in ((), ("V", "Vinv"), ("Vinv",), ("U",), ("U", "V")):
        reduced = smith_mod_prime_power(M, p, q, transforms)
        assert reduced[0] == divisors
        for name, got in zip(("U", "V", "Vinv"), reduced[1:]):
            assert got == (full[name] if name in transforms else None)

    K = kernel_mod(M, p, q)
    W = witness.kernel_mod(M, q)
    for x in columns(W.basis) + columns(K.basis) + xs:
        in_kernel = all(v % q == 0 for v in witness.mat_vec(M, x))
        assert (K.solve(x) is not None) == (W.solve(x) is not None) == in_kernel
        if in_kernel:
            assert [v % q for v in witness.mat_vec(K.basis, K.solve(x))] == [v % q for v in x]
    # a kernel that is only solved in builds V^-1 alone, with the same
    # divisors and coordinates
    solve_only = kernel_mod(M, p, q, ("Vinv",))
    assert solve_only.basis is None
    assert solve_only.divisors == K.divisors == divisors
    for x in columns(W.basis) + columns(K.basis) + xs:
        assert solve_only.solve(x) == K.solve(x)


@settings(max_examples=100, deadline=None)
@given(_prime_power_cases())
def test_mod_prime_power_snf_matches_sympy(case):
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix, ZZ

    p, N, M, _ = case
    snf = normalforms.smith_normal_form(Matrix(M), domain=ZZ)
    diagonal = [abs(int(snf[t, t])) for t in range(min(snf.shape))]
    divisors = smith_mod_prime_power(M, p, p**N)[0]
    assert divisors == _reduced_divisors(diagonal, len(M), p, N)


@settings(max_examples=150, deadline=None)
@given(_prime_power_cases(), st.integers(0, 2**32 - 1))
def test_generator_and_class_functional_on_random_quotients(case, seed):
    # L is a random combination of kernel vectors.  On a cyclic quotient
    # Z/p^h, some basis column has a unit coordinate (the generator the
    # transition oracle picks), and every x in K is that coordinate's
    # multiple of it modulo L + q·Z^n; class orders and that membership
    # are decided by the witness's exact lattice solves alone
    p, N, M, _ = case
    q = p**N
    rng = random.Random(seed)
    K = kernel_mod(M, p, q)
    L = witness.mat_mul(K.basis, _random_matrix(rng, K.dim, rng.randint(1, 3), bound=2 * p))
    Q = quotient(K, L)
    exps = Q.exponents(p)
    if len(exps) != 1:
        with pytest.raises(ValueError):
            Q.class_functional()
        return
    functional = Q.class_functional()
    h = exps[0]
    assert functional.d == p**h
    gen = next(col for col in columns(K.basis) if functional.coordinate(col) % p)
    assert witness.class_order_exponent(L, q, p, gen) == h
    unit = pow(functional.coordinate(gen), -1, p**h)
    for _ in range(5):
        x = witness.mat_vec(K.basis, [rng.randint(-q, q) for _ in range(K.dim)])
        c = functional.coordinate(x)
        assert witness.class_order_exponent(L, q, p, x) == (h - vp(c, p) if c else 0)
        rest = [a - c * unit * b for a, b in zip(x, gen)]
        assert witness.class_order_exponent(L, q, p, rest) == 0


@settings(max_examples=150, deadline=None)
@given(_prime_power_cases())
def test_kernel_basis_has_no_zero_column(case):
    # a kept column is V_j·t_j with t_j < q and V_j a column of a matrix
    # invertible mod q, so it is never ≡ 0 mod q
    p, N, M, _ = case
    q = p**N
    K = kernel_mod(M, p, q)
    assert all(t < q for t in K.t)
    assert all(any(v % q for v in col) for col in columns(K.basis))


def _divisors_below(M, p, q):
    return [d for d in smith_mod_prime_power(M, p, q, ())[0] if d < q]


@settings(max_examples=150, deadline=None)
@given(_prime_power_cases(), st.integers(0, 2**32 - 1))
def test_generators_have_the_divisors_of_their_scaled_coordinates(case, seed):
    # L ≡ basis·Y = V·diag(t)·Y on the kept coordinates, with V invertible
    # mod q: L and diag(t)·Y have the same divisors below q, and when every
    # kept t_j is 1 these are the quotient's own
    p, N, M, _ = case
    q = p**N
    rng = random.Random(seed)
    K = kernel_mod(M, p, q)
    L = witness.mat_mul(K.basis, _random_matrix(rng, K.dim, rng.randint(1, 3), bound=2 * p))
    Q = quotient(K, L)
    assert _mod(witness.mat_mul(K.basis, Q.coords), q) == _mod(L, q)
    scaled = [[t * y % q for y in row] for t, row in zip(K.t, Q.coords)]
    assert _divisors_below(scaled, p, q) == _divisors_below(L, p, q)
    if all(t == 1 for t in K.t):
        assert [d for d in Q.divisors if d < q] == _divisors_below(L, p, q)
