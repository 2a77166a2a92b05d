"""Smith normal form over Z/p^N, kernel lattices, and quotient
presentations, checked against the exact-integer witness in
`snf_witness` (and sympy's Smith normal form where it imports).

The cases are dense integer matrices; the engine reads only sparse rows,
so `_smith`, `_kernel`, `_quotient` and `_solve` convert each input once
(`snf_witness.sparse_rows` and its siblings) before calling it, and
`_solve` reads the sparse coordinates through a dense view."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snf_witness as witness
from snf_witness import eye
from trcalc.padic import vp
from trcalc.snf import kernel_mod, quotient, smith_mod_prime_power


def _cols(M):
    return len(M[0]) if M else 0


def _smith(M, p, q, build_u=True):
    """`smith_mod_prime_power` on the dense M, fed as sparse rows."""
    return smith_mod_prime_power(witness.sparse_rows(M), _cols(M), p, q, build_u)


def _kernel(M, p, q):
    """`kernel_mod` on the dense M, fed as sparse rows."""
    return kernel_mod(witness.sparse_rows(M), _cols(M), p, q)


def _quotient(K, L, build_u=True):
    """`quotient` by the columns of the dense L, fed as sparse columns."""
    return quotient(K, witness.sparse_columns(L), build_u)


def _solve(K, x):
    """`K.solve` on the dense x, fed as a sparse vector, read through a
    dense view: its sparse coordinates, which hold no zero entry, written
    out as a list of `K.dim` entries, or None."""
    y = K.solve(witness.sparse_vector(x))
    if y is None:
        return None
    assert all(y.values()) and all(0 <= k < K.dim for k in y)
    return witness.densify([y], K.dim)[0]


def _basis_columns(K):
    return [K.basis_column(k) for k in range(K.dim)]


def _basis(K):
    """The kernel basis as a dense n×dim matrix."""
    cols = _basis_columns(K)
    return [[col[r] for col in cols] for r in range(K.n)]


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
        K = _kernel(M, p, modulus)
        for x in _basis_columns(K):
            assert all(v % modulus == 0 for v in witness.mat_vec(M, x))
            assert _solve(K, x) is not None


def test_quotient_cyclic_group():
    p, modulus = 3, 3**4
    # x with 3x = 0 mod 81 modulo im(d) where d hits 27*Z
    K = _kernel([[3]], p, modulus)
    Q = _quotient(K, [[27]])
    assert Q.exponents() == ()


def test_quotient_exponents_and_orders():
    modulus = 2**6
    K = _kernel([[0, 0]], 2, modulus)  # everything is a cocycle
    L = [[4, 0], [0, 8]]
    Q = _quotient(K, witness.hstack(L, [[modulus, 0], [0, modulus]]))
    assert sorted(Q.exponents(), reverse=True) == [3, 2]
    # the class orders that the exact lattice solves of the witness read
    # in Z^2/(L + 64·Z^2) ≅ Z/4 + Z/8
    assert witness.class_order_exponent(L, modulus, 2, [1, 0]) == 2
    assert witness.class_order_exponent(L, modulus, 2, [0, 1]) == 3
    assert witness.class_order_exponent(L, modulus, 2, [2, 2]) == 2


def test_quotient_adds_the_modulus_lattice():
    # quotient presents K/(L + p^N·Z^n): L need not carry p^N·Z^n itself
    modulus = 2**6
    K = _kernel([[0, 0]], 2, modulus)
    Q = _quotient(K, [[4, 0], [0, 8]])
    assert Q.exponents() == (3, 2)
    assert _quotient(K, [[0], [0]]).exponents() == (6, 6)
    # K = {x : 4x = 0 mod 64} = 16Z, and K/64Z is cyclic of order 4
    assert _quotient(_kernel([[4]], 2, modulus), [[0]]).exponents() == (2,)


def test_kernel_without_nontrivial_coordinates():
    # M = [1] mod 2: the one coordinate has t = q, so nothing is kept
    p, q = 2, 2
    K = _kernel([[1]], p, q)
    assert K.dim == 0 and K.t == [] and K.divisors == [1]
    assert _solve(K, [2]) == [] and _solve(K, [1]) is None
    Q = _quotient(K, [[0]])
    assert Q.exponents() == ()
    assert _basis(K) == [[]]
    with pytest.raises(ValueError):
        Q.class_functional()


def test_dropped_coordinates_still_decide_membership():
    # K = {x : x_0 ≡ 0 mod 4}: the coordinate of x_0 is dropped from the
    # basis but still read by solve
    K = _kernel([[1, 0]], 2, 4)
    assert K.dim == 1 and K.t == [1]
    assert _solve(K, [1, 0]) is None
    assert _solve(K, [4, 3]) is not None and _solve(K, [0, 1]) is not None
    # K = {x : x_0 ≡ 0 mod 64, 4·x_1 ≡ 0 mod 64}: x_0's coordinate is
    # dropped and x_1's is kept with t = 16; solve fails at the dropped
    # position, and at a kept value that t does not divide
    K = _kernel([[1, 0], [0, 4]], 2, 64)
    assert K.dim == 1 and K.t == [16]
    assert _solve(K, [1, 16]) is None
    assert _solve(K, [0, 8]) is None and _solve(K, [64, 40]) is None
    assert _solve(K, [64, 16]) == [1] and _solve(K, [0, 48]) == [3] and _solve(K, [0, 0]) == [0]


def test_solve_returns_sparse_coordinates_without_zeros():
    # {k: y_k} over the nonzero kernel coordinates only: the zero vector
    # and a vector of q·Z^n have none, and a quotient writes each column's
    # coordinates straight into the rows of Y they name
    K = _kernel([[1, 0, 0], [0, 4, 0]], 2, 64)
    assert K.dim == 2 and K.t == [16, 1]
    assert K.solve({}) == {} and K.solve({0: 64, 1: 64, 2: 128}) == {}
    assert K.solve({1: 48}) == {0: 3} and K.solve({2: 5}) == {1: 5}
    assert K.solve({0: 64, 1: 16, 2: 7}) == {0: 1, 1: 7}
    assert K.solve({0: 1}) is None
    Q = quotient(K, [{1: 48}, {}, {1: 16, 2: 64}, {2: 5}], False)
    # Y leaves out the relation column (q/t)·e_0 that G appends
    assert Q.coords == [{0: 3, 2: 1}, {3: 5}]


def test_class_functional_of_a_cyclic_quotient():
    # Z/(25 + 125) ≅ Z/25: 1 generates, 5 has order 5, 25 is trivial
    p, modulus = 5, 5**3
    K = _kernel([[0]], p, modulus)
    Q = _quotient(K, [[25]])
    functional = Q.class_functional()
    assert functional.d == 25 and functional.w == witness.dense_class_functional(Q)
    assert functional.coordinate([1]) % p
    assert vp(functional.coordinate([5]), p) == 1
    assert functional.coordinate([25]) == functional.coordinate([125]) == 0
    for x in ([1], [5], [7], [25]):
        c = functional.coordinate(x)
        assert witness.class_order_exponent([[25]], modulus, p, x) == (2 - vp(c, p) if c else 0)
    # a kept coordinate with t = 16: K = 16Z, and K/64Z ≅ Z/4 is
    # generated by 16
    Q = _quotient(_kernel([[4]], 2, 64), [[0]])
    assert Q.kernel.t == [16] and Q.divisors == (4,)
    functional = Q.class_functional()
    assert functional.w == witness.dense_class_functional(Q)
    assert [functional.coordinate([x]) for x in (16, 32, 48, 64)] == [1, 2, 3, 0]


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


def _smith_dense(M, p, q):
    """The full `smith_mod_prime_power` call, U and V⁻¹ written out dense
    from their rows (V⁻¹'s in position order), after checking that they
    hold only entries nonzero mod q and that V⁻¹ is unit upper triangular
    in position order: each row has 1 at its own column and no entry at
    the column of an earlier row."""
    rows, cols = len(M), len(M[0])
    divisors, U, Vinv = _smith(M, p, q)
    assert all(a % q for T in (U, Vinv.values()) for vec in T for a in vec.values())
    order = list(Vinv)
    assert sorted(order) == list(range(cols))
    for t, c in enumerate(order):
        assert Vinv[c][c] == 1 and not set(Vinv[c]) & set(order[:t])
    return (
        divisors,
        [[row.get(j, 0) for j in range(rows)] for row in U],
        [[row.get(j, 0) for j in range(cols)] for row in Vinv.values()],
    )


def _check_transforms(M, p, q):
    """The divisors of M, after checking that U·M ≡ D·V⁻¹ (mod q) with U
    and V⁻¹ invertible mod q, and that the call without U gives the same
    divisors and V⁻¹."""
    divisors, U, Vinv = _smith_dense(M, p, q)
    rows, cols = len(M), len(M[0])
    D = [[divisors[i] % q if i == j else 0 for j in range(cols)] for i in range(rows)]
    assert _mod(witness.mat_mul(U, M), q) == _mod(witness.mat_mul(D, Vinv), q)
    # U and V⁻¹ are invertible mod q: their integer elementary divisors
    # are prime to p
    for T in (U, Vinv):
        assert all(d % p for d in witness.smith_normal_form(T).diagonal)
    full, without_u = _smith(M, p, q), _smith(M, p, q, False)
    assert without_u[:2] == (full[0], None)
    assert list(without_u[2].items()) == list(full[2].items())
    return divisors


def _check_against_witness(p, N, M, xs):
    q = p**N
    rows = len(M)
    divisors = _check_transforms(M, p, q)
    assert divisors == _reduced_divisors(witness.smith_normal_form(M).diagonal, rows, p, N)

    K = _kernel(M, p, q)
    assert K.divisors == divisors
    # each basis column solves V⁻¹·x ≡ t_k·e_k: its coordinates are e_k
    for k, col in enumerate(_basis_columns(K)):
        assert all(0 <= v < q for v in col)
        assert _solve(K, col) == [int(j == k) for j in range(K.dim)]
    W = witness.kernel_mod(M, q)
    for x in witness.columns(W.basis) + _basis_columns(K) + xs:
        in_kernel = all(v % q == 0 for v in witness.mat_vec(M, x))
        assert (_solve(K, x) is not None) == (W.solve(x) is not None) == in_kernel
        if in_kernel:
            assert [v % q for v in witness.mat_vec(_basis(K), _solve(K, x))] == [v % q for v in x]


@settings(max_examples=100, deadline=None)
@given(_prime_power_cases())
def test_mod_prime_power_snf_matches_sympy(case):
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix, ZZ

    p, N, M, _ = case
    snf = normalforms.smith_normal_form(Matrix(M), domain=ZZ)
    diagonal = [abs(int(snf[t, t])) for t in range(min(snf.shape))]
    divisors = _smith(M, p, p**N)[0]
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
    K = _kernel(M, p, q)
    L = witness.mat_mul(_basis(K), _random_matrix(rng, K.dim, rng.randint(1, 3), bound=2 * p))
    Q = _quotient(K, L)
    exps = Q.exponents()
    if len(exps) != 1:
        with pytest.raises(ValueError):
            Q.class_functional()
        return
    functional = Q.class_functional()
    h = exps[0]
    assert functional.d == p**h
    # w read off the kept rows of V^-1 is the dense sum over every row
    assert functional.w == witness.dense_class_functional(Q)
    gen = next(col for col in _basis_columns(K) if functional.coordinate(col) % p)
    # U names the same column without reading the functional
    assert K.basis_column(Q.generator_coordinate()) == gen
    assert witness.class_order_exponent(L, q, p, gen) == h
    unit = pow(functional.coordinate(gen), -1, p**h)
    for _ in range(5):
        x = witness.mat_vec(_basis(K), [rng.randint(-q, q) for _ in range(K.dim)])
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
    K = _kernel(M, p, q)
    assert all(t < q for t in K.t)
    assert all(any(v % q for v in col) for col in _basis_columns(K))


def _divisors_below(M, p, q):
    return [d for d in _smith(M, p, q, ())[0] if d < q]


@settings(max_examples=150, deadline=None)
@given(_prime_power_cases(), st.integers(0, 2**32 - 1))
def test_generators_have_the_divisors_of_their_scaled_coordinates(case, seed):
    # L ≡ basis·Y = V·diag(t)·Y on the kept coordinates, with V invertible
    # mod q: L and diag(t)·Y have the same divisors below q, and when every
    # kept t_j is 1 these are the quotient's own
    p, N, M, _ = case
    q = p**N
    rng = random.Random(seed)
    K = _kernel(M, p, q)
    L = witness.mat_mul(_basis(K), _random_matrix(rng, K.dim, rng.randint(1, 3), bound=2 * p))
    Q = _quotient(K, L)
    Y = witness.densify(Q.coords, len(L[0]))
    assert _mod(witness.mat_mul(_basis(K), Y), q) == _mod(L, q)
    scaled = [[t * y % q for y in row] for t, row in zip(K.t, Y)]
    assert _divisors_below(scaled, p, q) == _divisors_below(L, p, q)
    if all(t == 1 for t in K.t):
        assert [d for d in Q.divisors if d < q] == _divisors_below(L, p, q)


def _structured_matrix(rng, p, N, rows, cols):
    """P·D·Q with P, Q random and D diagonal, its entries p^k (k <= N + 1)
    or 0: the pivots are often not units, and a rank below min(rows, cols)
    leaves a remaining block that vanishes mod p^N."""
    r = min(rows, cols)
    diag = [rng.choice([0, 1, 1, p**rng.randint(1, N + 1)]) for _ in range(r)]
    P = _random_matrix(rng, rows, r, bound=2 * p)
    Q = _random_matrix(rng, r, cols, bound=2 * p)
    return witness.mat_mul(P, [[d * x for x in row] for d, row in zip(diag, Q)])


def test_mod_prime_power_snf_on_shapes_the_oracle_never_builds():
    # larger and more degenerate than the oracle's fibers: random shapes up
    # to 9x18 and 18x9 over p in {2, 3, 5}; each call returns transforms
    # with U·M ≡ diag(divisors)·V⁻¹, both invertible mod q, the call
    # without U matches the full one, every basis column has coordinates
    # e_k, and the kernel's solve agrees with the witness's
    rng = random.Random(20261018)
    seen = {"non-unit pivot": 0, "zero block": 0, "rows > cols": 0, "cols > rows": 0}
    for _ in range(120):
        p = rng.choice((2, 3, 5))
        N = rng.randint(1, 5)
        q = p**N
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        if rng.random() < 0.5:
            rows, cols = (2 * rows, cols) if rng.random() < 0.5 else (rows, 2 * cols)
        M = _structured_matrix(rng, p, N, rows, cols)
        divisors = _check_transforms(M, p, q)
        r = min(rows, cols)
        seen["non-unit pivot"] += any(1 < d < q for d in divisors[:r])
        seen["zero block"] += q in divisors[:r]
        seen["rows > cols"] += rows > cols
        seen["cols > rows"] += cols > rows

        assert divisors == _reduced_divisors(witness.smith_normal_form(M).diagonal, rows, p, N)

        K, W = _kernel(M, p, q), witness.kernel_mod(M, q)
        for k, col in enumerate(_basis_columns(K)):
            assert _solve(K, col) == [int(j == k) for j in range(K.dim)]
        xs = witness.columns(W.basis) + [_random_matrix(rng, 1, cols, bound=q)[0] for _ in range(3)]
        for x in xs:
            in_kernel = all(v % q == 0 for v in witness.mat_vec(M, x))
            y = _solve(K, x)
            assert (y is not None) == (W.solve(x) is not None) == in_kernel
            if in_kernel:
                assert [v % q for v in witness.mat_vec(_basis(K), y)] == [v % q for v in x]
    assert all(seen.values()), seen


def _fiber_shaped(rng, p, N, n, kind):
    """[B | D], n×2n, like the oracle's d1: B lower bidiagonal and D
    diagonal, every entry p^k·u for a unit u and 0 <= k <= N (p^N·u is 0
    mod p^N).  `kind` adds a degenerate feature: "non-unit" puts k >= 1 on
    every entry, so no pivot is a unit; "zero block" zeroes D;
    "zero lines" zeroes one row and one column."""
    low = 1 if kind == "non-unit" else 0

    def entry():
        unit = rng.choice([u for u in range(1, 3 * p) if u % p]) * rng.choice((1, -1))
        return p ** rng.randint(low, N) * unit

    M = [[0] * (2 * n) for _ in range(n)]
    for r in range(n):
        M[r][r] = entry()
        if r:
            M[r][r - 1] = entry()
        if kind != "zero block":
            M[r][n + r] = entry()
    if kind == "zero lines":
        M[rng.randrange(n)] = [0] * (2 * n)
        c = rng.randrange(2 * n)
        for row in M:
            row[c] = 0
    return M


def _with_coordinates(Vinv, y, q):
    """x with V⁻¹·x ≡ y (mod q), from the witness's exact solve in the
    lattice spanned by V⁻¹ and q·I."""
    cols = len(Vinv)
    x = witness.solve_in_lattice(witness.hstack(Vinv, [[q * v for v in row] for row in eye(cols)]), y)
    return x[:cols]


def _check_engine(p, N, M, rng):
    """`_check_against_witness` on M, plus: `solve` rejects a vector whose
    kept coordinates lie in the lattice but one dropped coordinate is not 0
    mod q, and accepts it once that coordinate is q.  Returns whether M had
    a dropped coordinate."""
    q = p**N
    rows, cols = len(M), len(M[0])
    _check_against_witness(p, N, M, [])
    divisors, _, Vinv = _smith_dense(M, p, q)
    K = _kernel(M, p, q)
    t_all = [q // d for d in divisors[:cols]] + [1] * (cols - rows)
    dropped = [j for j, t in enumerate(t_all) if t == q]
    if not dropped:
        return False
    y = [0 if t == q else t * rng.randint(0, q) for t in t_all]
    y[rng.choice(dropped)] = rng.choice([u for u in range(1, q) if u % p])
    x = [v % q for v in _with_coordinates(Vinv, y, q)]
    assert any(v % q for v in witness.mat_vec(M, x))
    assert _solve(K, x) is None
    y = [q if v and t == q else v for v, t in zip(y, t_all)]
    x = _with_coordinates(Vinv, y, q)
    assert all(v % q == 0 for v in witness.mat_vec(M, x))
    assert _solve(K, x) is not None
    return True


def test_engine_on_fiber_shaped_matrices():
    # the oracle's shapes: n×2n [lower bidiagonal | diagonal] matrices with
    # p-power·unit entries, and the n×n kernel coordinates of n kernel
    # vectors that their H¹ quotients eliminate, each checked by
    # `_check_engine`; every degenerate kind and a dropped coordinate occur
    rng = random.Random(20261019)
    kinds = ("plain", "non-unit", "zero block", "zero lines")
    seen = {kind: 0 for kind in kinds}
    dropped = quotients = 0
    for _ in range(160):
        p = rng.choice((2, 3, 5))
        N = rng.randint(1, 6)
        n = rng.randint(1, 7)
        kind = rng.choice(kinds)
        M = _fiber_shaped(rng, p, N, n, kind)
        dropped += _check_engine(p, N, M, rng)
        seen[kind] += 1
        K = _kernel(M, p, p**N)
        if K.dim:
            L = witness.mat_mul(_basis(K), _random_matrix(rng, K.dim, n, bound=2 * p))
            _check_engine(p, N, witness.densify(_quotient(K, L).coords, n), rng)
            quotients += 1
    assert all(seen.values()) and dropped and quotients, (seen, dropped, quotients)
