"""The exact-integer Smith normal form: a test-side witness for the
Z/p^N engine in `trcalc.snf`.

This is the engine the oracle ran before it worked over Z/p^N end to end,
kept unchanged: Smith normal form over the integers with unimodular
transforms, exact lattice solves, and kernel lattices modulo an integer
carried by an honest basis.  Its coefficients grow without bound, which is
why it lives here and not on the oracle's path; `quotient_divisors` is the
exact branch of the old `quotient`.  `eye`, `mat_vec`, `mat_mul` and
`from_columns` are the dense helpers only the tests and this witness
still use.  `class_order_exponent` reads the order of a class in a finite
p-group Z^n/(L + p^N·Z^n) from exact lattice solves alone.  The witness
imports nothing from `trcalc`: it keeps its own `Matrix`, `hstack` and
`columns`, so it shares no code with the engine it checks.

The engine takes only sparse input: matrices as {column: entry} rows,
generators and vectors as {index: entry} dicts.  `sparse_rows`,
`sparse_columns` and `sparse_vector` convert a dense matrix or vector
once, in ascending index order, and `densify` writes sparse rows back
out.  `fiber_d0` and `fiber_d1` are the dense reference assembly of the
oracle's differentials from an `OrbitMatrices`' coefficient lists:
shifted and diagonal blocks, stacked, as the oracle built them before it
built sparse rows.  `dense_class_functional` is the dense reference for
the engine's class functional: the Σ_k U[j][k]·(q/t_k)·V⁻¹[k] of
`QuotientPresentation.class_functional`, summed over dense rows of V⁻¹
written out from the kernel's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

Matrix = list[list[int]]


def hstack(A: Matrix, B: Matrix) -> Matrix:
    return [ra + rb for ra, rb in zip(A, B)]


def columns(A: Matrix) -> list[list[int]]:
    return [list(col) for col in zip(*A)] if A else []


def eye(n: int) -> Matrix:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def mat_vec(A: Matrix, x: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(cols):
                    row[j] += a * Bk[j]
    return out


def from_columns(cols: list[list[int]]) -> Matrix:
    return [list(row) for row in zip(*cols)] if cols else []


def scale_cols(A: Matrix, factors: list[int]) -> Matrix:
    return [[a * f for a, f in zip(row, factors)] for row in A]


def sparse_vector(x: list[int]) -> dict[int, int]:
    """The nonzero entries of x, keyed by index in ascending order."""
    return {j: a for j, a in enumerate(x) if a}


def sparse_rows(A: Matrix) -> list[dict[int, int]]:
    """The rows of A as sparse vectors: the engine's input for A."""
    return [sparse_vector(row) for row in A]


def sparse_columns(A: Matrix) -> list[dict[int, int]]:
    """The columns of A as sparse vectors."""
    return sparse_rows(columns(A))


def densify(rows: list[dict[int, int]], cols: int) -> Matrix:
    """Sparse rows written out as a dense matrix with `cols` columns."""
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def _shift(n: int, coeffs: list[int]) -> Matrix:
    M = [[0] * n for _ in range(n)]
    for a, c in enumerate(coeffs):
        M[a + 1][a] = c
    return M


def _diag(n: int, coeffs: list[int]) -> Matrix:
    M = [[0] * n for _ in range(n)]
    for a, c in enumerate(coeffs):
        M[a][a] = c
    return M


def _phi_minus_can(n: int, q: int, frob: list[int], can: list[int]) -> Matrix:
    M = _shift(n, frob)
    for a, c in enumerate(can):
        M[a][a] = (M[a][a] - c) % q
    return M


def fiber_d0(mats) -> Matrix:
    """Dense d0 of the fiber complex, 2n×n: C^0 = N^0 -> C^1 = N^1 (+) D^0."""
    n, q = mats.n, mats.modulus
    return _diag(n, mats.diff_nygaard) + _phi_minus_can(n, q, mats.frob0, mats.can0)


def fiber_d1(mats) -> Matrix:
    """Dense d1 of the fiber complex, n×2n: C^1 = N^1 (+) D^0 -> C^2 = D^1,
    (w, u) |-> (phi/p^i - can)w - d u."""
    n, q = mats.n, mats.modulus
    return hstack(_phi_minus_can(n, q, mats.frob1, mats.can1), _diag(n, [(-c) % q for c in mats.diff_full]))


def dense_class_functional(Q) -> list[int]:
    """w of the class functional of the engine's cyclic quotient Q, summed
    densely: Σ_k U[j][k]·(q/t_k)·V⁻¹[k] mod q·d over every kernel
    coordinate k, with j the row of the one nontrivial divisor d and V⁻¹[k]
    the dense row of V⁻¹ at the position of coordinate k, written out from
    the kernel's columns of V⁻¹."""
    K = Q.kernel
    (j,) = [r for r, d in enumerate(Q.divisors) if d > 1]
    q, d, dropped = K.modulus, Q.divisors[j], K.n - K.dim
    Vinv = [[K._Vinv_cols[c].get(pos, 0) for c in range(K.n)] for pos in range(K.n)]
    w = [0] * K.n
    for k, t in enumerate(K.t):
        f = Q._U[j].get(k, 0) * (q // t)
        w = [a + f * b for a, b in zip(w, Vinv[dropped + k])]
    return [a % (q * d) for a in w]


@dataclass(frozen=True)
class SNFResult:
    """Elementary divisors: nonnegative, each dividing the next, zeros
    trailing."""

    diagonal: tuple[int, ...]


@dataclass
class SmithDecomposition:
    """U @ M @ V = D with U, V unimodular; inverses tracked alongside."""

    D: Matrix
    U: Matrix
    Uinv: Matrix
    V: Matrix
    Vinv: Matrix

    def diagonal(self) -> list[int]:
        n = min(len(self.D), len(self.D[0]) if self.D else 0)
        return [self.D[t][t] for t in range(n)]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def smith_with_transforms(M: Matrix) -> SmithDecomposition:
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [row[:] for row in M]
    U, Uinv = eye(rows), eye(rows)
    V, Vinv = eye(cols), eye(cols)

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for r in range(rows):
            Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def row_addmul(i, j, q):
        # row_i += q * row_j
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        for r in range(rows):
            Uinv[r][j] -= q * Uinv[r][i]

    def row_negate(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]
        for r in range(rows):
            Uinv[r][i] = -Uinv[r][i]

    def col_swap(i, j):
        for r in range(rows):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def col_addmul(i, j, q):
        # col_i += q * col_j
        for r in range(rows):
            A[r][i] += q * A[r][j]
        for r in range(cols):
            V[r][i] += q * V[r][j]
        Vinv[j] = [a - q * b for a, b in zip(Vinv[j], Vinv[i])]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = abs(A[i][j])
                if a and (best is None or a < best[0]):
                    best = (a, i, j)
        return best

    def clear_cross(t):
        """Diagonalize position t: zero out row t and column t beyond it."""
        while True:
            best = find_pivot(t)
            if best is None:
                return False
            _, pi, pj = best
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            dirty = False
            for i in range(t + 1, rows):
                if A[i][t]:
                    row_addmul(i, t, -(A[i][t] // A[t][t]))
                    if A[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if A[t][j]:
                    col_addmul(j, t, -(A[t][j] // A[t][t]))
                    if A[t][j]:
                        dirty = True
            if not dirty:
                return True

    limit = min(rows, cols)
    rank = 0
    for t in range(limit):
        if not clear_cross(t):
            break
        rank = t + 1

    # Enforce the divisibility chain on the nonzero diagonal.
    changed = True
    while changed:
        changed = False
        for t in range(rank - 1):
            for j in range(t + 1, rank):
                if A[j][j] % A[t][t] != 0:
                    col_addmul(t, j, 1)
                    for u in range(t, rank):
                        clear_cross(u)
                    changed = True
                    break
            if changed:
                break

    for t in range(limit):
        if A[t][t] < 0:
            row_negate(t)

    return SmithDecomposition(A, U, Uinv, V, Vinv)


@lru_cache(maxsize=64)
def _decomposition(gen: tuple[tuple[int, ...], ...]) -> SmithDecomposition:
    """The decomposition of a matrix given as a tuple of rows, computed
    once per distinct matrix; callers only read it."""
    return smith_with_transforms([list(row) for row in gen])


def smith_normal_form(M: Matrix) -> SNFResult:
    """Elementary divisors of an integer matrix."""
    if not M or not M[0]:
        return SNFResult(())
    return SNFResult(tuple(_decomposition(tuple(map(tuple, M))).diagonal()))


def solve_in_lattice(gen: Matrix, v: list[int]) -> list[int] | None:
    """Integer coefficients z with gen @ z = v, or None if v is outside the
    column lattice of gen.  Repeated solves in one lattice reuse its
    decomposition (`_decomposition`) and cost two products."""
    dec = _decomposition(tuple(map(tuple, gen)))
    rows = len(gen)
    cols = len(gen[0]) if rows else 0
    uv = mat_vec(dec.U, v)
    w = [0] * cols
    diag = dec.diagonal()
    for j in range(rows):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            if uv[j] != 0:
                return None
        else:
            if uv[j] % d != 0:
                return None
            if j < cols:
                w[j] = uv[j] // d
    return mat_vec(dec.V, w)


@dataclass
class KernelLattice:
    """Full-rank lattice K = {x : M x = 0 mod modulus} inside Z^n, carried
    by a basis matrix together with exact solve data."""

    basis: Matrix  # n x n, columns span K
    _Vinv: Matrix
    _t: list[int]

    @property
    def dim(self) -> int:
        return len(self._t)

    def solve(self, x: list[int]) -> list[int] | None:
        """Coordinates of x in the kernel basis; None if x is not in K."""
        y = mat_vec(self._Vinv, x)
        out = []
        for val, t in zip(y, self._t):
            if val % t != 0:
                return None
            out.append(val // t)
        return out

    def solve_matrix(self, C: Matrix) -> Matrix:
        """Columnwise solve; every column must lie in K."""
        sols = []
        for col in columns(C):
            y = self.solve(col)
            if y is None:
                raise ArithmeticError("column outside the kernel lattice")
            sols.append(y)
        return from_columns(sols)


def kernel_mod(M: Matrix, modulus: int) -> KernelLattice:
    """Lattice of integer vectors x with M x = 0 mod modulus."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if cols == 0:
        return KernelLattice([], [], [])
    dec = smith_with_transforms(M)
    diag = dec.diagonal()
    t = []
    for j in range(cols):
        d = diag[j] if j < len(diag) else 0
        t.append(1 if d == 0 else modulus // gcd(d, modulus))
    basis = scale_cols(dec.V, t)
    return KernelLattice(basis, dec.Vinv, t)


def quotient_divisors(kernel: KernelLattice, L: Matrix) -> tuple[int, ...]:
    """Elementary divisors of K/L over the integers, one per kernel
    coordinate (0 for a free factor)."""
    dec = smith_with_transforms(kernel.solve_matrix(L))
    diag = dec.diagonal()
    return tuple(diag[j] if j < len(diag) else 0 for j in range(kernel.dim))


def class_order_exponent(L: Matrix, modulus: int, p: int, x: list[int]) -> int:
    """log_p of the order of the class of x in Z^n/(L + modulus·Z^n), for
    modulus a power of p: the least k such that p^k·x solves in that
    lattice (`solve_in_lattice`)."""
    lattice = hstack(L, [[modulus * v for v in row] for row in eye(len(x))])
    k = 0
    while solve_in_lattice(lattice, [p**k * v for v in x]) is None:
        k += 1
    return k
