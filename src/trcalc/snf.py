"""Smith normal form over the local ring Z/p^N, with transform tracking,
plus the lattice helpers the brute-force oracle needs: kernel lattices of
matrices modulo p^N, quotient presentations K/(L + p^N·Z^n), and solves
modulo p^N.

Every matrix the oracle builds is reduced modulo q = p^N and every lattice
it forms contains q·Z^n, so each elementary divisor is a power of p
dividing q.  Pivoting on an entry of least p-valuation keeps all entries
reduced mod q, so there is no coefficient growth: the modulo-determinant
idea of Domich, Kannan and Trotter (1987), specialised to Z/p^N.

Matrices are dense row-major lists of ints.  Dimensions here are tiny (a
handful of orbit levels), so clarity wins over asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass


Matrix = list[list[int]]


def eye(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = zeros(rows, cols)
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


def mat_vec(A: Matrix, x: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def hstack(A: Matrix, B: Matrix) -> Matrix:
    return [ra + rb for ra, rb in zip(A, B)]


def columns(A: Matrix) -> list[list[int]]:
    return [list(col) for col in zip(*A)] if A else []


def from_columns(cols: list[list[int]]) -> Matrix:
    return [list(row) for row in zip(*cols)] if cols else []


def _pval(a: int, p: int) -> int:
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def smith_mod_prime_power(M: Matrix, p: int, q: int) -> tuple[list[int], Matrix, Matrix, Matrix, Matrix]:
    """Elementary divisors and transforms of M over Z/q, q = p^N.

    Returns (divisors, U, Uinv, V, Vinv): U·M·V is congruent mod q to the
    matrix with divisors[t] at (t, t) and zeros elsewhere, and U·Uinv and
    V·Vinv are congruent to the identity.  There is one divisor per row,
    p^v with v < N or q (which reads as 0) where the remaining block
    vanishes mod q, in increasing order.  When the column lattice of M
    contains q·Z^rows, these are the integer elementary divisors of that
    lattice.

    Each step pivots on an entry of least p-valuation v and scales its row
    so the pivot is p^v.  Every entry of the remaining block is then
    divisible by p^v, so the row operations below the pivot and the column
    operations right of it stay inside Z/q.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [[a % q for a in row] for row in M]
    U, Uinv = eye(rows), eye(rows)
    V, Vinv = eye(cols), eye(cols)
    divisors = [q] * rows

    for t in range(min(rows, cols)):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = A[i][j]
                if a:
                    v = _pval(a, p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if v == 0:
                            break
            if best and best[0] == 0:
                break
        if best is None:
            break  # remaining block is zero mod q: divisors stay q
        v, pi, pj = best
        if pi != t:
            A[pi], A[t] = A[t], A[pi]
            U[pi], U[t] = U[t], U[pi]
            for r in range(rows):
                Uinv[r][pi], Uinv[r][t] = Uinv[r][t], Uinv[r][pi]
        if pj != t:
            for r in range(rows):
                A[r][pj], A[r][t] = A[r][t], A[r][pj]
            for r in range(cols):
                V[r][pj], V[r][t] = V[r][t], V[r][pj]
            Vinv[pj], Vinv[t] = Vinv[t], Vinv[pj]
        pk = p**v
        unit = A[t][t] // pk
        uinv = pow(unit, -1, q)
        A[t] = [a * uinv % q for a in A[t]]
        U[t] = [a * uinv % q for a in U[t]]
        for r in range(rows):
            Uinv[r][t] = Uinv[r][t] * unit % q
        # row_i -= f * row_t, so Uinv's column t gains f * its column i
        for i in range(t + 1, rows):
            if A[i][t]:
                f = A[i][t] // pk
                A[i] = [(a - f * b) % q for a, b in zip(A[i], A[t])]
                U[i] = [(a - f * b) % q for a, b in zip(U[i], U[t])]
                for r in range(rows):
                    Uinv[r][t] = (Uinv[r][t] + f * Uinv[r][i]) % q
        # column t now holds only the pivot, so col_j -= f * col_t clears
        # row t and touches no other row; Vinv's row t gains f * its row j
        for j in range(t + 1, cols):
            if A[t][j]:
                f = A[t][j] // pk
                A[t][j] = 0
                for r in range(cols):
                    V[r][j] = (V[r][j] - f * V[r][t]) % q
                Vinv[t] = [(a + f * b) % q for a, b in zip(Vinv[t], Vinv[j])]
        divisors[t] = pk
    return divisors, U, Uinv, V, Vinv


def solve_in_lattice(gen: Matrix, v: list[int], p: int, q: int) -> list[int] | None:
    """Coefficients z with gen·z ≡ v (mod q), q = p^N, or None if there
    are none."""
    cols = len(gen[0]) if gen else 0
    divisors, U, _, V, _ = smith_mod_prime_power(gen, p, q)
    w = [0] * cols
    for j, (val, d) in enumerate(zip(mat_vec(U, v), divisors)):
        val %= q
        if val % d:
            return None
        if j < cols:
            w[j] = val // d
    return [x % q for x in mat_vec(V, w)]


@dataclass
class KernelLattice:
    """K = {x : M x ≡ 0 mod q} inside Z^n, q = p^N.

    K contains q·Z^n.  The columns of `basis` = V·diag(t) span K modulo
    q·Z^n, and the coordinates of x in K are read through V⁻¹ mod q: the
    j-th is defined modulo q/t_j.
    """

    basis: Matrix
    p: int
    modulus: int
    _Vinv: Matrix
    _t: list[int]

    @property
    def dim(self) -> int:
        return len(self._t)

    def solve(self, x: list[int]) -> list[int] | None:
        """Coordinates of x in the kernel basis; None if x is not in K."""
        out = []
        for val, t in zip(mat_vec(self._Vinv, x), self._t):
            val %= self.modulus
            if val % t:
                return None
            out.append(val // t)
        return out


def kernel_mod(M: Matrix, p: int, q: int) -> KernelLattice:
    """Lattice of integer vectors x with M x ≡ 0 mod q, q = p^N."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    divisors, _, _, V, Vinv = smith_mod_prime_power(M, p, q)
    t = [q // d for d in divisors[:cols]] + [1] * (cols - rows)
    basis = [[a * f % q for a, f in zip(row, t)] for row in V]
    return KernelLattice(basis, p, q, Vinv, t)


@dataclass
class QuotientPresentation:
    """Finite p-group K/(L + q·Z^n) given by elementary divisors, with
    class coordinates for arbitrary lattice elements."""

    kernel: KernelLattice
    divisors: tuple[int, ...]
    _U: Matrix
    _Uinv: Matrix

    def exponents(self, p: int) -> tuple[int, ...]:
        """Divisors as powers of p, largest first, trivial ones dropped."""
        return tuple(sorted((a for a in (_pval(d, p) for d in self.divisors) if a), reverse=True))

    def class_coords(self, x: list[int]) -> list[int]:
        y = self.kernel.solve(x)
        if y is None:
            raise ArithmeticError("element outside the kernel lattice")
        return [zi % d for zi, d in zip(mat_vec(self._U, y), self.divisors)]

    def class_order_exponent(self, x: list[int], p: int) -> int:
        """log_p of the order of the class of x in K/(L + q·Z^n)."""
        return max(
            (_pval(d, p) - _pval(zi or d, p) for zi, d in zip(self.class_coords(x), self.divisors)),
            default=0,
        )

    def generator_of_largest_factor(self, p: int) -> list[int]:
        """A lattice vector whose class generates the largest cyclic
        factor; only meaningful when the quotient is cyclic."""
        gens = columns(mat_mul(self.kernel.basis, self._Uinv))
        exps = [self.class_order_exponent(col, p) for col in gens]
        j = max(range(len(exps)), key=lambda idx: exps[idx])
        return gens[j]


def quotient(kernel: KernelLattice, L: Matrix) -> QuotientPresentation:
    """Present K/(L + q·Z^n) for generator columns L inside K.

    In kernel coordinates q·Z^n is spanned by the relations (q/t_j)·e_j,
    which are appended to the coordinates of L, so every divisor divides q.
    """
    gens = []
    for col in columns(L):
        y = kernel.solve(col)
        if y is None:
            raise ArithmeticError("generator outside the kernel lattice")
        gens.append(y)
    q = kernel.modulus
    gens += [[q // t if r == j else 0 for r in range(kernel.dim)] for j, t in enumerate(kernel._t)]
    divisors, U, Uinv, _, _ = smith_mod_prime_power(from_columns(gens), kernel.p, q)
    return QuotientPresentation(kernel, tuple(divisors), U, Uinv)
