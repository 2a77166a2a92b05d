"""Smith normal form over the integers, with transform tracking, plus the
lattice helpers the brute-force oracle needs: kernel lattices modulo p^N,
quotient presentations K/L, and exact membership solves.

Matrices are dense row-major lists of arbitrary-precision ints.  Dimensions
here are tiny (a handful of orbit levels), so clarity wins over asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


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


def mat_mod(A: Matrix, modulus: int) -> Matrix:
    return [[a % modulus for a in row] for row in A]


def hstack(A: Matrix, B: Matrix) -> Matrix:
    return [ra + rb for ra, rb in zip(A, B)]


def columns(A: Matrix) -> list[list[int]]:
    return [list(col) for col in zip(*A)] if A else []


def from_columns(cols: list[list[int]]) -> Matrix:
    return [list(row) for row in zip(*cols)] if cols else []


def scale_cols(A: Matrix, factors: list[int]) -> Matrix:
    return [[a * f for a, f in zip(row, factors)] for row in A]


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


def smith_normal_form(M: Matrix) -> SNFResult:
    """Elementary divisors of an integer matrix."""
    if not M or not M[0]:
        return SNFResult(())
    dec = smith_with_transforms(M)
    return SNFResult(tuple(dec.diagonal()))


def solve_in_lattice(gen: Matrix, v: list[int]) -> list[int] | None:
    """Integer coefficients z with gen @ z = v, or None if v is outside the
    column lattice of gen."""
    dec = smith_with_transforms(gen)
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


@dataclass
class QuotientPresentation:
    """Finite abelian group K/L given by elementary divisors, with class
    coordinates for arbitrary lattice elements."""

    kernel: KernelLattice
    divisors: tuple[int, ...]
    _U: Matrix
    _Uinv: Matrix

    def nontrivial_divisors(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d != 1)

    def exponents(self, p: int) -> tuple[int, ...]:
        """Divisors as powers of p, largest first; fails if any divisor is
        not a p-power (which would mean the quotient is not p-primary)."""
        out = []
        for d in self.divisors:
            a = 0
            while d % p == 0:
                d //= p
                a += 1
            if d != 1:
                raise ArithmeticError("quotient has non-p-power divisor")
            if a:
                out.append(a)
        return tuple(sorted(out, reverse=True))

    def class_coords(self, x: list[int]) -> list[int]:
        y = self.kernel.solve(x)
        if y is None:
            raise ArithmeticError("element outside the kernel lattice")
        z = mat_vec(self._U, y)
        return [zi % d if d else zi for zi, d in zip(z, self.divisors)]

    def class_order_exponent(self, x: list[int], p: int) -> int:
        """log_p of the order of the class of x in K/L."""
        best = 0
        for zi, d in zip(self.class_coords(x), self.divisors):
            if d == 0:
                raise ArithmeticError("quotient is not finite")
            ordr = d // gcd(zi, d)
            a = 0
            while ordr % p == 0:
                ordr //= p
                a += 1
            if ordr != 1:
                raise ArithmeticError("class order is not a p-power")
            best = max(best, a)
        return best

    def generator_of_largest_factor(self, p: int) -> list[int]:
        """A lattice vector whose class generates the largest cyclic
        factor; only meaningful when the quotient is cyclic."""
        gens = columns(mat_mul(self.kernel.basis, self._Uinv))
        exps = [self.class_order_exponent(col, p) for col in gens]
        j = max(range(len(exps)), key=lambda idx: exps[idx])
        return gens[j]


def smith_mod_prime_power(M: Matrix, p: int, q: int) -> tuple[list[int], Matrix, Matrix]:
    """Elementary divisors and row transforms of M over Z/q, q = p^N.

    Valid when the column lattice of M contains q·Z^rows, so every divisor
    divides q.  Pivoting on the entry of least p-valuation keeps all
    entries reduced mod q, avoiding the coefficient growth of the exact
    integer algorithm.  Returns (divisors, U, Uinv) with U·M congruent to
    the diagonal mod q after column operations; U is unimodular mod q.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [[a % q for a in row] for row in M]
    U, Uinv = eye(rows), eye(rows)
    divisors = [q] * rows

    def pval(a: int) -> int:
        v = 0
        while a % p == 0:
            a //= p
            v += 1
        return v

    for t in range(min(rows, cols)):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = A[i][j]
                if a:
                    v = pval(a)
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
        pk = p**v
        unit = A[t][t] // pk
        uinv = pow(unit, -1, q)
        A[t] = [a * uinv % q for a in A[t]]
        U[t] = [a * uinv % q for a in U[t]]
        for r in range(rows):
            Uinv[r][t] = Uinv[r][t] * unit % q
        # v is minimal, so every entry below the pivot is divisible by p^v
        for i in range(t + 1, rows):
            if A[i][t]:
                f = A[i][t] // pk
                A[i] = [(a - f * b) % q for a, b in zip(A[i], A[t])]
                U[i] = [(a - f * b) % q for a, b in zip(U[i], U[t])]
                for r in range(rows):
                    Uinv[r][t] = (Uinv[r][t] + f * Uinv[r][i]) % q
        # column t now has a single nonzero entry, so clearing row t by
        # column operations touches no other row
        for j in range(t + 1, cols):
            A[t][j] = 0
        divisors[t] = pk % q if pk % q else q
    return divisors, U, Uinv


def quotient(kernel: KernelLattice, L: Matrix, modulus_p: tuple[int, int] | None = None) -> QuotientPresentation:
    """Present K/L for a sublattice L of K given by generator columns.

    When L is known to contain modulus·Z^n (pass modulus_p = (p, p^N)),
    the divisors all divide p^N and the presentation is computed by the
    fast mod-p^N routine instead of exact integer Smith reduction.
    """
    M = kernel.solve_matrix(L)
    if modulus_p is not None:
        p, q = modulus_p
        divisors, U, Uinv = smith_mod_prime_power(M, p, q)
        return QuotientPresentation(kernel, tuple(divisors), U, Uinv)
    dec = smith_with_transforms(M)
    diag = dec.diagonal()
    divisors = []
    for j in range(kernel.dim):
        divisors.append(diag[j] if j < len(diag) else 0)
    return QuotientPresentation(kernel, tuple(divisors), dec.U, dec.Uinv)
