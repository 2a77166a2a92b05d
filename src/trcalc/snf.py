"""Smith normal form over the local ring Z/p^N, with transform tracking,
plus the lattice helpers the brute-force oracle needs: kernel lattices of
matrices modulo p^N and quotient presentations K/(L + p^N·Z^n).

Every matrix the oracle builds is reduced modulo q = p^N and every lattice
it forms contains q·Z^n, so each elementary divisor is a power of p
dividing q.  Pivoting on an entry of least p-valuation keeps all entries
reduced mod q, so there is no coefficient growth: the modulo-determinant
idea of Domich, Kannan and Trotter (1987), specialised to Z/p^N.

Matrices are row-major lists of ints, and their dimensions are small (up
to twice the number of orbit levels), so elimination is plain dense Python.
Repeated queries are cheaper than that: `KernelLattice.solve` reads only
the nonzero entries of its argument (a column of the oracle's first
differential has at most three), and a cyclic quotient reads the class of
a lattice vector through one precomputed functional
(`QuotientPresentation.class_functional`), a single dot product.

Elimination builds only what is read.  `smith_mod_prime_power`,
`kernel_mod` and `quotient` take a `transforms` tuple naming the
transforms to build; the divisors never depend on it.  A kernel whose
elements are only solved for asks for `("Vinv",)`, and one whose `basis`
is read asks for "V" as well.  A quotient whose exponents are all that is
read asks for `()`, one whose class coordinates are read asks for
`("U",)`, and `generator_of_largest_factor` needs `"Uinv"` and the
kernel's basis as well.  A kernel keeps the divisors of its matrix, so
the cokernel of the same matrix needs no second elimination.

The pivot search looks for a unit first, in row-major order, and
computes p-valuations only when the remaining block has none.
"""

from __future__ import annotations

from dataclasses import dataclass


Matrix = list[list[int]]


def eye(n: int) -> Matrix:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def mat_vec(A: Matrix, x: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def hstack(A: Matrix, B: Matrix) -> Matrix:
    return [ra + rb for ra, rb in zip(A, B)]


def columns(A: Matrix) -> list[list[int]]:
    return [list(col) for col in zip(*A)] if A else []


def _pval(a: int, p: int) -> int:
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def divisor_exponents(divisors, p: int) -> tuple[int, ...]:
    """Divisors as powers of p, largest first, trivial ones dropped."""
    return tuple(sorted((a for a in (_pval(d, p) for d in divisors) if a), reverse=True))


def _pivot(A: Matrix, t: int, p: int) -> tuple[int, int, int] | None:
    """(v, i, j) for the pivot of the block A[t:][t:]: its first unit in
    row-major order, else its first entry of least p-valuation v, or None
    when the block is zero.  Only the fallback computes valuations."""
    cols = len(A[0])
    for i in range(t, len(A)):
        row = A[i]
        for j in range(t, cols):
            if row[j] % p:
                return 0, i, j
    best = None
    for i in range(t, len(A)):
        row = A[i]
        for j in range(t, cols):
            if row[j]:
                v = _pval(row[j], p)
                if best is None or v < best[0]:
                    best = (v, i, j)
    return best


def smith_mod_prime_power(
    M: Matrix, p: int, q: int, transforms: tuple[str, ...] = ("U", "Uinv", "V", "Vinv")
) -> tuple[list[int], Matrix | None, Matrix | None, Matrix | None, Matrix | None]:
    """Elementary divisors and transforms of M over Z/q, q = p^N.

    Returns (divisors, U, Uinv, V, Vinv): U·M·V is congruent mod q to the
    matrix with divisors[t] at (t, t) and zeros elsewhere, and U·Uinv and
    V·Vinv are congruent to the identity.  There is one divisor per row,
    p^v with v < N or q (which reads as 0) where the remaining block
    vanishes mod q, in increasing order.  When the column lattice of M
    contains q·Z^rows, these are the integer elementary divisors of that
    lattice.  Only the transforms named in `transforms` are built; the
    others come back as None.  The divisors and the built transforms do
    not depend on which others are built.

    Each step pivots on an entry of least p-valuation v (`_pivot`) and
    scales its row so the pivot is p^v.  Every entry of the remaining block
    is then divisible by p^v, so the row operations below the pivot and the
    column operations right of it stay inside Z/q.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [[a % q for a in row] for row in M]
    # Uinv and V change by column operations, so they are kept transposed
    # (one list per column) and transposed back at the end
    U = eye(rows) if "U" in transforms else None
    UinvT = eye(rows) if "Uinv" in transforms else None
    VT = eye(cols) if "V" in transforms else None
    Vinv = eye(cols) if "Vinv" in transforms else None
    divisors = [q] * rows

    for t in range(min(rows, cols)):
        best = _pivot(A, t, p)
        if best is None:
            break  # remaining block is zero mod q: divisors stay q
        v, pi, pj = best
        if pi != t:
            A[pi], A[t] = A[t], A[pi]
            if U is not None:
                U[pi], U[t] = U[t], U[pi]
            if UinvT is not None:
                UinvT[pi], UinvT[t] = UinvT[t], UinvT[pi]
        if pj != t:
            for r in range(rows):
                A[r][pj], A[r][t] = A[r][t], A[r][pj]
            if VT is not None:
                VT[pj], VT[t] = VT[t], VT[pj]
            if Vinv is not None:
                Vinv[pj], Vinv[t] = Vinv[t], Vinv[pj]
        pk = p**v
        unit = A[t][t] // pk
        uinv = pow(unit, -1, q)
        A[t] = [a * uinv % q for a in A[t]]
        if U is not None:
            U[t] = [a * uinv % q for a in U[t]]
        if UinvT is not None:
            UinvT[t] = [a * unit % q for a in UinvT[t]]
        # row_i -= f * row_t, so Uinv's column t gains f * its column i
        for i in range(t + 1, rows):
            if A[i][t]:
                f = A[i][t] // pk
                A[i] = [(a - f * b) % q for a, b in zip(A[i], A[t])]
                if U is not None:
                    U[i] = [(a - f * b) % q for a, b in zip(U[i], U[t])]
                if UinvT is not None:
                    UinvT[t] = [(a + f * b) % q for a, b in zip(UinvT[t], UinvT[i])]
        # column t now holds only the pivot, so col_j -= f * col_t clears
        # row t and touches no other row; Vinv's row t gains f * its row j
        for j in range(t + 1, cols):
            if A[t][j]:
                f = A[t][j] // pk
                A[t][j] = 0
                if VT is not None:
                    VT[j] = [(a - f * b) % q for a, b in zip(VT[j], VT[t])]
                if Vinv is not None:
                    Vinv[t] = [(a + f * b) % q for a, b in zip(Vinv[t], Vinv[j])]
        divisors[t] = pk
    Uinv = None if UinvT is None else [list(r) for r in zip(*UinvT)]
    V = None if VT is None else [list(r) for r in zip(*VT)]
    return divisors, U, Uinv, V, Vinv


@dataclass
class KernelLattice:
    """K = {x : M x ≡ 0 mod q} inside Z^n, q = p^N.

    K contains q·Z^n.  The columns of `basis` = V·diag(t) span K modulo
    q·Z^n, and the coordinates of x in K are read through V⁻¹ mod q: the
    j-th is defined modulo q/t_j.  V⁻¹ is kept as its list of columns.
    `basis` is None when V was not built, and `_Vinv_cols` when V⁻¹ was
    not.  `divisors` are the elementary divisors of M over Z/q, one per
    row, from the same elimination: t_j = q/d_j.
    """

    basis: Matrix | None
    p: int
    modulus: int
    divisors: list[int]
    _Vinv_cols: list[list[int]] | None
    _t: list[int]

    @property
    def dim(self) -> int:
        return len(self._t)

    def solve(self, x: list[int]) -> list[int] | None:
        """Coordinates of x in the kernel basis; None if x is not in K.
        Only the nonzero entries of x are read."""
        acc = [0] * self.dim
        for v, col in zip(x, self._Vinv_cols):
            if v:
                acc = [a + v * c for a, c in zip(acc, col)]
        out = []
        for val, t in zip(acc, self._t):
            val %= self.modulus
            if val % t:
                return None
            out.append(val // t)
        return out


def kernel_mod(
    M: Matrix, p: int, q: int, transforms: tuple[str, ...] = ("V", "Vinv")
) -> KernelLattice:
    """Lattice of integer vectors x with M x ≡ 0 mod q, q = p^N.  Only the
    transforms named in `transforms` are built: "V" for `basis`, "Vinv"
    for `solve`."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    divisors, _, _, V, Vinv = smith_mod_prime_power(M, p, q, transforms)
    t = [q // d for d in divisors[:cols]] + [1] * (cols - rows)
    basis = None if V is None else [[a * f % q for a, f in zip(row, t)] for row in V]
    return KernelLattice(basis, p, q, divisors, None if Vinv is None else columns(Vinv), t)


@dataclass
class QuotientPresentation:
    """Finite p-group K/(L + q·Z^n) given by elementary divisors, with
    class coordinates for arbitrary lattice elements.  `_U` and `_Uinv`
    are None when `quotient` was not asked to build them."""

    kernel: KernelLattice
    divisors: tuple[int, ...]
    _U: Matrix | None
    _Uinv: Matrix | None

    def exponents(self, p: int) -> tuple[int, ...]:
        """Divisors as powers of p, largest first, trivial ones dropped."""
        return divisor_exponents(self.divisors, p)

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

    def generator_of_largest_factor(self) -> list[int]:
        """A lattice vector whose class generates the largest cyclic
        factor: U⁻¹·e_j maps to the j-th factor's generator e_j, so this is
        the column of basis·U⁻¹ at the largest divisor."""
        j = max(range(len(self.divisors)), key=self.divisors.__getitem__)
        q = self.kernel.modulus
        return [v % q for v in mat_vec(self.kernel.basis, [row[j] for row in self._Uinv])]

    def class_functional(self) -> "ClassFunctional":
        """The class coordinate of a cyclic quotient Z/d as one dot product.

        With j the one nontrivial divisor d, w = Σ_k U[j][k]·(q/t_k)·V⁻¹[k]
        mod q·d.  Row k of V⁻¹ reads t_k·y_k mod q for the kernel
        coordinates y of x, and U[j][k]·(q/t_k) ≡ 0 (mod d) because the
        relation (q/t_k)·e_k lies in L + q·Z^n, so w·x ≡ q·(U·y)[j]
        (mod q·d) for every x in K.
        """
        nontrivial = [j for j, d in enumerate(self.divisors) if d > 1]
        if len(nontrivial) != 1:
            raise ValueError(f"class functional needs a cyclic quotient, got divisors {self.divisors}")
        j = nontrivial[0]
        q, d = self.kernel.modulus, self.divisors[j]
        qd = q * d
        c = [u * (q // t) % qd for u, t in zip(self._U[j], self.kernel._t)]
        w = [sum(a * b for a, b in zip(c, col)) % qd for col in self.kernel._Vinv_cols]
        return ClassFunctional(w, q, d)


@dataclass(frozen=True)
class ClassFunctional:
    """Class coordinates on a cyclic K/(L + q·Z^n) ≅ Z/d: the class of x
    in K is ((w·x) mod q·d) // q.  Membership of x in K is not checked."""

    w: list[int]
    modulus: int
    d: int

    def coordinate(self, x: list[int]) -> int:
        return sum(a * b for a, b in zip(self.w, x)) % (self.modulus * self.d) // self.modulus


def quotient(
    kernel: KernelLattice, L: Matrix, transforms: tuple[str, ...] = ("U", "Uinv")
) -> QuotientPresentation:
    """Present K/(L + q·Z^n) for generator columns L inside K.

    In kernel coordinates q·Z^n is spanned by the relations (q/t_j)·e_j,
    which are appended to the coordinates of L, so every divisor divides q.
    Only the transforms named in `transforms` ("U", "Uinv") are built.
    """
    gens = []
    for col in columns(L):
        y = kernel.solve(col)
        if y is None:
            raise ArithmeticError("generator outside the kernel lattice")
        gens.append(y)
    q = kernel.modulus
    for j, t in enumerate(kernel._t):
        if t > 1:  # t = 1 gives the relation q·e_j, which is zero mod q
            rel = [0] * kernel.dim
            rel[j] = q // t
            gens.append(rel)
    G = [[col[r] for col in gens] for r in range(kernel.dim)]
    divisors, U, Uinv, _, _ = smith_mod_prime_power(G, kernel.p, q, transforms)
    return QuotientPresentation(kernel, tuple(divisors), U, Uinv)
