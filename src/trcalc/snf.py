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

A kernel keeps only its nontrivial coordinates.  In the coordinates
y = V⁻¹x of the elimination of M, a row divisor d_j = 1 forces y_j ≡ 0
mod q on the whole kernel, so that coordinate and its basis column
(≡ 0 mod q) are dropped; `solve` still reads the dropped rows of V⁻¹, so
membership checks every coordinate.  When an n×2n matrix is onto mod q,
as the oracle's d1 is on its fibers, its kernel keeps n of the 2n
coordinates, all with t_j = 1, and the quotient under H¹ is n×n.  The
quotient keeps the kernel coordinates Y of its generators L:
L ≡ basis·Y = V·diag(t)·Y on the kept coordinates, and V is invertible
mod q, so the divisors of L below q are those of diag(t)·Y, and those of
the quotient itself when every kept t_j is 1.  A kernel records the prime
of its modulus, and its quotients read their exponents as powers of it.

Elimination builds only what is read.  `smith_mod_prime_power`,
`kernel_mod` and `quotient` take a `transforms` tuple naming the
transforms to build, out of "U", "V" and "Vinv"; the divisors never
depend on it.  A kernel whose elements are only solved for asks for
`("Vinv",)`, and one whose `basis` is read asks for "V" as well.  A
quotient whose exponents are all that is read asks for `()`, and one whose
class functional is read asks for `("U",)`.  A kernel keeps the divisors
of its matrix, so the cokernel of the same matrix needs no second
elimination.

The pivot search looks for a unit first, in row-major order, and
computes p-valuations only when the remaining block has none.  The
elimination itself is row operations: they read only the nonzero columns
of the pivot row, V⁻¹ is read off the reduced pivot rows, and the column
operations that clear each pivot row run on V alone, only when V is built
(see `smith_mod_prime_power`).
"""

from __future__ import annotations

from dataclasses import dataclass


Matrix = list[list[int]]


def eye(n: int) -> Matrix:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


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
    M: Matrix, p: int, q: int, transforms: tuple[str, ...] = ("U", "V", "Vinv")
) -> tuple[list[int], Matrix | None, Matrix | None, Matrix | None]:
    """Elementary divisors and transforms of M over Z/q, q = p^N.

    Returns (divisors, U, V, Vinv): U and V are invertible mod q, U·M·V is
    congruent mod q to the matrix with divisors[t] at (t, t) and zeros
    elsewhere, and V·Vinv is congruent to the identity.  There is one
    divisor per row, p^v with v < N or q (which reads as 0) where the
    remaining block vanishes mod q, in increasing order.  When the column
    lattice of M contains q·Z^rows, these are the integer elementary
    divisors of that lattice.  Only the transforms named in `transforms`
    are built; the others come back as None.  The divisors and the built
    transforms do not depend on which others are built.

    Each step pivots on an entry of least p-valuation v (`_pivot`) and
    scales its row so the pivot is p^v.  Every entry of the remaining block
    is then divisible by p^v, so the row operations below the pivot stay
    inside Z/q; they read only the nonzero columns of the pivot row.
    Column operations col_j -= f·col_t, f = A[t][j]/p^v, would then clear
    row t.  They touch no other row, and no later step reads row t, so
    they are applied to V alone, and only when V is built.  They would add
    f times row j of V⁻¹ to its row t, and rows j > t are still the unit
    vectors of the column permutation at step t, so row t of V⁻¹ is the
    scaled pivot row divided by p^v, read at the original columns.  Rows
    past the last pivot are the unit vectors of the final permutation.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    A = [[a % q for a in row] for row in M]
    # V changes by column operations, so it is kept transposed (one list
    # per column) and transposed back at the end; orig[j] is the column of
    # M now at position j
    U = eye(rows) if "U" in transforms else None
    VT = eye(cols) if "V" in transforms else None
    Vinv = [] if "Vinv" in transforms else None
    orig = list(range(cols))
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
        if pj != t:
            for r in range(t, rows):
                A[r][pj], A[r][t] = A[r][t], A[r][pj]
            orig[pj], orig[t] = orig[t], orig[pj]
            if VT is not None:
                VT[pj], VT[t] = VT[t], VT[pj]
        pk = p**v
        uinv = pow(A[t][t] // pk, -1, q)
        prow = A[t] = [a * uinv % q for a in A[t]]
        nz = [j for j in range(t, cols) if prow[j]]
        if U is not None:
            U[t] = [a * uinv % q for a in U[t]]
        for i in range(t + 1, rows):
            row = A[i]
            if row[t]:
                f = row[t] // pk
                for j in nz:
                    row[j] = (row[j] - f * prow[j]) % q
                if U is not None:
                    U[i] = [(a - f * b) % q for a, b in zip(U[i], U[t])]
        if VT is not None:
            for j in nz[1:]:
                f = prow[j] // pk
                VT[j] = [(a - f * b) % q for a, b in zip(VT[j], VT[t])]
        if Vinv is not None:
            vrow = [0] * cols
            for j in nz:
                vrow[orig[j]] = prow[j] // pk
            Vinv.append(vrow)
        divisors[t] = pk
    if Vinv is not None:
        Vinv += [[0] * j + [1] + [0] * (cols - 1 - j) for j in orig[len(Vinv) :]]
    V = None if VT is None else [list(r) for r in zip(*VT)]
    return divisors, U, V, Vinv


@dataclass
class KernelLattice:
    """K = {x : M x ≡ 0 mod q} inside Z^n, q = p^N.

    K contains q·Z^n.  In the coordinates y = V⁻¹x of the elimination, x
    lies in K exactly when y_j ≡ 0 mod t_j for every j, with t_j = q/d_j
    for the row divisor d_j and t_j = 1 past the last row.  A coordinate
    with d_j = 1 has t_j = q: it vanishes mod q on all of K, so it carries
    nothing, and only the coordinates with t_j < q are kept.  Their
    columns `basis` = V·diag(t) span K modulo q·Z^n (a dropped column
    V_j·q is ≡ 0), `t` holds their t_j, and `dim` counts them; the
    coordinates of x in K are y_j/t_j, each defined modulo q/t_j.  V⁻¹,
    whose rows are the reduced pivot rows of the elimination and unit
    vectors past them, is kept as its list of columns, each holding the
    kept rows first and the dropped ones after: `solve` still checks that
    the dropped coordinates of x vanish mod q.  `basis` is None when V was
    not built, and `_Vinv_cols` when V⁻¹ was not.  `divisors` are all the elementary
    divisors of M over Z/q, one per row, from the same elimination.
    """

    basis: Matrix | None
    p: int
    modulus: int
    divisors: list[int]
    _Vinv_cols: list[list[int]] | None
    t: list[int]

    @property
    def dim(self) -> int:
        return len(self.t)

    def solve(self, x: list[int]) -> list[int] | None:
        """Coordinates of x in the kernel basis; None if x is not in K.
        Only the nonzero entries of x are read."""
        acc = [0] * len(x)
        for v, col in zip(x, self._Vinv_cols):
            if v:
                acc = [a + v * c for a, c in zip(acc, col)]
        q = self.modulus
        if any(val % q for val in acc[self.dim :]):
            return None
        out = []
        for val, t in zip(acc, self.t):
            val %= q
            if val % t:
                return None
            out.append(val // t)
        return out


def kernel_mod(
    M: Matrix, p: int, q: int, transforms: tuple[str, ...] = ("V", "Vinv")
) -> KernelLattice:
    """Lattice of integer vectors x with M x ≡ 0 mod q, q = p^N, on its
    coordinates with t_j < q (see `KernelLattice`).  Only the transforms
    named in `transforms` are built: "V" for `basis`, "Vinv" for `solve`."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    divisors, _, V, Vinv = smith_mod_prime_power(M, p, q, transforms)
    t_all = [q // d for d in divisors[:cols]] + [1] * (cols - rows)
    keep = [j for j, t in enumerate(t_all) if t < q]
    t = [t_all[j] for j in keep]
    basis = None if V is None else [[row[j] * f % q for j, f in zip(keep, t)] for row in V]
    dropped = [j for j, f in enumerate(t_all) if f == q]
    Vinv_cols = None if Vinv is None else columns([Vinv[j] for j in keep + dropped])
    return KernelLattice(basis, p, q, divisors, Vinv_cols, t)


@dataclass
class QuotientPresentation:
    """Finite p-group K/(L + q·Z^n) given by elementary divisors.  A
    cyclic one reads the class of a lattice element through
    `class_functional`.  `coords` holds the kernel coordinates Y of the
    columns of L, one row per kept coordinate of the kernel.  `_U` is None
    when `quotient` was not asked to build it."""

    kernel: KernelLattice
    coords: Matrix
    divisors: tuple[int, ...]
    _U: Matrix | None

    def exponents(self) -> tuple[int, ...]:
        """Divisors as powers of the kernel's prime, largest first, trivial
        ones dropped."""
        return divisor_exponents(self.divisors, self.kernel.p)

    def class_functional(self) -> "ClassFunctional":
        """The class coordinate of a cyclic quotient Z/d as one dot product.

        With j the one nontrivial divisor d, w = Σ_k U[j][k]·(q/t_k)·V⁻¹[k]
        mod q·d over the kept coordinates k.  Row k of V⁻¹ reads t_k·y_k
        mod q for the kernel coordinates y of x, and U[j][k]·(q/t_k) ≡ 0
        (mod d) because the relation (q/t_k)·e_k lies in L + q·Z^n, so
        w·x ≡ q·(U·y)[j] (mod q·d) for every x in K.  The dropped rows of
        V⁻¹, which follow the kept ones, are not read.
        """
        nontrivial = [j for j, d in enumerate(self.divisors) if d > 1]
        if len(nontrivial) != 1:
            raise ValueError(f"class functional needs a cyclic quotient, got divisors {self.divisors}")
        j = nontrivial[0]
        q, d = self.kernel.modulus, self.divisors[j]
        qd = q * d
        c = [u * (q // t) % qd for u, t in zip(self._U[j], self.kernel.t)]
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
    kernel: KernelLattice, L: Matrix, transforms: tuple[str, ...] = ("U",)
) -> QuotientPresentation:
    """Present K/(L + q·Z^n) for generator columns L inside K.

    G holds the kernel coordinates Y of L, one row per kept coordinate of
    K, and beside them the relations (q/t_j)·e_j that span q·Z^n in those
    coordinates, one for each t_j > 1, so every divisor divides q.  A
    kernel whose kept t_j are all 1 adds no relation: G is Y, `dim`×`dim`
    when L has `dim` columns.  U is built only when `transforms` names
    "U".
    """
    coords = []
    for col in columns(L):
        y = kernel.solve(col)
        if y is None:
            raise ArithmeticError("generator outside the kernel lattice")
        coords.append(y)
    q = kernel.modulus
    Y = [[y[r] for y in coords] for r in range(kernel.dim)]
    relations = [j for j, t in enumerate(kernel.t) if t > 1]
    G = [row + [q // kernel.t[r] if r == j else 0 for j in relations] for r, row in enumerate(Y)]
    divisors, U, _, _ = smith_mod_prime_power(G, kernel.p, q, transforms)
    return QuotientPresentation(kernel, Y, tuple(divisors), U)
