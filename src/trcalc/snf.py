"""Smith normal form over the local ring Z/p^N, with transform tracking,
plus the lattice helpers the brute-force oracle needs: kernel lattices of
matrices modulo p^N and quotient presentations K/(L + p^N·Z^n).

Every matrix the oracle builds is reduced modulo q = p^N and every lattice
it forms contains q·Z^n, so each elementary divisor is a power of p
dividing q.  Pivoting on an entry of least p-valuation keeps all entries
reduced mod q, so there is no coefficient growth: the modulo-determinant
idea of Domich, Kannan and Trotter (1987), specialised to Z/p^N.

Matrices come in as sparse rows and a column count: one {column: entry}
dict per row, its entries listed in ascending column order, and
elimination keeps each row's entries that are nonzero mod q.  The
oracle's d1 comes as rows of at most three entries and its d0 as columns
of at most three, so a step reads only the entries that are there.
The pivot search reads a row's entries in the order they are listed, so
rows in ascending column order get the pivots, and so the transforms, of
a row-major scan of the same matrix.  Pivots are recorded instead of
swapped into place, and the transforms come back sparse too (U and V⁻¹
as lists of rows, V as a list of columns; see `smith_mod_prime_power`).
`KernelLattice.solve` reads a sparse vector and only the columns of V⁻¹
its entries pick, and `quotient` takes its generators as sparse columns.
A cyclic quotient reads the class of a lattice vector through one
precomputed functional (`QuotientPresentation.class_functional`), a
single dot product.

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
`("Vinv",)`, and one whose basis is read asks for "V" as well.  A
quotient whose exponents are all that is read asks for `()`, and one whose
class functional or generator is read asks for `("U",)`.  A kernel keeps
the divisors of its matrix, so the cokernel of the same matrix needs no
second elimination.

The pivot search looks for a unit first, row by row, and computes
p-valuations only when the rows left have none.  The elimination itself
is row operations on the rows not yet pivoted on: they read only the
entries of the pivot row, V⁻¹ is read off the reduced pivot rows, and the
column operations that clear each pivot row run on V alone, only when V
is built.
"""

from __future__ import annotations

from dataclasses import dataclass


Sparse = dict[int, int]  # {index: entry}


def _pval(a: int, p: int) -> int:
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def divisor_exponents(divisors, p: int) -> tuple[int, ...]:
    """Divisors as powers of p, largest first, trivial ones dropped."""
    return tuple(sorted((a for a in (_pval(d, p) for d in divisors) if a), reverse=True))


def _pivot(active: dict[int, Sparse], p: int) -> tuple[int, int, int] | None:
    """(v, r, c) for the pivot among the rows not yet pivoted on: the first
    unit, reading row by row, else the first entry of least p-valuation v,
    or None when those rows are zero.  Only the fallback computes
    valuations."""
    for r, row in active.items():
        for c, a in row.items():
            if a % p:
                return 0, r, c
    best = None
    for r, row in active.items():
        for c, a in row.items():
            v = _pval(a, p)
            if best is None or v < best[0]:
                best = (v, r, c)
    return best


def _subtract(dst: Sparse, f: int, src: Sparse, q: int) -> None:
    """dst -= f·src mod q, in place, keeping only the nonzero entries."""
    for k, b in src.items():
        x = (dst.get(k, 0) - f * b) % q
        if x:
            dst[k] = x
        elif k in dst:
            del dst[k]


def smith_mod_prime_power(
    M: list[Sparse], cols: int, p: int, q: int, transforms: tuple[str, ...] = ("U", "V", "Vinv")
) -> tuple[list[int], list[Sparse] | None, list[Sparse] | None, list[Sparse] | None]:
    """Elementary divisors and transforms over Z/q, q = p^N, of the matrix
    M with `cols` columns, given as its sparse rows, each listing its
    entries in ascending column order; entries are read mod q, and the
    rows are not written to.

    Returns (divisors, U, V, Vinv), the transforms sparse: U and Vinv as
    lists of rows and V as a list of columns, each a {index: entry} dict
    of its entries nonzero mod q.  U and V are invertible mod q, U·M·V is
    congruent mod q to the matrix with divisors[t] at (t, t) and zeros
    elsewhere, and V·Vinv is congruent to the identity.  There is one
    divisor per row, p^v with v < N or q (which reads as 0) where the rows
    left vanish mod q, in increasing order.  When the column lattice of M
    contains q·Z^rows, these are the integer elementary divisors of that
    lattice.  Only the transforms named in `transforms` are built; the
    others come back as None.  The divisors and the built transforms do
    not depend on which others are built.

    Step t pivots on an entry of least p-valuation v (`_pivot`), at row r_t
    and column c_t of M, among the rows not yet pivoted on, and scales its
    row so the pivot is p^v.  Every entry of those rows is then divisible
    by p^v, so the row operations that clear column c_t from them stay
    inside Z/q; they read only the entries of the pivot row.  Nothing is
    swapped: position t of the result is row r_t and column c_t of M, and
    the positions past the last pivot hold the rows and the columns never
    pivoted on, the columns in order.  A row not yet pivoted on has no
    entry in an earlier pivot column, so the pivot row's entries lie in
    columns not pivoted on before.  Column operations
    col_j -= f·col_(c_t), f = A[r_t][j]/p^v, would then clear row r_t.
    They touch no other row, and no later step reads row r_t, so they are
    applied to V alone, and only when V is built.  They would add f times
    row j of V⁻¹ to its row t, and the rows of the columns not yet pivoted
    on are still unit vectors at step t, so row t of V⁻¹ is the scaled
    pivot row divided by p^v.  The rows past the last pivot are the unit
    vectors of the columns never pivoted on.
    """
    rows = len(M)
    # the rows not yet pivoted on, by row of M
    active = {r: {j: a % q for j, a in row.items() if a % q} for r, row in enumerate(M)}
    U = {r: {r: 1} for r in range(rows)} if "U" in transforms else None
    V = {j: {j: 1} for j in range(cols)} if "V" in transforms else None  # columns, by column of M
    Vinv = [] if "Vinv" in transforms else None
    pivot_rows, pivot_cols = [], []
    divisors = [q] * rows

    for t in range(min(rows, cols)):
        best = _pivot(active, p)
        if best is None:
            break  # the rows left are zero mod q: divisors stay q
        v, r, c = best
        prow = active.pop(r)
        pk = p**v
        if prow[c] != pk:
            uinv = pow(prow[c] // pk, -1, q)
            prow = {j: a * uinv % q for j, a in prow.items()}
            if U is not None:
                U[r] = {k: a * uinv % q for k, a in U[r].items()}
        for i, row in active.items():
            a = row.get(c)
            if a:
                f = a // pk
                _subtract(row, f, prow, q)
                if U is not None:
                    _subtract(U[i], f, U[r], q)
        if V is not None:
            vc = V[c]
            for j, a in prow.items():
                if j != c:
                    _subtract(V[j], a // pk, vc, q)
        if Vinv is not None:
            Vinv.append(prow if v == 0 else {j: a // pk for j, a in prow.items()})
        pivot_rows.append(r)
        pivot_cols.append(c)
        divisors[t] = pk
    rest = sorted(set(range(cols)).difference(pivot_cols))
    if U is not None:
        U = [U[r] for r in pivot_rows + list(active)]
    if V is not None:
        V = [V[j] for j in pivot_cols + rest]
    if Vinv is not None:
        Vinv += [{j: 1} for j in rest]
    return divisors, U, V, Vinv


@dataclass
class KernelLattice:
    """K = {x : M x ≡ 0 mod q} inside Z^n, q = p^N.

    K contains q·Z^n.  In the coordinates y = V⁻¹x of the elimination, x
    lies in K exactly when y_j ≡ 0 mod t_j for every j, with t_j = q/d_j
    for the row divisor d_j and t_j = 1 past the last row.  A coordinate
    with d_j = 1 has t_j = q: it vanishes mod q on all of K, so it carries
    nothing, and only the coordinates with t_j < q are kept.  `t` holds
    their t_j and `dim` counts them.  Their columns V_j·t_j span K modulo
    q·Z^n (a dropped column V_j·q is ≡ 0), and the coordinates of x in K
    are y_j/t_j, each defined modulo q/t_j.  The kept columns of V stay
    sparse: `basis_column(k)` writes one basis column out.  V⁻¹ is kept
    as its n sparse columns, one per entry of x, each keyed by coordinate:
    the kept ones first, in order, then the dropped ones, so `solve` still
    checks that the dropped coordinates of x vanish mod q.  `_V_cols` is
    None when V was not built, and `_Vinv_cols` when V⁻¹ was not.
    `divisors` are all the elementary divisors of M over Z/q, one per row,
    from the same elimination.
    """

    n: int
    p: int
    modulus: int
    divisors: list[int]
    t: list[int]
    _V_cols: list[Sparse] | None
    _Vinv_cols: list[Sparse] | None

    @property
    def dim(self) -> int:
        return len(self.t)

    def basis_column(self, k: int) -> list[int]:
        """Basis column k, V_k·t_k mod q, as a dense vector."""
        col = [0] * self.n
        t, q = self.t[k], self.modulus
        for r, a in self._V_cols[k].items():
            col[r] = a * t % q
        return col

    def solve(self, x: Sparse) -> list[int] | None:
        """Coordinates of the sparse vector x in the kernel basis; None if
        x is not in K.  Only the entries of x, and the columns of V⁻¹ they
        pick, are read."""
        acc = [0] * self.n
        Vinv_cols = self._Vinv_cols
        for i, v in x.items():
            for j, a in Vinv_cols[i].items():
                acc[j] += v * a
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
    M: list[Sparse], cols: int, p: int, q: int, transforms: tuple[str, ...] = ("V", "Vinv")
) -> KernelLattice:
    """Lattice of integer vectors x with M x ≡ 0 mod q, q = p^N, for M
    with `cols` columns given as sparse rows (`smith_mod_prime_power`), on
    its coordinates with t_j < q (see `KernelLattice`).  Only the
    transforms named in `transforms` are built: "V" for the basis, "Vinv"
    for `solve`."""
    rows = len(M)
    divisors, _, V, Vinv = smith_mod_prime_power(M, cols, p, q, transforms)
    t_all = [q // d for d in divisors[:cols]] + [1] * (cols - rows)
    keep = [j for j, t in enumerate(t_all) if t < q]
    dropped = [j for j, t in enumerate(t_all) if t == q]
    Vinv_cols = None
    if Vinv is not None:
        Vinv_cols = [{} for _ in range(cols)]
        for k, j in enumerate(keep + dropped):
            for c, a in Vinv[j].items():
                Vinv_cols[c][k] = a
    V_cols = None if V is None else [V[j] for j in keep]
    return KernelLattice(cols, p, q, divisors, [t_all[j] for j in keep], V_cols, Vinv_cols)


@dataclass
class QuotientPresentation:
    """Finite p-group K/(L + q·Z^n) given by elementary divisors.  A
    cyclic one reads the class of a lattice element through
    `class_functional`, and names a basis column that generates it through
    `generator_coordinate`.  `coords` holds the kernel coordinates Y of the
    columns of L as sparse rows, one per kept coordinate of the kernel,
    keyed by column of L.  `_U` holds
    the sparse rows of U, and is None when `quotient` was not asked to
    build it."""

    kernel: KernelLattice
    coords: list[Sparse]
    divisors: tuple[int, ...]
    _U: list[Sparse] | None

    def exponents(self) -> tuple[int, ...]:
        """Divisors as powers of the kernel's prime, largest first, trivial
        ones dropped."""
        return divisor_exponents(self.divisors, self.kernel.p)

    def _cyclic_row(self) -> int:
        """The one row j with a nontrivial divisor; ValueError when the
        quotient is not cyclic."""
        nontrivial = [j for j, d in enumerate(self.divisors) if d > 1]
        if len(nontrivial) != 1:
            raise ValueError(f"class functional needs a cyclic quotient, got divisors {self.divisors}")
        return nontrivial[0]

    def class_functional(self) -> "ClassFunctional":
        """The class coordinate of a cyclic quotient Z/d as one dot product.

        With j the one nontrivial divisor d, w = Σ_k U[j][k]·(q/t_k)·V⁻¹[k]
        mod q·d over the kept coordinates k.  Row k of V⁻¹ reads t_k·y_k
        mod q for the kernel coordinates y of x, and U[j][k]·(q/t_k) ≡ 0
        (mod d) because the relation (q/t_k)·e_k lies in L + q·Z^n, so
        w·x ≡ q·(U·y)[j] (mod q·d) for every x in K.  Only the entries of
        U[j], at kept coordinates, are read, so the dropped rows of V⁻¹
        add nothing.
        """
        j = self._cyclic_row()
        kernel = self.kernel
        q, d = kernel.modulus, self.divisors[j]
        qd = q * d
        c = [0] * kernel.n
        for k, u in self._U[j].items():
            c[k] = u * (q // kernel.t[k]) % qd
        w = [sum(c[k] * a for k, a in col.items()) % qd for col in kernel._Vinv_cols]
        return ClassFunctional(w, q, d)

    def generator_coordinate(self) -> int | None:
        """The first kernel coordinate k whose basis column generates the
        cyclic quotient Z/d, or None when there is none.  Basis column k has
        kernel coordinates e_k, so its class is U[j][k] mod d
        (`class_functional`), a generator exactly when it is a unit mod p."""
        j = self._cyclic_row()
        p = self.kernel.p
        return min((k for k, u in self._U[j].items() if u % p), default=None)


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
    kernel: KernelLattice, L: list[Sparse], transforms: tuple[str, ...] = ("U",)
) -> QuotientPresentation:
    """Present K/(L + q·Z^n) for generators inside K, given as the sparse
    columns L.

    G holds the kernel coordinates Y of L as sparse rows, one per kept
    coordinate of K, and after them the relations (q/t_j)·e_j that span
    q·Z^n in those coordinates, one column for each t_j > 1, so every
    divisor divides q.  A kernel whose kept t_j are all 1 adds no
    relation: G is Y, `dim`×`dim` when L has `dim` columns.  U is built
    only when `transforms` names "U".
    """
    Y: list[Sparse] = [{} for _ in range(kernel.dim)]
    for c, col in enumerate(L):
        y = kernel.solve(col)
        if y is None:
            raise ArithmeticError("generator outside the kernel lattice")
        for row, v in zip(Y, y):
            if v:
                row[c] = v
    q, cols = kernel.modulus, len(L)
    G = []
    for row, t in zip(Y, kernel.t):
        if t > 1:
            row = {**row, cols: q // t}
            cols += 1
        G.append(row)
    divisors, U, _, _ = smith_mod_prime_power(G, cols, kernel.p, q, transforms)
    return QuotientPresentation(kernel, Y, tuple(divisors), U)
