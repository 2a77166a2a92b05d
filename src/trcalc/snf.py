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
swapped into place, and the transforms come back sparse too: U as a list
of rows, and V⁻¹, the one change of basis on the column side, as its rows
keyed by the column each one pivots on (see `smith_mod_prime_power`).
`KernelLattice.solve` reads a sparse vector, only the columns of V⁻¹
its entries pick, and only the positions those columns reach, and hands
back the coordinates it finds nonzero as a sparse vector too; `quotient`
takes its generators as sparse columns and writes each one's coordinates
straight into the rows of Y.  A cyclic quotient reads the class of a
lattice vector through one precomputed functional
(`QuotientPresentation.class_functional`), a single dot product, built
from the kernel's kept rows of V⁻¹ that its U row picks.

A kernel keeps only its nontrivial coordinates.  In the coordinates
y = V⁻¹x of the elimination of M, a row divisor d_j = 1 forces y_j ≡ 0
mod q on the whole kernel, so that coordinate and its basis column
(≡ 0 mod q) are dropped; `solve` still reads the dropped rows of V⁻¹, so
membership checks every coordinate.  The basis is never stored: V⁻¹ is
unit upper triangular in pivot order, so `KernelLattice.basis_column`
writes a column of V·diag(t) out by back-substitution over the columns of
V⁻¹ that `solve` reads; the rows of V⁻¹ at the kept positions are kept
as well, for the class functional.  When an n×2n matrix is onto mod q,
as the oracle's d1 is on its fibers, its kernel keeps n of the 2n
coordinates, all with t_j = 1, each kept row of V⁻¹ is the unit vector of
a column never pivoted on, and the quotient under H¹ is n×n.  The
quotient keeps the kernel coordinates Y of its generators L:
L ≡ basis·Y = V·diag(t)·Y on the kept coordinates, and V⁻¹ is invertible
mod q, so the divisors of L below q are those of diag(t)·Y, and those of
the quotient itself when every kept t_j is 1.  A kernel records the prime
of its modulus, and its quotients read their exponents as powers of it.
A kernel keeps the divisors of its matrix, so the cokernel of the same
matrix needs no second elimination.

The pivot search scans for a unit first, row by row, inside the
elimination loop, and computes p-valuations (`_pivot`) only when the rows
left have none.  Each input entry is reduced mod q once.  The elimination
itself is row operations on the rows not yet pivoted on: they read only
the entries of the pivot row, and V⁻¹ is read off the reduced pivot rows.
U is the one transform a caller may go without: a quotient whose
exponents are all that is read does not build it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul


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
    """(v, r, c) for the first entry of least p-valuation v among the rows
    not yet pivoted on, reading row by row, or None when those rows are
    zero: the fallback of the engine's unit scan, read only when those rows
    hold no unit."""
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
    M: list[Sparse], cols: int, p: int, q: int, build_u: bool = True
) -> tuple[list[int], list[Sparse] | None, dict[int, Sparse]]:
    """Elementary divisors and transforms over Z/q, q = p^N, of the matrix
    M with `cols` columns, given as its sparse rows, each listing its
    entries in ascending column order; entries are read mod q, and the
    rows are not written to.

    Returns (divisors, U, Vinv), the transforms sparse, each vector a
    {index: entry} dict of its entries nonzero mod q: U as a list of rows,
    and Vinv as its rows keyed by column of M, in position order.  U and
    Vinv are invertible mod q, and U·M is congruent mod q to D·Vinv, D the
    matrix with divisors[t] at (t, t) and zeros elsewhere.  There is one
    divisor per row, p^v with v < N or q (which reads as 0) where the rows
    left vanish mod q, in increasing order.  When the column lattice of M
    contains q·Z^rows, these are the integer elementary divisors of that
    lattice.  U is built only when `build_u` is set, and comes back as
    None otherwise; the divisors and Vinv do not depend on it.

    Step t pivots on the first unit, reading row by row, or, when those
    rows hold none, on an entry of least p-valuation v (`_pivot`), at row r_t
    and column c_t of M, among the rows not yet pivoted on, and scales its
    row so the pivot is p^v.  Every entry of those rows is then divisible
    by p^v, so the row operations that clear column c_t from them stay
    inside Z/q; they read only the entries of the pivot row.  Nothing is
    swapped: position t of the result is row r_t and column c_t of M, and
    the positions past the last pivot hold the rows and the columns never
    pivoted on, the columns in order.  Row t of U·M is the scaled pivot
    row, which no later step changes, and the rows past the last pivot
    vanish mod q.  Row t of Vinv, keyed by c_t, is that pivot row divided
    by p^v, and the rows past the last pivot are the unit vectors of the
    columns never pivoted on, so U·M ≡ D·Vinv.  A row not yet pivoted on
    has no entry in an earlier pivot column, so in position order Vinv is
    unit upper triangular: row t has 1 at c_t and no entry in an earlier
    pivot column.  Hence Vinv is invertible mod q, and U·M·V ≡ D for its
    inverse V.
    """
    rows = len(M)
    # the rows not yet pivoted on, by row of M
    active = {r: {j: b for j, a in row.items() if (b := a % q)} for r, row in enumerate(M)}
    U = {r: {r: 1} for r in range(rows)} if build_u else None
    Vinv: dict[int, Sparse] = {}
    pivot_rows = []
    divisors = [q] * rows

    for t in range(min(rows, cols)):
        # the first unit, reading row by row, else `_pivot`'s valuations
        for r, prow in active.items():
            for c, a in prow.items():
                if a % p:
                    break
            else:
                continue
            v = 0
            break
        else:
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
        Vinv[c] = prow if v == 0 else {j: a // pk for j, a in prow.items()}
        pivot_rows.append(r)
        divisors[t] = pk
    for j in range(cols):
        if j not in Vinv:
            Vinv[j] = {j: 1}
    if U is not None:
        U = [U[r] for r in pivot_rows + list(active)]
    return divisors, U, Vinv


@dataclass
class KernelLattice:
    """K = {x : M x ≡ 0 mod q} inside Z^n, q = p^N.

    K contains q·Z^n.  In the coordinates y = V⁻¹x of the elimination, x
    lies in K exactly when y_j ≡ 0 mod t_j at every position j, with
    t_j = q/d_j for the row divisor d_j and t_j = 1 past the last row.  A
    position with d_j = 1 has t_j = q: y_j vanishes mod q on all of K, so
    it carries nothing.  These are the unit pivots, which the elimination
    takes first, so the first n - `dim` positions are dropped and the rest
    kept: `t` holds the kept t_j, and kernel coordinate k is position
    n - dim + k.  The columns V_j·t_j of the kept positions span K modulo
    q·Z^n (a dropped column V_j·q is ≡ 0), and the coordinates of x in K
    are y_j/t_j, each defined modulo q/t_j.

    V⁻¹ is the one change of basis kept, as its n sparse columns, one per
    entry of x, each keyed by position; `_order[j]` is the column of M at
    position j.  `solve` reads the columns its x picks and accumulates
    V⁻¹·x only at the positions they reach, the dropped ones included, so
    it still checks that the dropped coordinates of x vanish mod q.  V is
    never formed: column `_order[j]` of V⁻¹ has 1 at position j and no
    entry past it, so `basis_column(k)` solves V⁻¹·x ≡ t_k·e_k by
    back-substitution over these columns.  `_kept_rows[k]` is the row of
    V⁻¹ at the position of kernel coordinate k, keyed by column of M, which
    the class functional of a quotient reads (`QuotientPresentation.
    class_functional`).  `divisors` are all the elementary divisors of M
    over Z/q, one per row, from the same elimination.
    """

    n: int
    p: int
    modulus: int
    divisors: list[int]
    t: list[int]
    _Vinv_cols: list[Sparse]
    _order: list[int]
    _kept_rows: list[Sparse]

    @property
    def dim(self) -> int:
        return len(self.t)

    def basis_column(self, k: int) -> list[int]:
        """Basis column k, V_k·t_k mod q, as a dense vector: x with
        V⁻¹·x ≡ t_k·e_k, solved from position n - dim + k down, each
        position's entry read off the right-hand side that the columns of
        the positions past it leave."""
        q = self.modulus
        top = self.n - self.dim + k
        rhs = [0] * (top + 1)
        rhs[top] = self.t[k]
        col = [0] * self.n
        Vinv_cols = self._Vinv_cols
        for j in range(top, -1, -1):
            y = rhs[j] % q
            if y:
                c = self._order[j]
                col[c] = y
                for r, a in Vinv_cols[c].items():
                    rhs[r] -= a * y
        return col

    def solve(self, x: Sparse) -> Sparse | None:
        """Coordinates of the sparse vector x in the kernel basis, sparse
        too: {k: y_k} over the kernel coordinates k with y_k nonzero, in the
        order the positions are first reached; None if x is not in K.  Only
        the entries of x, the columns of V⁻¹ they pick, and the positions
        those columns reach are read."""
        acc: Sparse = {}
        Vinv_cols = self._Vinv_cols
        for i, v in x.items():
            for j, a in Vinv_cols[i].items():
                acc[j] = acc.get(j, 0) + v * a
        q, t, dropped = self.modulus, self.t, self.n - self.dim
        out: Sparse = {}
        for j, val in acc.items():
            val %= q
            if val:
                k = j - dropped
                if k < 0 or val % t[k]:
                    return None
                out[k] = val // t[k]
        return out


def kernel_mod(M: list[Sparse], cols: int, p: int, q: int) -> KernelLattice:
    """Lattice of integer vectors x with M x ≡ 0 mod q, q = p^N, for M
    with `cols` columns given as sparse rows (`smith_mod_prime_power`), on
    its coordinates with t_j < q (see `KernelLattice`)."""
    rows = len(M)
    divisors, _, Vinv = smith_mod_prime_power(M, cols, p, q, False)
    dropped = divisors.count(1)
    Vinv_cols: list[Sparse] = [{} for _ in range(cols)]
    for j, row in enumerate(Vinv.values()):
        for c, a in row.items():
            Vinv_cols[c][j] = a
    t = [q // d for d in divisors[dropped:cols]] + [1] * (cols - rows)
    kept_rows = list(Vinv.values())[dropped:]
    return KernelLattice(cols, p, q, divisors, t, Vinv_cols, list(Vinv), kept_rows)


@dataclass
class QuotientPresentation:
    """Finite p-group K/(L + q·Z^n) given by elementary divisors.  A
    cyclic one reads the class of a lattice element through
    `class_functional`, and names a basis column that generates it through
    `generator_coordinate`.  `coords` holds the kernel coordinates Y of the
    columns of L as sparse rows, one per kept coordinate of the kernel,
    keyed by column of L.  `_U` holds the sparse rows of U, and is None
    when `quotient` was not asked to build it."""

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
        mod q·d over the kept coordinates k, V⁻¹[k] the row of V⁻¹ at the
        position of coordinate k.  It reads t_k·y_k mod q for the kernel
        coordinates y of x, and U[j][k]·(q/t_k) ≡ 0
        (mod d) because the relation (q/t_k)·e_k lies in L + q·Z^n, so
        w·x ≡ q·(U·y)[j] (mod q·d) for every x in K.  w is summed from the
        kernel's kept rows of V⁻¹ (`KernelLattice._kept_rows`) that the
        entries of U[j] pick, each row read once; the dropped rows add
        nothing.  On an onto fiber each kept row is a unit vector, so w has
        at most one nonzero entry per entry of U[j].
        """
        j = self._cyclic_row()
        kernel = self.kernel
        q, d = kernel.modulus, self.divisors[j]
        qd = q * d
        w = [0] * kernel.n
        for k, u in self._U[j].items():
            f = u * (q // kernel.t[k]) % qd
            for c, a in kernel._kept_rows[k].items():
                w[c] += f * a
        return ClassFunctional([a % qd for a in w], q, d)

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
        return sum(map(mul, self.w, x)) % (self.modulus * self.d) // self.modulus


def quotient(
    kernel: KernelLattice, L: list[Sparse], build_u: bool = True
) -> QuotientPresentation:
    """Present K/(L + q·Z^n) for generators inside K, given as the sparse
    columns L.

    G holds the kernel coordinates Y of L as sparse rows, one per kept
    coordinate of K, and after them the relations (q/t_j)·e_j that span
    q·Z^n in those coordinates, one column for each t_j > 1, so every
    divisor divides q.  A kernel whose kept t_j are all 1 adds no
    relation: G is Y, `dim`×`dim` when L has `dim` columns.  Each column's
    sparse coordinates (`KernelLattice.solve`) are written straight into
    the rows of Y they name, so every row lists its columns in ascending
    order.  U is built only when `build_u` is set.
    """
    Y: list[Sparse] = [{} for _ in range(kernel.dim)]
    for c, col in enumerate(L):
        y = kernel.solve(col)
        if y is None:
            raise ArithmeticError("generator outside the kernel lattice")
        for k, v in y.items():
            Y[k][c] = v
    q, cols = kernel.modulus, len(L)
    G = []
    for row, t in zip(Y, kernel.t):
        if t > 1:
            row = {**row, cols: q // t}
            cols += 1
        G.append(row)
    divisors, U, _ = smith_mod_prime_power(G, cols, kernel.p, q, build_u)
    return QuotientPresentation(kernel, Y, tuple(divisors), U)
