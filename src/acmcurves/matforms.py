"""Matrices of homogeneous forms: degree matrices, minors, Pfaffians.

Sign conventions are fixed once and documented here:
  * a minor is the determinant of the selected submatrix with rows and
    columns taken in sorted index order;
  * the Pfaffian follows Pf([[0, a], [-a, 0]]) = a, and the i-th principal
    Pfaffian of an odd skew matrix carries the alternating sign (-1)**i, so
    the vector of principal Pfaffians lies in the kernel of the matrix.
Ideal-level comparisons elsewhere are span-based and sign-agnostic.

Minors and Pfaffians come from one subset-table walk (_table) over the
principal Pfaffians of a skew matrix. A minor is read off the bordered skew
matrix B = [[0, -M^T], [M, 0]], columns first: det of rows R and columns C,
|R| = |C| = k, is (-1)**(k(k+1)/2) Pf(B on C and R). Level k of a table
holds one value per k-element row set, kept as a bitmask, and a row set
expands along its highest row against every partner whose entry is nonzero;
for a minor that row is a row of M, so the walk reads only the block M (the
block -M^T is not built) and lists the same column sets as an expansion
along the last row of M. A top-down pass lists, level by level, the row
sets that the roots reach this way, and refuses the table with ValueError
before it expands a level once the sets listed so far, times the size of
the matrix, pass MAX_ARRAY_ENTRIES. A bottom-up pass then builds the levels
from the empty set, whose value is 1. A level is positional, in the order of the top-down
listing: one degree per set, -1 for a set that got no term, and an int64
array whose row i holds set i's coefficients, zero-padded to dim R_d for the
level's largest degree d. A step makes one exact product per entry e and
source degree b: the gathered rows, cut to dim R_b, times e.mul_matrix(b),
the matrix of multiplication by e from R_b to R_{b + deg e}, the placement
that Form products use too. Within one entry and source degree the targets
are distinct, so one fancy-index add places every product. A target whose
terms have two degrees means the matrix is not graded, and is refused with
ValueError rather than summed into a mixed form. Form objects are made only
for the results. _minors takes any (rows, columns) selections of one size
from one table, so laplace can expand a row of each block that construct
assembles against cofactors that one table holds for all of them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import _float_exact, _mulmod
from .ring import MAX_ARRAY_ENTRIES, Form, PolyRing, _integer


class FormMatrix:
    """Rectangular matrix of forms with an explicit degree matrix.

    Zero entries keep a declared degree slot so block layouts with forced
    zeros stay representable. A slot must be an integer (ring._integer).
    """

    def __init__(self, ring: PolyRing, entries: Sequence[Sequence[Form]],
                 degree_matrix: Sequence[Sequence[int]] | None = None):
        rows = len(entries)
        if rows == 0 or len(entries[0]) == 0:
            raise ValueError("matrix must be non-empty")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        if degree_matrix is None:
            degree_matrix = [[e.degree for e in row] for row in entries]
        elif len(degree_matrix) != rows or any(len(row) != cols for row in degree_matrix):
            raise ValueError(f"degree matrix must have the {rows}x{cols} shape of the entries")
        degree_matrix = tuple(tuple(_integer(d, "degree slot") for d in row) for row in degree_matrix)
        for i, row in enumerate(entries):
            for j, e in enumerate(row):
                if e.ring != ring:
                    raise ValueError("entry ring mismatch")
                if not e.is_zero and e.degree != degree_matrix[i][j]:
                    raise ValueError(f"entry ({i},{j}) has degree {e.degree}, slot says {degree_matrix[i][j]}")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = tuple(tuple(row) for row in entries)
        self.degree_matrix = degree_matrix

    def entry(self, i: int, j: int) -> Form:
        return self.entries[i][j]

    def transpose(self) -> FormMatrix:
        ent = [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        deg = [[self.degree_matrix[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return FormMatrix(self.ring, ent, deg)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return (self.ring == other.ring and self.entries == other.entries
                and self.degree_matrix == other.degree_matrix)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.cols} over {self.ring!r})"


class SkewFormMatrix(FormMatrix):
    """Square skew-symmetric matrix of forms: zero diagonal, entry(j,i) = -entry(i,j).

    A FormMatrix whose degree slots are its entries' own degrees. Unlike a
    FormMatrix it may be 0 x 0, the matrix whose Pfaffian is 1.
    """

    def __init__(self, ring: PolyRing, entries: Sequence[Sequence[Form]]):
        size = len(entries)
        if any(len(row) != size for row in entries):
            raise ValueError("skew matrix must be square")
        for i in range(size):
            if not entries[i][i].is_zero:
                raise ValueError(f"diagonal entry ({i},{i}) must be zero")
            for j in range(i + 1, size):
                if entries[j][i] != -entries[i][j]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not skew")
        if size:
            super().__init__(ring, entries)
        else:  # FormMatrix refuses an empty matrix
            self.ring, self.rows, self.cols, self.entries, self.degree_matrix = ring, 0, 0, (), ()

    @property
    def size(self) -> int:
        return self.rows

    @classmethod
    def from_upper(cls, ring: PolyRing, size: int, upper: dict) -> SkewFormMatrix:
        """Build from a map {(i, j): form} with 0 <= i < j < size; the rest is implied."""
        zero = ring.zero()
        grid = [[zero for _ in range(size)] for _ in range(size)]
        for (i, j), f in upper.items():
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"index pair ({i}, {j}) outside 0..{size - 1}")
            if not i < j:
                raise ValueError(f"upper entries need i < j, got ({i}, {j})")
            grid[i][j] = f
            grid[j][i] = -f
        return cls(ring, grid)

    def with_entry(self, i: int, j: int, f: Form) -> SkewFormMatrix:
        """Copy with the (i, j) upper entry replaced (and (j, i) kept skew)."""
        n = self.size
        upper = {(a, b): self.entries[a][b] for a in range(n) for b in range(a + 1, n)}
        return SkewFormMatrix.from_upper(self.ring, n, {**upper, (i, j): f})


# ---- determinants of form matrices ----

def laplace(row: Sequence[Form], cofactors: Sequence[Form], zero: Form) -> Form:
    """sum over a of (-1)**a * row[a] * cofactors[a]; zero when no term is
    left. Terms of two degrees (a matrix that is not graded) raise
    ValueError in Form addition."""
    total = zero
    for a, (e, c) in enumerate(zip(row, cofactors)):
        if not (e.is_zero or c.is_zero):
            total = total - e * c if a % 2 else total + e * c
    return total


def determinant(m: FormMatrix) -> Form:
    """The one minor of a square matrix, from its subset table."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    return _minors(m, [(range(m.rows), range(m.cols))])[0]


def minor(m: FormMatrix, rowset: Sequence[int], colset: Sequence[int]) -> Form:
    """Determinant of the selected square submatrix, rows/columns sorted."""
    rs, cs = sorted(set(rowset)), sorted(set(colset))
    if len(rs) != len(rowset) or len(cs) != len(colset):
        raise ValueError("repeated index in selection")
    if len(rs) != len(cs):
        raise ValueError("minor needs equally many rows and columns")
    if not rs:
        return m.ring.one()
    if rs[0] < 0 or rs[-1] >= m.rows or cs[0] < 0 or cs[-1] >= m.cols:
        raise ValueError("index out of range")
    return determinant(FormMatrix(m.ring, [[m.entries[i][j] for j in cs] for i in rs],
                                  [[m.degree_matrix[i][j] for j in cs] for i in rs]))


def maximal_minors(m: FormMatrix) -> list[Form]:
    """The rows+1 maximal minors of a t x (t+1) matrix.

    Ordered by deleted-column index ascending; computed through one batched
    subset table, so common subminors are evaluated once. Raises ValueError
    when a minor gets terms of two degrees (a matrix that is not graded).
    """
    if m.cols != m.rows + 1:
        raise ValueError(f"expected shape t x (t+1), got {m.rows} x {m.cols}")
    return _minors(m, [(range(m.rows), [j for j in range(m.cols) if j != dropped])
                       for dropped in range(m.cols)])


def _minors(m: FormMatrix, selections: Sequence[tuple]) -> list[Form]:
    """det(rows rs, columns cs) for each selection (rs, cs) of sorted
    indices, all of one size k >= 1, as the signed Pfaffian of the bordered
    skew matrix (module docstring); a zero minor has the degree of the slots
    (rs[i], cs[i]). Every set expands along a row of M, so the walk never
    reads the block -M^T, and it is left zero rather than built."""
    r, c = m.rows, m.cols
    zero = m.ring.zero()
    bordered = [[zero] * (c + r)] * c + [[*row, *[zero] * r] for row in m.entries]
    pfs = _table(m.ring, bordered,
                 [sum(1 << j for j in cs) | sum(1 << (c + i) for i in rs) for rs, cs in selections],
                 [sum(m.degree_matrix[i][j] for i, j in zip(rs, cs)) for rs, cs in selections])
    k = len(selections[0][0])
    return [-pf for pf in pfs] if k * (k + 1) // 2 % 2 else pfs


# ---- the subset-table walk ----

def _table(ring: PolyRing, grid: Sequence[Sequence[Form]], roots: Sequence[int],
           declared: Sequence[int]) -> list[Form]:
    """The Pfaffians of the n x n skew matrix grid on the row sets roots
    (bitmasks of one even size); a root that got no term is zero in its
    declared degree. A row set expands along its highest row i: the partner
    j at position q (from 0) gives (-1)**(q + 1) * grid[i][j] times the set
    without i and j; no other entry is read. ValueError, before a level is
    expanded, once the sets listed so far times n pass MAX_ARRAY_ENTRIES.
    """
    n = len(grid)
    if n > 63:
        raise ValueError(f"subset tables index at most 63 rows or columns (int64 masks), got {n}")
    entries = [e for row in grid for e in row]
    live = np.array([not e.is_zero for e in entries], dtype=np.int64).reshape(n, n)
    edeg = np.array([e.degree for e in entries], dtype=np.int64)
    span = np.arange(n)
    masks, where = np.unique(np.array(roots, dtype=np.int64), return_inverse=True)
    steps, listed = [], 0
    while len(masks) and masks[0]:
        k = int(masks[0]).bit_count()
        listed += len(masks)
        if listed * n > MAX_ARRAY_ENTRIES:
            raise ValueError(f"subset table level {k} too large: {listed} subsets down to it "
                             f"times {n} rows or columns make {listed * n} "
                             f"(the limit is {MAX_ARRAY_ENTRIES})")
        bits = masks[:, None] >> span & 1
        top = n - 1 - np.argmax(bits[:, ::-1], axis=1)
        par, j = np.nonzero(bits * live[top])
        below = (np.cumsum(bits, axis=1) - bits)[par, j]
        ent = top[par] * n + j
        count = len(masks)
        masks, src = np.unique(masks[par] ^ (1 << top[par]) ^ (1 << j), return_inverse=True)
        steps.append((k, count, (src, ent, below % 2 == 0, par)))
    level = np.zeros(1, dtype=np.int64), np.ones((1, 1), dtype=np.int64)  # the empty set: 1
    for k, count, terms in reversed(steps):
        level = _level_step(ring, level, entries, edeg, terms, count, k)
    # each form gets a copy of its row, so that it does not hold the whole padded level
    degrees, coeffs = level[0].tolist(), level[1]
    return [Form(ring, degrees[i], coeffs[i, :ring.dim(degrees[i])].copy())
            if degrees[i] >= 0 else ring.zero(d) for i, d in zip(where.tolist(), declared)]


def _level_step(ring: PolyRing, level: tuple, entries: Sequence[Form], edeg: np.ndarray,
                terms: tuple, count: int, k: int) -> tuple:
    """Level k of a subset table, its count sets in the walk's order, from
    the level below (module docstring). Term m of terms = (src, ent, neg,
    tpos) adds (-1)**neg[m] * entries[ent[m]], of degree edeg[ent[m]], times
    set src[m] of level to set tpos[m]; a term whose source got no term is
    dropped. The terms of one entry and one source degree make one product,
    placed by one fancy-index add into float64 sums that are reduced once;
    zero sums keep their degree. ValueError, before anything of its size is
    allocated, when the sets with a term would hold more than
    MAX_ARRAY_ENTRIES coefficients, counted unpadded (verify --t 15 --r 1
    peaks at 9,870,575).
    """
    p = ring.p
    degrees, coeffs = level
    keep = degrees[terms[0]] >= 0
    src, ent, neg, tpos = (a[keep] for a in terms)
    tdeg = np.full(count, -1, dtype=np.int64)
    if len(src) == 0:
        return tdeg, np.zeros((count, 0), dtype=np.int64)
    sdeg = degrees[src]
    deg = sdeg + edeg[ent]
    tdeg[tpos] = deg
    bad = np.flatnonzero(tdeg[tpos] != deg)
    if len(bad):
        hit = deg[tpos == tpos[bad[0]]]
        raise ValueError(f"degree mismatch: {hit.min()} vs {hit.max()} (matrix not graded)")
    size = sum(int(c) * ring.dim(d) for d, c in enumerate(np.bincount(tdeg + 1), -1) if c)
    if size > MAX_ARRAY_ENTRIES:
        raise ValueError(f"subset table level {k} too large: {count} subsets hold {size} "
                         f"coefficients (the limit is {MAX_ARRAY_ENTRIES})")
    # a target's sum is one inner product over its terms' products, each of
    # at most dim R_{deg e} residue pairs; while that is float-exact the level
    # is reduced once, otherwise _mulmod reduces each product first
    raw = _float_exact(int(np.bincount(tpos).max()) * ring.dim(int(edeg[ent].max())), p)
    key = ent * (int(degrees.max()) + 1) + sdeg
    order = np.argsort(key, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(key[order])) + 1).tolist(), len(order)]
    first = order[cuts[:-1]]
    rows, dest = src[order], tpos[order]
    sign = np.where(neg[order], -1.0, 1.0)[:, None]
    sums = np.zeros((count, ring.dim(int(tdeg.max()))))
    for lo, hi, e, b in zip(cuts, cuts[1:], ent[first].tolist(), sdeg[first].tolist()):
        e = entries[e]
        x = coeffs[rows[lo:hi], :ring.dim(b)]
        # the matrix is never bound, so two of them are never alive at once
        prod = x @ e.mul_matrix(b) if raw else _mulmod(x, e.mul_matrix(b), p)
        prod *= sign[lo:hi]
        sums[dest[lo:hi], :prod.shape[1]] += prod
    out = sums.astype(np.int64)
    out %= p
    return tdeg, out


# ---- Pfaffians ----

def pfaffian(m: SkewFormMatrix) -> Form:
    """Pfaffian of an even-size skew-symmetric form matrix."""
    if m.size % 2:
        return m.ring.zero()
    return _table(m.ring, m.entries, [(1 << m.size) - 1], [0])[0]


def principal_pfaffians(g: SkewFormMatrix) -> list[Form]:
    """All Pfaffians of g with one row and column deleted, signed by (-1)**i.

    Requires odd size. The deletions share one subset table, so
    sub-Pfaffians common to several of them are evaluated once. Raises
    ValueError when a Pfaffian gets terms of two degrees (a matrix that is
    not graded).
    """
    if g.size % 2 == 0:
        raise ValueError("principal Pfaffians need an odd-size matrix")
    full = (1 << g.size) - 1
    pfs = _table(g.ring, g.entries, [full ^ (1 << i) for i in range(g.size)], [0] * g.size)
    return [-pf if i % 2 else pf for i, pf in enumerate(pfs)]
