"""Matrices of homogeneous forms: degree matrices, minors, Pfaffians.

Sign conventions are fixed once and documented here:
  * a minor is the determinant of the selected submatrix with rows and
    columns taken in sorted index order;
  * the Pfaffian follows Pf([[0, a], [-a, 0]]) = a, and the i-th principal
    Pfaffian of an odd skew matrix carries the alternating sign (-1)**i, so
    the vector of principal Pfaffians lies in the kernel of the matrix.
Ideal-level comparisons elsewhere are span-based and sign-agnostic.
"""

from __future__ import annotations

from typing import Sequence

from .ring import Form, PolyRing


class FormMatrix:
    """Rectangular matrix of forms with an explicit degree matrix.

    Zero entries keep a declared degree slot so block layouts with forced
    zeros stay representable.
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
        self.degree_matrix = tuple(tuple(int(d) for d in row) for row in degree_matrix)

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
        return f"FormMatrix({self.rows}x{self.cols} over {self.ring!r})"


class SkewFormMatrix:
    """Square skew-symmetric matrix of forms: zero diagonal, entry(j,i) = -entry(i,j)."""

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
        self.ring = ring
        self.size = size
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def from_upper(cls, ring: PolyRing, size: int, upper: dict) -> SkewFormMatrix:
        """Build from a map {(i, j): form} with i < j; the rest is implied."""
        zero = ring.zero()
        grid = [[zero for _ in range(size)] for _ in range(size)]
        for (i, j), f in upper.items():
            if not i < j:
                raise ValueError("upper entries need i < j")
            grid[i][j] = f
            grid[j][i] = -f
        return cls(ring, grid)

    def entry(self, i: int, j: int) -> Form:
        return self.entries[i][j]

    def with_entry(self, i: int, j: int, f: Form) -> SkewFormMatrix:
        """Copy with the (i, j) upper entry replaced (and (j, i) kept skew)."""
        if not i < j:
            raise ValueError("replace an upper entry: need i < j")
        grid = [list(row) for row in self.entries]
        grid[i][j] = f
        grid[j][i] = -f
        return SkewFormMatrix(self.ring, grid)


# ---- determinants of form matrices ----

def _det_grid(ring: PolyRing, grid: Sequence[Sequence[Form]]) -> Form:
    """Determinant by dynamic programming over column subsets.

    Level k of the table holds det(rows 0..k-1, columns S) for |S| = k, so
    evaluating every maximal minor of a t x (t+1) matrix reuses all the
    shared subminors.
    """
    k = len(grid)
    if any(len(row) != k for row in grid):
        raise ValueError("determinant needs a square selection")
    table = _column_subset_table(ring, grid, k)
    full = tuple(range(k))
    return table.get(full, ring.zero(_grid_degree(grid)))


def _column_subset_table(ring: PolyRing, rows, ncols: int) -> dict[tuple, Form]:
    """table[S] = det(rows 0..k-1 against column subset S) for |S| = len(rows).

    Built level by level, so every subminor is computed once and shared by
    all determinants that contain it. Zero partial determinants are pruned.
    """
    table: dict[tuple, Form] = {(): ring.one()}
    for i, row in enumerate(rows):
        nxt: dict[tuple, Form] = {}
        for used, sub in table.items():
            if sub.is_zero:
                continue
            for j in range(ncols):
                if j in used:
                    continue
                e = row[j]
                if e.is_zero:
                    continue
                key = tuple(sorted(used + (j,)))
                pos = key.index(j)
                term = e * sub
                if (i + pos) % 2:
                    term = -term
                acc = nxt.get(key)
                nxt[key] = term if acc is None else acc + term
        table = nxt
        if not table:
            break
    return table


def _grid_degree(grid) -> int:
    # declared degree for an identically-zero determinant; best effort only
    d = 0
    for i, row in enumerate(grid):
        d += row[i].degree if i < len(row) else 0
    return d


def determinant(m: FormMatrix) -> Form:
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    return _det_grid(m.ring, m.entries)


def minor(m: FormMatrix, rowset: Sequence[int], colset: Sequence[int]) -> Form:
    """Determinant of the selected square submatrix, rows/columns sorted."""
    rs, cs = sorted(set(rowset)), sorted(set(colset))
    if len(rs) != len(set(rowset)) or len(cs) != len(set(colset)):
        raise ValueError("repeated index in selection")
    if len(rs) != len(cs):
        raise ValueError("minor needs equally many rows and columns")
    if not rs:
        return m.ring.one()
    if rs[0] < 0 or rs[-1] >= m.rows or cs[0] < 0 or cs[-1] >= m.cols:
        raise ValueError("index out of range")
    grid = [[m.entries[i][j] for j in cs] for i in rs]
    return _det_grid(m.ring, grid)


def maximal_minors(m: FormMatrix) -> list[Form]:
    """The rows+1 maximal minors of a t x (t+1) matrix.

    Ordered by deleted-column index ascending; computed through one shared
    subset table so common subminors are evaluated once.
    """
    if m.cols != m.rows + 1:
        raise ValueError(f"expected shape t x (t+1), got {m.rows} x {m.cols}")
    ring = m.ring
    t = m.rows
    table = _column_subset_table(ring, m.entries, m.cols)
    out = []
    all_cols = range(m.cols)
    for dropped in all_cols:
        key = tuple(j for j in all_cols if j != dropped)
        got = table.get(key)
        if got is None:
            got = ring.zero(_minor_degree(m, range(t), key))
        out.append(got)
    return out


def _minor_degree(m: FormMatrix, rowset, colset) -> int:
    rs, cs = sorted(rowset), sorted(colset)
    return sum(m.degree_matrix[i][j] for i, j in zip(rs, cs))


# ---- Pfaffians ----

def _pfaffian_rec(entries, memo, ring: PolyRing, subset: tuple) -> Form:
    n = len(subset)
    if n == 0:
        return ring.one()
    if n % 2:
        return ring.zero()
    got = memo.get(subset)
    if got is not None:
        return got
    # expand along the row with the most zero entries inside the subset;
    # block layouts with forced zero corners collapse much faster this way
    best_pos, best_zeros = 0, -1
    for pos, i in enumerate(subset):
        z = sum(1 for j in subset if entries[i][j].is_zero)
        if z >= best_zeros:
            best_pos, best_zeros = pos, z
    i = subset[best_pos]
    rest_order = subset[:best_pos] + subset[best_pos + 1:]
    total: Form | None = None
    for newpos, j in enumerate(rest_order, start=1):
        e = entries[i][j]
        if e.is_zero:
            continue
        sub = _pfaffian_rec(entries, memo, ring,
                            tuple(x for x in rest_order if x != j))
        if sub.is_zero:
            continue
        term = e * sub
        # sign: move row i to the front of the subset ((-1)**best_pos), then
        # expand along the first row with partner at position newpos
        if (best_pos + newpos + 1) % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        total = ring.zero()
    memo[subset] = total
    return total


def pfaffian(m: SkewFormMatrix) -> Form:
    """Pfaffian of an even-size skew-symmetric form matrix."""
    if m.size % 2:
        return m.ring.zero()
    memo: dict[tuple, Form] = {}
    return _pfaffian_rec(m.entries, memo, m.ring, tuple(range(m.size)))


def principal_pfaffians(g: SkewFormMatrix) -> list[Form]:
    """All Pfaffians of g with one row and column deleted, signed by (-1)**i.

    Requires odd size. One memo table is shared across the deletions, so the
    recursion reuses sub-Pfaffians between them.
    """
    if g.size % 2 == 0:
        raise ValueError("principal Pfaffians need an odd-size matrix")
    memo: dict[tuple, Form] = {}
    full = tuple(range(g.size))
    out = []
    for i in full:
        pf = _pfaffian_rec(g.entries, memo, g.ring, tuple(x for x in full if x != i))
        out.append(-pf if i % 2 else pf)
    return out
