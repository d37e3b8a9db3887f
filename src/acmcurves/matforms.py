"""Matrices of homogeneous forms: degree matrices, minors, Pfaffians.

Sign conventions are fixed once and documented here:
  * a minor is the determinant of the selected submatrix with rows and
    columns taken in sorted index order;
  * the Pfaffian follows Pf([[0, a], [-a, 0]]) = a, and the i-th principal
    Pfaffian of an odd skew matrix carries the alternating sign (-1)**i, so
    the vector of principal Pfaffians lies in the kernel of the matrix.
Ideal-level comparisons elsewhere are span-based and sign-agnostic.

Maximal minors and Pfaffians come from batched subset tables. Level k of a
table holds one value per k-element subset of columns (minors) or of rows
(Pfaffians), the subset kept as a bitmask. A level is three arrays (masks,
degrees, coeffs): the ascending masks of every subset that got a term, zero
sums included, one degree per subset, and an int64 array whose row i holds
subset i's coefficients, zero-padded to dim R_d for the level's largest
degree d. A step to the next level lists its terms (sign, matrix entry e,
source subset, target subset) and makes one exact product per entry and
source degree b: the gathered rows, cut to dim R_b, times e.mul_matrix(b),
the matrix of multiplication by e from R_b to R_{b + deg e}, the placement
that Form products use too. Within one entry and source degree the targets
are distinct, so one fancy-index add places every product. A target whose
terms have two degrees means the matrix is not graded, and is refused with
ValueError rather than summed into a mixed form. Form objects are made only
for the results. Every other determinant (determinant, minor, and the
blocks that construct assembles) is one Laplace expansion (laplace) against
maximal minors from such a table.
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
        degree_matrix = tuple(tuple(_integer(d) for d in row) for row in degree_matrix)
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
        """Build from a map {(i, j): form} with i < j; the rest is implied."""
        zero = ring.zero()
        grid = [[zero for _ in range(size)] for _ in range(size)]
        for (i, j), f in upper.items():
            if not i < j:
                raise ValueError("upper entries need i < j")
            grid[i][j] = f
            grid[j][i] = -f
        return cls(ring, grid)

    def with_entry(self, i: int, j: int, f: Form) -> SkewFormMatrix:
        """Copy with the (i, j) upper entry replaced (and (j, i) kept skew)."""
        if not i < j:
            raise ValueError("replace an upper entry: need i < j")
        grid = [list(row) for row in self.entries]
        grid[i][j] = f
        grid[j][i] = -f
        return SkewFormMatrix(self.ring, grid)


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
    """Expansion along row 0 against the maximal minors of rows 1..k-1."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if m.rows == 1:
        return m.entries[0][0]
    rest = FormMatrix(m.ring, m.entries[1:], m.degree_matrix[1:])
    zero = m.ring.zero(_minor_degree(m, range(m.rows), range(m.cols)))
    return laplace(m.entries[0], maximal_minors(rest), zero)


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
    subset table (level k holds det(rows 0..k-1, columns S) for |S| = k), so
    common subminors are evaluated once. Raises ValueError when a minor gets
    terms of two degrees (a matrix that is not graded).
    """
    if m.cols != m.rows + 1:
        raise ValueError(f"expected shape t x (t+1), got {m.rows} x {m.cols}")
    _check_mask_width(m.cols)
    level = _unit_level()
    cols = np.arange(m.cols)
    for k, row in enumerate(m.entries):
        masks = level[0]
        bits = masks[:, None] >> cols & 1
        live = np.array([j for j, e in enumerate(row) if not e.is_zero], dtype=np.int64)
        src, c = np.nonzero(bits[:, live] == 0)
        j = live[c]
        # entry (k, j) lands at position `below` of the new subset
        below = (np.cumsum(bits, axis=1) - bits)[src, j]
        level = _level_step(m.ring, level, row, src, j, (k + below) % 2 == 1,
                            masks[src] | (1 << j))
    full = (1 << m.cols) - 1
    kept = [[j for j in range(m.cols) if j != dropped] for dropped in range(m.cols)]
    return _level_values(m.ring, level, [full ^ (1 << j) for j in range(m.cols)],
                         [_minor_degree(m, range(m.rows), cs) for cs in kept])


def _minor_degree(m: FormMatrix, rowset, colset) -> int:
    rs, cs = sorted(rowset), sorted(colset)
    return sum(m.degree_matrix[i][j] for i, j in zip(rs, cs))


# ---- batched subset tables ----

def _check_mask_width(n: int) -> None:
    if n > 63:
        raise ValueError(f"subset tables index at most 63 rows or columns (int64 masks), got {n}")


def _unit_level() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level 0: the empty subset with value 1, in degree 0."""
    return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.ones((1, 1), dtype=np.int64)


def _level_values(ring: PolyRing, level: tuple, masks: Sequence[int],
                  declared: Sequence[int]) -> list[Form]:
    """The forms of the given subsets of the last level. A subset whose
    terms cancelled is zero in their degree, one that got no term is zero in
    its declared degree. Each form gets a copy of its row, so that it does
    not hold the whole padded level."""
    _, degrees, coeffs = level
    found = _level_lookup(level, np.array(masks, dtype=np.int64)).tolist()
    return [Form(ring, int(degrees[i]), coeffs[i, :ring.dim(int(degrees[i]))].copy())
            if i >= 0 else ring.zero(d) for i, d in zip(found, declared)]


def _sorted_index(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct masks in ascending order, and the position of each input
    among them. Sorted by the stable argsort that hilbert already runs: the
    first call of np.unique loads sort or hash code that nothing else on the
    path uses, 0.4-1.4 MB of resident pages."""
    order = np.argsort(masks, kind="stable")
    ordered = masks[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    pos = np.empty(len(ordered), dtype=np.int64)
    pos[order] = np.cumsum(first) - 1
    return ordered[first], pos


def _level_step(ring: PolyRing, level: tuple, entries: Sequence[Form], src: np.ndarray,
                ent: np.ndarray, neg: np.ndarray, tmask: np.ndarray) -> tuple:
    """The next level of a subset table, from its terms.

    Term m adds (-1)**neg[m] * entries[ent[m]] times subset src[m] of level
    (a row index) to subset tmask[m]. The terms of one entry and one source
    degree b are one product of their gathered rows, cut to dim R_b, with
    the entry's mul_matrix; their targets are distinct, so a fancy-index add
    places them in the float64 sums, which are reduced once.
    Returns the next level: every subset that got a term, zero sums
    included. ValueError, before anything of its size is allocated, when
    its subsets would hold more than MAX_ARRAY_ENTRIES coefficients, counted
    unpadded (verify --t 15 --r 1 peaks at 9,870,575; padded, 3.6% more).
    """
    if len(src) == 0:  # the empty level: tmask is empty too
        return tmask, tmask, np.zeros((0, 0), dtype=np.int64)
    p = ring.p
    _, degrees, coeffs = level
    used = np.flatnonzero(np.bincount(ent))
    edeg = np.zeros(used[-1] + 1, dtype=np.int64)
    edeg[used] = [entries[k].degree for k in used.tolist()]
    sdeg = degrees[src]
    deg = sdeg + edeg[ent]
    targets, tpos = _sorted_index(tmask)
    tdeg = np.empty(len(targets), dtype=np.int64)
    tdeg[tpos] = deg
    bad = np.flatnonzero(tdeg[tpos] != deg)
    if len(bad):
        hit = deg[tpos == tpos[bad[0]]]
        raise ValueError(f"degree mismatch: {hit.min()} vs {hit.max()} (matrix not graded)")
    size = sum(int(n) * ring.dim(d) for d, n in enumerate(np.bincount(tdeg)) if n)
    if size > MAX_ARRAY_ENTRIES:
        raise ValueError(f"subset table level {int(targets[0]).bit_count()} too large: "
                         f"{len(targets)} subsets hold {size} coefficients "
                         f"(the limit is {MAX_ARRAY_ENTRIES})")
    # a target's sum is one inner product over its terms' products, each of
    # at most dim R_{deg e} residue pairs; while that is float-exact the level
    # is reduced once, otherwise _mulmod reduces each product first
    raw = _float_exact(int(np.bincount(tpos).max()) * ring.dim(int(edeg.max())), p)
    key = ent * (int(degrees.max()) + 1) + sdeg
    order = np.argsort(key, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(key[order])) + 1).tolist(), len(order)]
    first = order[cuts[:-1]]
    rows, dest = src[order], tpos[order]
    sign = np.where(neg[order], -1.0, 1.0)[:, None]
    sums = np.zeros((len(targets), ring.dim(int(tdeg.max()))))
    for lo, hi, e, b in zip(cuts, cuts[1:], ent[first].tolist(), sdeg[first].tolist()):
        e = entries[e]
        x = coeffs[rows[lo:hi], :ring.dim(b)]
        # the matrix is never bound, so two of them are never alive at once
        prod = x @ e.mul_matrix(b) if raw else _mulmod(x, e.mul_matrix(b), p)
        prod *= sign[lo:hi]
        sums[dest[lo:hi], :prod.shape[1]] += prod
    out = sums.astype(np.int64)
    out %= p
    return targets, tdeg, out


def _level_lookup(level: tuple, masks: np.ndarray) -> np.ndarray:
    """Row of each mask in level, -1 where it is absent."""
    have = np.append(level[0], -1)  # no mask is -1, so a miss reads the end
    pos = np.searchsorted(level[0], masks)
    return np.where(have[pos] == masks, pos, -1)


# ---- Pfaffians ----

def _pfaffians(g: SkewFormMatrix, roots: Sequence[int]) -> list[Form]:
    """Pfaffians of the principal submatrices of g on the row sets roots
    (bitmasks of one even size).

    A top-down pass enumerates the subsets the expansion reaches: each one
    expands along its row with the most zero entries inside it (the last
    such row on ties; block layouts with forced zero corners collapse much
    faster this way), against every partner whose entry is nonzero. A
    bottom-up pass then builds the subset table two rows at a time, with one
    product per (row, partner, source degree).
    """
    ring, n = g.ring, g.size
    _check_mask_width(n)
    zero = np.array([[e.is_zero for e in row] for row in g.entries], dtype=np.float64)
    span = np.arange(n)
    masks, _ = _sorted_index(np.array(roots, dtype=np.int64))
    down = []
    for _ in range(int(masks[0]).bit_count() // 2):
        bits = masks[:, None] >> span & 1
        # zero entries of each row inside the subset; the diagonal is zero,
        # so a row of the subset counts at least one and any other row none
        zeros = (bits @ zero.T) * bits
        pivot = n - 1 - np.argmax(zeros[:, ::-1], axis=1)
        par, j = np.nonzero(bits * (zero[pivot] == 0))
        down.append((masks, pivot, par, j))
        masks, _ = _sorted_index(masks[par] & ~(1 << pivot[par]) & ~(1 << j))
    level = _unit_level()
    flat = [e for row in g.entries for e in row]
    for masks, pivot, par, j in reversed(down):
        i = pivot[par]
        top = masks[par]
        src = _level_lookup(level, top & ~(1 << i) & ~(1 << j))
        ok = src >= 0
        # move row i to the front ((-1)**its position), then expand along
        # the first row against the partner at (1-based) position newpos
        bits = masks[:, None] >> span & 1
        below = np.cumsum(bits, axis=1) - bits
        newpos = below[par, j] - (i < j) + 1
        neg = (below[par, i] + newpos + 1) % 2 == 1
        level = _level_step(ring, level, flat, src[ok], (i * n + j)[ok], neg[ok], top[ok])
    return _level_values(ring, level, roots, [0] * len(roots))


def pfaffian(m: SkewFormMatrix) -> Form:
    """Pfaffian of an even-size skew-symmetric form matrix."""
    if m.size % 2:
        return m.ring.zero()
    return _pfaffians(m, [(1 << m.size) - 1])[0]


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
    pfs = _pfaffians(g, [full ^ (1 << i) for i in range(g.size)])
    return [-pf if i % 2 else pf for i, pf in enumerate(pfs)]
