"""Paired determinantal matrices whose curves meet in a Gorenstein scheme.

The small matrix M_small is a (t-r) x (t-r+1) matrix of degree-d forms. The
big matrix M_big is t x (t+1): a free t x (r+1) block of fresh degree-d
forms on the left, the transpose of M_small occupying the first t-r+1 rows
of the last t-r columns, and a forced zero block below it. The two curves
cut out by the maximal minors then intersect in a zero-dimensional scheme
whose ideal is generated by 2t-2r+1 explicit minors, equivalently by the
principal Pfaffians of an odd skew matrix assembled from the same data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .formulas import check_construction
from .hilbert import IdealPresentation
from .matforms import FormMatrix, SkewFormMatrix, _minors, laplace, maximal_minors
from .ring import DEFAULT_PRIME, Form, PolyRing, random_form


@dataclass(frozen=True)
class ConstructionPair:
    """The (M_small, M_big) pair with the embedded-transpose layout."""

    t: int
    r: int
    d: int
    m_small: FormMatrix
    m_big: FormMatrix

    def __post_init__(self):
        t, r, d = self.t, self.r, self.d
        check_construction(t, r, d)
        if (self.m_small.rows, self.m_small.cols) != (t - r, t - r + 1):
            raise ValueError("M_small has the wrong shape")
        if (self.m_big.rows, self.m_big.cols) != (t, t + 1):
            raise ValueError("M_big has the wrong shape")
        for i in range(t - r + 1):
            for k in range(t - r):
                if self.m_big.entry(i, r + 1 + k) != self.m_small.entry(k, i):
                    raise ValueError(f"embedded block mismatch at ({i},{k})")
        for i in range(t - r + 1, t):
            for k in range(t - r):
                if not self.m_big.entry(i, r + 1 + k).is_zero:
                    raise ValueError(f"zero block violated at ({i},{k})")

    @cached_property
    def minors(self) -> tuple[tuple[Form, ...], tuple[Form, ...]]:
        """The maximal minors of M_small and of M_big (maximal_minors), one
        subset table each, taken once per pair."""
        return tuple(maximal_minors(self.m_small)), tuple(maximal_minors(self.m_big))

    @cached_property
    def generators(self) -> tuple[Form, ...]:
        """The 2t-2r+1 generator forms of gorenstein_generators in order, zero
        ones included: form i is +-principal Pfaffian i of skew_matrix_G."""
        small, big = self.minors
        return (*small, *big[self.r + 1:])


def _random_matrix(ring: PolyRing, rows: int, cols: int, d: int, rng: random.Random) -> FormMatrix:
    ent = [[random_form(d, ring, rng) for _ in range(cols)] for _ in range(rows)]
    return FormMatrix(ring, ent, [[d] * cols for _ in range(rows)])


def embed_pair(m_small: FormMatrix, t: int, rng: random.Random) -> ConstructionPair:
    """Wrap an existing small matrix into the big-matrix layout at size t.

    The free t x (r+1) block is filled with fresh random forms of the same
    degree as the small matrix's entries.
    """
    ring = m_small.ring
    tr = m_small.rows
    if m_small.cols != tr + 1:
        raise ValueError("small matrix must have shape (t-r) x (t-r+1)")
    r = t - tr
    degs = {m_small.degree_matrix[i][j] for i in range(tr) for j in range(tr + 1)}
    if len(degs) != 1:
        raise ValueError("small matrix entries must share one degree")
    d = degs.pop()
    check_construction(t, r, d)
    zero = ring.zero(d)
    ent = []
    for i in range(t):
        row = [random_form(d, ring, rng) for _ in range(r + 1)]
        if i < tr + 1:
            row += [m_small.entry(k, i) for k in range(tr)]
        else:
            row += [zero] * tr
        ent.append(row)
    m_big = FormMatrix(ring, ent, [[d] * (t + 1) for _ in range(t)])
    return ConstructionPair(t=t, r=r, d=d, m_small=m_small, m_big=m_big)


def build_uniform_pair(t: int, r: int, d: int, rng: random.Random,
                       ring: PolyRing | None = None) -> ConstructionPair:
    """Random construction pair with all entries of degree d."""
    check_construction(t, r, d)
    if ring is None:
        ring = PolyRing(DEFAULT_PRIME, 4)
    m_small = _random_matrix(ring, t - r, t - r + 1, d, rng)
    return embed_pair(m_small, t, rng)


def build_linear_pair(t: int, r: int, rng: random.Random,
                      ring: PolyRing | None = None) -> ConstructionPair:
    """Random construction pair with linear entries (the d = 1 case)."""
    return build_uniform_pair(t, r, 1, rng, ring=ring)


def union_matrix(pair: ConstructionPair) -> FormMatrix:
    """The r x (r+1) matrix whose maximal minors cut out the union curve.

    Its first row holds the determinants F_1..F_{r+1}, where F_i mixes
    column i of the free block (restricted to the first t-r+1 rows) with the
    embedded transpose block; the remaining rows are the bottom r-1 rows of
    the free block.
    """
    t, r, d = pair.t, pair.r, pair.d
    ring = pair.m_big.ring
    tr = t - r
    # F_i expands along its free column: the cofactors are the maximal
    # minors of the embedded transpose, those of M_small
    zero = ring.zero((tr + 1) * d)
    ent = [[laplace([pair.m_big.entry(row, i) for row in range(tr + 1)], pair.minors[0], zero)
            for i in range(r + 1)]]
    for row in range(tr + 1, t):
        ent.append([pair.m_big.entry(row, j) for j in range(r + 1)])
    deg = [[(tr + 1) * d] * (r + 1)] + [[d] * (r + 1) for _ in range(r - 1)]
    return FormMatrix(ring, ent, deg)


def gorenstein_generators(pair: ConstructionPair) -> IdealPresentation:
    """Generators of the intersection ideal: all maximal minors of M_small,
    plus the maximal minors of M_big that delete one embedded column.

    That is the 2t-2r+1 forms of pair.generators, t-r+1 of degree d(t-r) and
    t-r of degree dt; a zero one is left out, which keeps the ideal. A zero
    one means a scheme that meets every coordinate hyperplane (by minimality
    of the Buchsbaum-Eisenbud resolution, harness module docstring).

    They generate I_{C_t} + I_{C_{t-r}}: the other r+1 maximal minors of
    M_big, those that delete a free column, lie in the ideal of M_small's.
    Expand such a minor by generalized Laplace along the t-r embedded
    columns: they hold the transpose of M_small above a zero block (the
    layout ConstructionPair checks), so the t-r rowed minor of every term
    is zero or +-a maximal minor of M_small.
    """
    return IdealPresentation(ring=pair.m_big.ring,
                             generators=tuple(g for g in pair.generators if not g.is_zero))


def skew_matrix_G(pair: ConstructionPair) -> SkewFormMatrix:
    """The odd skew matrix whose principal Pfaffians generate the intersection ideal.

    Size 2t-2r+1. The upper-left (t-r+1) block holds determinants G_i^j of
    the (r+1) x (r+1) matrices built from rows i, j and the bottom r-1 rows
    of the free block; the upper-right block repeats the embedded transpose
    of M_small; the lower-right (t-r) block is identically zero.
    Principal Pfaffian i is +-generator i: an upper deletion gives +-det of the embedded
    transpose minus row i, a lower one generalized Laplace along M_big's embedded columns.
    """
    t, r, d = pair.t, pair.r, pair.d
    ring = pair.m_big.ring
    tr = t - r
    q = tr + 1
    free = FormMatrix(ring, [row[:r + 1] for row in pair.m_big.entries],
                      [row[:r + 1] for row in pair.m_big.degree_matrix])
    zero = ring.zero((r + 1) * d)
    # G_i^j expands along row i against the maximal minors of row j and the
    # tail rows; one table over the free block holds them for every j
    cofactors = _minors(free, [([j, *range(q, t)], [b for b in range(r + 1) if b != a])
                               for j in range(1, q) for a in range(r + 1)])
    upper = {(i, j): laplace(free.entries[i], cofactors[(j - 1) * (r + 1):j * (r + 1)], zero)
             for j in range(1, q) for i in range(j)}
    for i in range(q):
        for k in range(tr):
            upper[(i, q + k)] = pair.m_small.entry(k, i)
    return SkewFormMatrix.from_upper(ring, 2 * tr + 1, upper)
