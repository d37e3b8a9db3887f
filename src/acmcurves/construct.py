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

from .hilbert import IdealPresentation
from .matforms import FormMatrix, SkewFormMatrix, _det_grid, maximal_minors
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
        _check_params(t, r, d)
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


def _check_params(t: int, r: int, d: int) -> None:
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if not 1 <= r <= t - 1:
        raise ValueError(f"need 1 <= r <= t-1, got r={r} at t={t}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")


def _random_matrix(ring: PolyRing, rows: int, cols: int, d: int, rng: random.Random) -> FormMatrix:
    ent = [[random_form(d, ring, rng) for _ in range(cols)] for _ in range(rows)]
    return FormMatrix(ring, ent, [[d] * cols for _ in range(rows)], hilbert_burch=True)


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
    _check_params(t, r, d)
    zero = ring.zero(d)
    ent = []
    for i in range(t):
        row = [random_form(d, ring, rng) for _ in range(r + 1)]
        if i < tr + 1:
            row += [m_small.entry(k, i) for k in range(tr)]
        else:
            row += [zero] * tr
        ent.append(row)
    m_big = FormMatrix(ring, ent, [[d] * (t + 1) for _ in range(t)], hilbert_burch=True)
    return ConstructionPair(t=t, r=r, d=d, m_small=m_small, m_big=m_big)


def build_uniform_pair(t: int, r: int, d: int, rng: random.Random,
                       ring: PolyRing | None = None) -> ConstructionPair:
    """Random construction pair with all entries of degree d."""
    _check_params(t, r, d)
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
    if r < 1:
        raise ValueError("r = 0 is degenerate: the union is M_big itself")
    ring = pair.m_big.ring
    tr = t - r
    first_row = []
    for i in range(r + 1):
        grid = [[pair.m_big.entry(row, i)] + [pair.m_big.entry(row, r + 1 + k) for k in range(tr)]
                for row in range(tr + 1)]
        first_row.append(_det_grid(ring, grid))
    ent = [first_row]
    for row in range(tr + 1, t):
        ent.append([pair.m_big.entry(row, j) for j in range(r + 1)])
    deg = [[(tr + 1) * d] * (r + 1)] + [[d] * (r + 1) for _ in range(r - 1)]
    return FormMatrix(ring, ent, deg)


def gorenstein_generators(pair: ConstructionPair) -> IdealPresentation:
    """Generators of the intersection ideal: all maximal minors of M_small,
    plus the maximal minors of M_big that delete one embedded column.

    That is 2t-2r+1 forms: t-r+1 of degree d(t-r) and t-r of degree dt.
    """
    t, r = pair.t, pair.r
    gens = list(maximal_minors(pair.m_small))
    big = maximal_minors(pair.m_big)
    gens.extend(big[r + 1 + k] for k in range(t - r))
    return IdealPresentation(ring=pair.m_big.ring, generators=tuple(gens))


def skew_matrix_G(pair: ConstructionPair) -> SkewFormMatrix:
    """The odd skew matrix whose principal Pfaffians generate the intersection ideal.

    Size 2t-2r+1. The upper-left (t-r+1) block holds determinants G_i^j of
    the (r+1) x (r+1) matrices built from rows i, j and the bottom r-1 rows
    of the free block; the upper-right block repeats the embedded transpose
    of M_small; the lower-right (t-r) block is identically zero.
    """
    t, r, d = pair.t, pair.r, pair.d
    ring = pair.m_big.ring
    tr = t - r
    q = tr + 1
    size = 2 * t - 2 * r + 1
    tail_rows = list(range(tr + 1, t))
    upper: dict[tuple[int, int], Form] = {}
    for i in range(q):
        for j in range(i + 1, q):
            grid = [[pair.m_big.entry(row, col) for col in range(r + 1)]
                    for row in [i, j] + tail_rows]
            upper[(i, j)] = _det_grid(ring, grid)
        for k in range(tr):
            upper[(i, q + k)] = pair.m_small.entry(k, i)
    return SkewFormMatrix.from_upper(ring, size, upper)
