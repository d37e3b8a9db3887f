"""Exact rank and row-space computation over F_p.

This is the hot kernel behind every Hilbert-function value. The reduced row
echelon form comes from a recursion on the rows: reduce the top half, clear
its pivot columns from the bottom half with one matrix product, reduce the
rest of the bottom half, then clear the new pivot columns from the top half
with a second product. Blocks of at most _LEAF rows are reduced pivot by
pivot. An echelon form is kept as its pivot columns and the block R on the
other (free) columns, so products touch free columns only.

The products run in float64 (BLAS) and are reduced once mod p in int64, all
in _submul. With operands in [0, p) an inner product of length k is at most
k*(p-1)**2: below 2**53 one float64 product is exact; otherwise both sides
are split into 16-bit limbs, whose products stay exact for k < 2**21. Pivot
steps multiply two entries below 2**31 in int64: one path for every p < 2**31.
"""

from __future__ import annotations

import numpy as np

_LEAF = 16


def _submul(a: np.ndarray, bcols: np.ndarray, xcols: np.ndarray, y: np.ndarray,
            p: int) -> np.ndarray:
    """(a[:, bcols] - a[:, xcols] @ y) mod p as float64, for entries in [0, p).
    The column blocks are gathered here, not by the caller: on the float path
    the block of x is freed before that of b is gathered, so the two are
    never alive together."""
    if len(xcols) * (p - 1) ** 2 < 2**53:
        c = a[:, xcols] @ y
        np.subtract(a[:, bcols], c, out=c)
        c = c.astype(np.int64)
    else:
        x = a[:, xcols]
        yh = np.floor(y / 65536)
        yl = y - 65536 * yh
        # one limb product at a time: the terms are below p * 2**16 (twice),
        # p * p and p, so c stays above -2**63; one limb of x at a time, the
        # high one, then the low one made from it in place
        c = a[:, bcols].astype(np.int64)
        u = np.floor(x / 65536)
        for v, scale in ((yl, 65536), (yh, 2**32 % p)):
            c -= (u @ v).astype(np.int64) % p * scale
        u *= -65536
        u += x
        for v, scale in ((yl, 1), (yh, 65536)):
            c -= (u @ v).astype(np.int64) % p * scale
    c %= p
    return c.astype(np.float64)


def _complement(cols: np.ndarray, k: int) -> np.ndarray:
    keep = np.ones(k, dtype=bool)
    keep[cols] = False
    return keep.nonzero()[0]


def _leaf(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination of a few rows, one pivot at a time."""
    a = x.astype(np.int64)
    piv = []
    for i in a.any(axis=1).nonzero()[0]:
        nz = a[i].nonzero()[0]
        if nz.size == 0:
            continue
        c = nz[0]
        a[i, c:] = a[i, c:] * pow(int(a[i, c]), p - 2, p) % p
        hit = a[:, c].nonzero()[0]
        hit = hit[hit != i]
        # rows of the block are zero left of c, so only columns c.. change
        a[hit, c:] = (a[hit, c:] - a[hit, c, None] * a[i, c:]) % p
        piv.append(c)
    # a row without a pivot is zero when reached and stays zero
    piv = np.array(piv, dtype=np.intp)
    return piv, a[a.any(axis=1)][:, _complement(piv, a.shape[1])].astype(np.float64)


def _rref(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of x (entries in [0, p)) as (piv, float64 R):
    row i is 1 at column piv[i], 0 at the other pivots, R[i] on the rest."""
    m, k = x.shape
    if m <= _LEAF or k == 0:
        return _leaf(x, p)
    h = m // 2
    piv1, r1 = _rref(x[:h], p)
    free1 = _complement(piv1, k)
    piv2, r2 = _rref(_submul(x[h:], free1, piv1, r1, p), p)
    keep = _complement(piv2, len(free1))
    r1 = _submul(r1, keep, piv2, r2, p)
    return np.concatenate([piv1, free1[piv2]]), np.vstack([r1, r2])


def _reduce(a, p: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if a.size and (a.min() < 0 or a.max() >= p):
        a = a % p
    return _rref(a, p)


def rank_modp(a, p: int) -> int:
    """Exact rank of an integer matrix over F_p."""
    return len(_reduce(a, p)[0])


def echelon_basis(a, p: int) -> np.ndarray:
    """Reduced row echelon form (rank x n int64 array, rows in pivot order) of
    the row space over F_p; a row space has exactly one."""
    piv, r = _reduce(a, p)
    order = np.argsort(piv)
    basis = np.zeros((len(piv), np.shape(a)[1]), dtype=np.int64)
    basis[np.arange(len(piv)), piv[order]] = 1
    basis[:, _complement(piv, basis.shape[1])] = r[order]
    return basis
