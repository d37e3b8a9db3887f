"""Exact rank and row-space computation over F_p.

This is the hot kernel behind every Hilbert-function value. The reduced row
echelon form comes from a recursion on the rows: reduce the top half, clear
its pivot columns from the bottom half with one matrix product, reduce the
rest of the bottom half, then clear the new pivot columns from the top half
with a second product. Blocks of at most _LEAF rows are reduced pivot by
pivot. An echelon form is kept as its pivot columns and the block R on the
other (free) columns, so products touch free columns only, and a kernel
basis (kernel_lift) is read off it.

The products run in float64 (BLAS) and are reduced once mod p, in _submul
and _mulmod. With operands in [0, p) an inner product of length k is
at most k*(p-1)**2: while that plus p is at most 2**53 one float64 product
is exact and is reduced in place (_floor_mod); otherwise both sides are
split into 16-bit limbs (_limb_mulsub), whose products stay exact for
k < 2**21. Pivot steps run in int64 with delayed reduction: a step
subtracts a multiple in [0, p) of a reduced pivot row, so it adds at most
(p-1)**2 to the largest |entry|, and the block is reduced only when the
next step could leave int64. That is every two steps at p near 2**31 and
never within a leaf at p = 32003. One path for every p < 2**31.
"""

from __future__ import annotations

import numpy as np

_LEAF = 16
_GATHER = 32


def _submul(a: np.ndarray, bcols: np.ndarray, xcols: np.ndarray, y: np.ndarray,
            p: int) -> np.ndarray:
    """(a[:, bcols] - a[:, xcols] @ y) mod p as float64, for entries in [0, p).
    The column blocks are gathered here, not by the caller: on the float path
    the block of x is freed before that of b is gathered, so the two are
    never alive together."""
    if _float_exact(len(xcols), p):
        c = a[:, xcols] @ y
        np.subtract(a[:, bcols], c, out=c)
        return _floor_mod(c, p)
    c = a[:, bcols].astype(np.int64)
    _limb_mulsub(c, a[:, xcols], y, p)
    c %= p
    return c.astype(np.float64)


def _mulmod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x @ y mod p as float64, for entries in [0, p)."""
    if _float_exact(x.shape[1], p):
        return _floor_mod(x @ y, p)
    c = np.zeros((x.shape[0], y.shape[1]), dtype=np.int64)
    _limb_mulsub(c, x, y, p)
    np.negative(c, out=c)
    c %= p
    return c.astype(np.float64)


def _float_exact(k: int, p: int) -> bool:
    """Whether a float64 product of inner length k over [0, p), and a block
    in [0, p) minus it, are exact and within the range of _floor_mod."""
    return k * (p - 1) ** 2 + p <= 2**53


def _floor_mod(c: np.ndarray, p: int) -> np.ndarray:
    """c mod p in place, for float64 integers with |c| + p <= 2**53, with one
    quotient buffer. Exact on both signs: c / p = q + r / p with q the true
    quotient and 0 <= r < p, so c / p is 0 or at least 1 / p from an integer,
    more than half an ulp of c / p, and floor gives q; q * p, at most
    |c| + p - 1 in size, is a float64 integer."""
    q = c / p
    np.floor(q, out=q)
    q *= p
    c -= q
    return c


def _limb_mulsub(c: np.ndarray, x: np.ndarray, y: np.ndarray, p: int) -> None:
    """c -= x @ y in int64, up to multiples of p, for x, y with entries in
    [0, p) and c in [0, p): both sides split into 16-bit limbs, each limb
    product reduced mod p before it is scaled."""
    yh = np.floor(y / 65536)
    yl = y - 65536 * yh
    # one limb product at a time: the terms are below p * 2**16 (twice),
    # p * p and p, so c stays above -2**63; one limb of x at a time, the
    # high one, then the low one made from it in place
    u = np.floor(x / 65536)
    for v, scale in ((yl, 65536), (yh, 2**32 % p)):
        c -= (u @ v).astype(np.int64) % p * scale
    u *= -65536
    u += x
    for v, scale in ((yl, 1), (yh, 65536)):
        c -= (u @ v).astype(np.int64) % p * scale


def _complement(cols: np.ndarray, k: int) -> np.ndarray:
    keep = np.ones(k, dtype=bool)
    keep[cols] = False
    return keep.nonzero()[0]


def _leaf(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination of a few rows, one pivot at a time, in int64
    with delayed reduction (module docstring). Only the pivot row, before its
    zero test, and the pivot column, the multipliers, are reduced at a step;
    the block when bound, the largest |entry| it may hold, could pass 2**63
    at the next step, and once at the end."""
    a = x[x.any(axis=1)].astype(np.int64)
    bound, step = p - 1, (p - 1) ** 2
    piv = []
    for i, row in enumerate(a):
        row %= p
        nz = row.nonzero()[0]
        if nz.size == 0:
            continue  # zero mod p when reached, so it stays zero
        c = nz[0]
        row[c:] = row[c:] * pow(int(row[c]), p - 2, p) % p
        if bound + step >= 2**63:
            a %= p
            bound = p - 1
        mult = a[:, c] % p
        mult[i] = 0
        # the pivot row is zero left of c, so only columns c.. change
        a[:, c:] -= np.multiply.outer(mult, row[c:])
        bound += step
        piv.append(c)
    a %= p
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


def kernel_lift(k: np.ndarray, ny: int, psi: np.ndarray, p: int) -> np.ndarray:
    """Basis over F_p of the kernel of K = [a | b psi] lifted to
    {(y, z) : a y + b z = 0, z in the column span of psi} by
    (y, c) -> (y, psi c), for psi of full column rank: one vector per column,
    y above z (float64, entries in [0, p)).

    k is K, float64 with entries in [0, p) and ny columns in its y block
    (_mulmod gives b psi). The caller passes its only reference to k: it is
    released once the echelon form exists, before the basis is allocated.
    Each free column f of the reduced echelon form of K gives the vector
    that is 1 at f and -R at the pivots. A pivot in the c block sits in a
    row that is zero on the y block, so the vectors of the free y columns
    have z = 0, and those of the free c columns have z = psi c, a column of
    psi minus psi on the pivot columns of the c block times R there. When
    the c block holds no pivot (no l-torsion, T(e-1) = 0 in hilbert) every
    c column is free and the z block is psi itself, copied in one slice.
    Otherwise it is a _submul whose product is
    as small as the number of those pivots, built _GATHER columns at a time:
    one gather of every selected column would be a temporary as large as psi
    (10 MB for the (4,1,3) intersection ideal).
    """
    piv, r = _rref(k, p)
    free = _complement(piv, k.shape[1])
    del k
    nyf = int(np.searchsorted(free, ny))  # free y columns come first
    inc = piv >= ny
    out = np.zeros((ny + len(psi), len(free)))
    out[free[:nyf], np.arange(nyf)] = 1
    neg = r[~inc]
    np.subtract(p, neg, out=neg, where=neg > 0)
    out[piv[~inc]] = neg
    if not inc.any():
        out[ny:, nyf:] = psi
        return out
    cols, xcols, y = free[nyf:] - ny, piv[inc] - ny, r[inc][:, nyf:]
    for lo in range(0, len(cols), _GATHER):
        hi = lo + _GATHER
        out[ny:, nyf + lo:nyf + hi] = _submul(psi, cols[lo:hi], xcols, y[:, lo:hi], p)
    return out
