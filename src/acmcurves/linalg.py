"""Exact rank and row-space computation over F_p.

This is the hot kernel behind every Hilbert-function value. It runs a
right-looking blocked Gaussian elimination: pivots are found and eliminated
panel by panel with vectorized integer ops, and the trailing columns are
then updated with float64 matrix products, which BLAS makes fast.

Exactness of the float64 products: every operand is reduced into [0, p),
so an inner product over a panel of at most `block` columns is bounded by
block * (p-1)**2. The blocked path runs only while that bound is below
2**53 (with the default block of 64, for p below about 1.2e7), so every
intermediate is an exactly representable integer. Larger moduli fall back
to the plain per-pivot elimination.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 64


def _eliminate(a: np.ndarray, p: int, block: int) -> int:
    """In-place row reduction of an int64 matrix mod p; returns the rank.

    On exit, rows [0, rank) hold a row-echelon basis of the row space and
    all later rows are zero.
    """
    m, n = a.shape
    r = 0
    c = 0
    while r < m and c < n:
        b = min(block, n - c)
        panel = a[r:, c:c + b]
        panel %= p
        mults = np.zeros((m - r, b), dtype=np.int64)
        scales = np.zeros(b, dtype=np.int64)
        k = 0
        for j in range(b):
            nz = np.nonzero(panel[k:, j])[0]
            if nz.size == 0:
                continue
            i = k + int(nz[0])
            if i != k:
                a[[r + k, r + i], :] = a[[r + i, r + k], :]
                mults[[k, i], :] = mults[[i, k], :]
            inv = pow(int(panel[k, j]), p - 2, p)
            panel[k, j:] = panel[k, j:] * inv % p
            scales[k] = inv
            f = panel[k + 1:, j]
            rows = np.nonzero(f)[0]
            if rows.size:
                fr = f[rows]
                panel[k + 1 + rows, j:] = (panel[k + 1 + rows, j:] - fr[:, None] * panel[k, j:][None, :]) % p
                mults[k + 1 + rows, k] = fr
            k += 1
            if r + k == m:
                break
        ntrail = n - (c + b)
        if k > 0 and ntrail > 0:
            trail = a[r:, c + b:]
            # Pivot rows were scaled and eliminated against each other inside
            # the panel; replay that triangular transform on their trailing
            # parts: final_k = s_k * (orig_k - sum_{i<k} m_ki * final_i).
            finals = np.empty((k, ntrail), dtype=np.float64)
            for kk in range(k):
                row = trail[kk].astype(np.float64)
                if kk:
                    row = (row - mults[kk, :kk].astype(np.float64) @ finals[:kk]) % p
                finals[kk] = row * float(scales[kk]) % p
            trail[:k] = finals.astype(np.int64)
            if m - r - k > 0:
                upd = mults[k:, :k].astype(np.float64) @ finals
                trail[k:] = (trail[k:] - upd.astype(np.int64)) % p
        r += k
        c += b
    return r


def _eliminate_simple(a: np.ndarray, p: int) -> int:
    """Per-pivot elimination; the safe path for large moduli."""
    m, n = a.shape
    a %= p
    r = 0
    for c in range(n):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], :] = a[[i, r], :]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        f = a[r + 1:, c]
        rows = np.nonzero(f)[0]
        if rows.size:
            a[r + 1 + rows, c:] = (a[r + 1 + rows, c:] - f[rows][:, None] * a[r, c:][None, :]) % p
        r += 1
        if r == m:
            break
    if r < m:
        a[r:, :] = 0
    return r


def _reduce(a, p: int, block: int) -> tuple[np.ndarray, int]:
    a = np.array(a, dtype=np.int64, order="C", copy=True)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if a.size == 0:
        return a, 0
    a %= p
    if block * (p - 1) ** 2 < 2**53:
        rank = _eliminate(a, p, block)
    else:
        rank = _eliminate_simple(a, p)
    return a, rank


def rank_modp(a, p: int, block: int = _BLOCK) -> int:
    """Exact rank of an integer matrix over F_p."""
    return _reduce(a, p, block)[1]


def echelon_basis(a, p: int, block: int = _BLOCK) -> np.ndarray:
    """Row-echelon basis (rank x n int64 array) of the row space over F_p."""
    reduced, rank = _reduce(a, p, block)
    return reduced[:rank]
