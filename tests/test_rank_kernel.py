"""The recursive rank kernel against the plain-integer reference.

Shapes are chosen around the recursion: row counts at and next to the leaf
size and its doubles, ranks that reach the column count before the last
row, zero rows and columns, and moduli on both sides of the float64/limb
switch of the product helpers. kernel_lift is checked against the same
integer reference.
"""

import numpy as np
import pytest
from test_linalg import naive_rank

from acmcurves.linalg import (_LEAF, _leaf, _mulmod, _submul, echelon_basis, kernel_lift,
                              rank_modp)

PRIMES = [7, 32003, 11863477, 2147483629]


def low_rank(rng, m, n, rank, p):
    """A random m x n matrix of rank at most `rank` over F_p."""
    coeffs = rng.integers(0, p, size=(m, rank)).astype(object)
    basis = rng.integers(0, p, size=(rank, n)).astype(object)
    return (coeffs @ basis % p).astype(np.int64)


def check(a, p):
    """rank_modp equals the reference; the echelon basis has that many rows,
    a strict staircase of leading columns, and spans the row space."""
    rank = naive_rank(a, p)
    assert rank_modp(a, p) == rank
    basis = echelon_basis(a, p)
    assert basis.shape == (rank, a.shape[1])
    assert basis.min(initial=0) >= 0 and basis.max(initial=0) < p
    leads = [int(np.flatnonzero(row)[0]) for row in basis]
    assert all(x < y for x, y in zip(leads, leads[1:]))
    if rank:
        assert naive_rank(np.vstack([basis, a]), p) == rank
    return rank


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("m,n", [(20, 45), (45, 20), (37, 37), (60, 100), (100, 60), (66, 66)])
def test_fuzz_rank_deficient(m, n, p):
    rng = np.random.default_rng(m * 1000 + n + p % 1009)
    for _ in range(3):
        check(low_rank(rng, m, n, int(rng.integers(0, min(m, n))), p), p)


@pytest.mark.parametrize("p", [7, 2147483629])
def test_zero_rows_and_columns(p):
    rng = np.random.default_rng(p % 97)
    a = low_rank(rng, 50, 40, 12, p)
    a[[0, 7, 17, 18, 33, 49]] = 0
    a[:, [0, 1, 5, 20, 39]] = 0
    assert check(a, p) == 12
    assert check(np.zeros((40, 0), dtype=np.int64), p) == 0
    assert check(np.zeros((0, 9), dtype=np.int64), p) == 0
    assert check(np.zeros((33, 21), dtype=np.int64), p) == 0


@pytest.mark.parametrize("p", [32003, 2147483629])
@pytest.mark.parametrize("m,n", [(60, 8), (90, 30), (40, 17)])
def test_rank_reaches_n_before_the_last_row(m, n, p):
    # full column rank is reached in the top rows; the rest is zero width
    rng = np.random.default_rng(m + n)
    a = rng.integers(0, p, size=(m, n))
    assert check(a, p) == n


@pytest.mark.parametrize("p", [7, 32003, 2147483629])
@pytest.mark.parametrize("rows", [_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF - 1,
                                  2 * _LEAF, 2 * _LEAF + 1, 4 * _LEAF + 1])
def test_rows_around_the_leaf_size(rows, p):
    rng = np.random.default_rng(rows * 31 + p % 13)
    for n, rank in [(rows + 9, rows - 3), (rows - 2, rows - 2), (2 * rows, rows)]:
        check(low_rank(rng, rows, n, rank, p), p)


def submul(b, x, y, p):
    """b - x @ y mod p through _submul, with b and x the column blocks of one matrix."""
    a = np.hstack([b, x])
    return _submul(a, np.arange(b.shape[1]), np.arange(b.shape[1], a.shape[1]), y, p)


@pytest.mark.parametrize("p", [32003, 11863099, 2147483629])
@pytest.mark.parametrize("k", [1, 64, 65, 4096, 2**21 - 1])
def test_products_exact_at_worst_case_magnitude(k, p):
    # every operand entry p - 1: each inner product is k*(p-1)**2, the
    # largest the helper can meet. (p-1)**2 = 1 mod p, so (b - x @ y) = b - k.
    # At p = 11863099, k = 64 is the last float64 product and 65 the first
    # limb product; 4096 exceeds the widest Macaulay matrix verify ranks
    # (2925 columns) and 2**21 - 1 is the largest k the limbs allow.
    rows, cols = (1, 1) if k > 4096 else (3, 5)
    x = np.full((rows, k), p - 1, dtype=np.float64)
    y = np.full((k, cols), p - 1, dtype=np.float64)
    b = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols) % p
    got = submul(b, x, y, p)
    assert got.dtype == np.float64
    assert np.array_equal(got, (b - k) % p)


@pytest.mark.parametrize("p", [32003, 11863099, 2147483629])
@pytest.mark.parametrize("k", [3, 64, 65, 700])
def test_products_match_integer_arithmetic(k, p):
    rng = np.random.default_rng(k + p % 101)
    x = rng.integers(0, p, size=(9, k))
    y = rng.integers(0, p, size=(k, 11))
    b = rng.integers(0, p, size=(9, 11))
    want = (b.astype(object) - x.astype(object) @ y.astype(object)) % p
    got = submul(b.astype(np.float64), x.astype(np.float64), y.astype(np.float64), p)
    assert np.array_equal(got.astype(np.int64), want.astype(np.int64))


@pytest.mark.parametrize("p", [32003, 11863099])
def test_submul_float_reduction_at_the_most_negative_c(p):
    # b = 0 and x @ y as large as the float path allows (k (p-1)**2 + p is
    # at most 2**53), so c = b - x @ y is the most negative value reduced in
    # place. y[0] puts x @ y at 0 and at 1 mod p: results 0 and p - 1, where
    # a quotient rounded the wrong way would give p or -1
    k = (2**53 - p) // (p - 1) ** 2
    x = np.full((1, k), p - 1, dtype=np.float64)
    for y0, want in [((k - 1) % p, 0), ((k - 2) % p, p - 1)]:
        y = np.full((k, 1), p - 1, dtype=np.float64)
        y[0] = y0
        c = -(p - 1) * ((k - 1) * (p - 1) + y0)
        assert c % p == want and -c + p <= 2**53 and (x @ y)[0, 0] == -c
        got = submul(np.zeros((1, 1)), x, y, p)
        assert got.dtype == np.float64 and got[0, 0] == want


@pytest.mark.parametrize("p", [32003, 11863099, 2147483629])
@pytest.mark.parametrize("k", [1, 64, 65, 4096])
def test_mulmod_exact_at_worst_case_magnitude(k, p):
    # every entry p - 1, so every entry of x @ y is k*(p-1)**2 = k mod p
    x = np.full((3, k), p - 1, dtype=np.float64)
    y = np.full((k, 5), p - 1, dtype=np.float64)
    got = _mulmod(x, y, p)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.full((3, 5), k % p))


@pytest.mark.parametrize("p", [32003, 11863099])
def test_mulmod_float_reduction_at_residue_p_minus_1(p):
    # the largest float path for p: k (p-1)**2 < 2**53, and x @ y is one
    # below a multiple of p, where a quotient rounded up would give -1
    k = (2**53 - 1) // (p - 1) ** 2
    x = np.full((1, k), p - 1, dtype=np.float64)
    y = np.full((k, 1), p - 1, dtype=np.float64)
    y[0] = k % p
    c = (p - 1) * ((k - 1) * (p - 1) + k % p)
    assert c % p == p - 1 and c < 2**53 and (x @ y)[0, 0] == c
    assert _mulmod(x, y, p)[0, 0] == p - 1


@pytest.mark.parametrize("p", [32003, 11863099, 2147483629])
@pytest.mark.parametrize("k", [0, 3, 65, 700])
def test_mulmod_matches_integer_arithmetic(k, p):
    rng = np.random.default_rng(k + p % 103)
    x = rng.integers(0, p, size=(9, k))
    y = rng.integers(0, p, size=(k, 11))
    want = x.astype(object) @ y.astype(object) % p if k else np.zeros((9, 11))
    got = _mulmod(x.astype(np.float64), y.astype(np.float64), p)
    assert np.array_equal(got.astype(np.int64), np.asarray(want, dtype=np.int64))


def lift_case(rng, p, ny, nb, h, rank_a, rank_bpsi):
    """a (m x ny) of rank rank_a, psi (nb x h) of full column rank, and b
    with b @ psi of rank rank_bpsi; rows of b @ psi reach past a's row space,
    so the c block gets pivots."""
    m = rank_a + rank_bpsi + 3
    psi = low_rank(rng, nb, h, h, p)
    assert naive_rank(psi, p) == h
    a = low_rank(rng, m, ny, rank_a, p)
    b = low_rank(rng, m, nb, rank_bpsi, p)
    return a, b, psi


@pytest.mark.parametrize("p", [32003, 2147483629])
@pytest.mark.parametrize("ny,nb,h,rank_a,rank_bpsi", [
    (0, 6, 4, 0, 2), (5, 0, 0, 3, 0), (8, 30, 12, 5, 0), (8, 30, 12, 5, 7),
    (20, 40, 25, 10, 25), (3, 50, 40, 3, 30), (8, 90, 70, 5, 0), (8, 90, 75, 5, 9)])
def test_kernel_lift_spans_the_lifted_kernel(ny, nb, h, rank_a, rank_bpsi, p):
    # the columns solve a y + b z = 0 with z in the span of psi, are
    # independent, and number dim ker [a | b psi], the dimension of that space
    rng = np.random.default_rng(ny * 100 + nb + h + p % 7)
    a, b, psi = lift_case(rng, p, ny, nb, h, rank_a, rank_bpsi)
    a, b, psi = (x.astype(np.float64) for x in (a, b, psi))
    out = kernel_lift(np.hstack([a, _mulmod(b, psi, p)]), ny, psi, p)
    a, b, psi = (x.astype(np.int64) for x in (a, b, psi))
    assert out.dtype == np.float64 and out.shape[0] == ny + nb
    assert out.min(initial=0) >= 0 and out.max(initial=0) < p
    vecs = out.astype(np.int64).astype(object)
    y, z = vecs[:ny], vecs[ny:]
    assert not np.any((a.astype(object) @ y + b.astype(object) @ z) % p)
    k = np.hstack([a.astype(object), b.astype(object) @ psi.astype(object) % p]).astype(np.int64)
    dim = ny + h - naive_rank(k, p)
    assert out.shape[1] == dim
    assert naive_rank(out.astype(np.int64).T, p) == dim
    if dim and h:
        assert naive_rank(np.hstack([psi, z.astype(np.int64)]), p) == h


@pytest.mark.parametrize("p", [32003, 2147483629])
def test_pivot_steps_exact_at_worst_case_magnitude(p):
    full = np.full((3 * _LEAF, 50), p - 1, dtype=np.int64)
    assert check(full, p) == 1
    upper = np.triu(full[:40, :40])
    assert check(upper, p) == 40


def test_entries_outside_the_field_are_reduced():
    p = 101
    rng = np.random.default_rng(3)
    a = low_rank(rng, 30, 25, 9, p)
    a[:, ::3] = 0
    # every entry moves by a nonzero multiple of p: zeros become +-p, 2p, ...
    shifted = a + p * rng.choice([-3, -1, 1, 2], size=a.shape)
    assert rank_modp(shifted, p) == 9
    assert np.array_equal(echelon_basis(shifted, p), echelon_basis(a, p))


def echelon_reference(mat, p):
    """Reduced row echelon form with plain Python integers, nonzero rows in
    pivot order."""
    a = [[int(x) % p for x in row] for row in mat]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return np.array(a[:rank], dtype=np.int64).reshape(rank, len(a[0]) if a else 0)


def test_leaf_crosses_the_int64_bound():
    # At p = 2147483629 a pivot step adds up to (p-1)**2, about 2**62, to an
    # entry, so the block must be reduced every two steps. One leaf of 16
    # rows near p - 1 takes 13 steps. Rows 5, 7 and 15 are combinations of
    # earlier rows: each is zero mod p when reached, but holds nonzero
    # multiples of p after the steps since the last reduction (one, two and
    # one of them), so it must be reduced before its zero test and must not
    # pivot.
    p = 2147483629
    assert _LEAF == 16
    rng = np.random.default_rng(16)
    a = rng.integers(p - 2**20, p, size=(_LEAF, 24)).astype(object)
    a[5] = (a[0] + 3 * a[2]) % p
    a[7] = (7 * a[1] + a[6] + (p - 1) * a[4]) % p
    a[15] = (a[3] + (p - 2) * a[9] + a[12] + 5 * a[14]) % p
    a = a.astype(np.int64)
    want = echelon_reference(a, p)
    assert len(want) == naive_rank(a, p) == 13
    piv, r = _leaf(a.astype(np.float64), p)
    leads = [int(np.flatnonzero(row)[0]) for row in want]
    assert piv.tolist() == leads == list(range(13))
    assert np.array_equal(r, want[:, 13:])
    assert rank_modp(a, p) == 13
    assert np.array_equal(echelon_basis(a, p), want)
