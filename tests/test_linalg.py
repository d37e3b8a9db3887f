import random

import numpy as np
import pytest

from acmcurves.linalg import echelon_basis, rank_modp


def naive_rank(mat, p):
    """Reference elimination with plain Python integers."""
    a = [[int(x) % p for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == m:
            break
    return rank


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (8, 8), (20, 7), (40, 90), (130, 70)])
@pytest.mark.parametrize("p", [32003, 7])
def test_rank_matches_naive(shape, p):
    rng = np.random.default_rng(hash(shape) % 2**32 + p)
    a = rng.integers(0, p, size=shape)
    assert rank_modp(a, p) == naive_rank(a, p)


def test_rank_of_engineered_deficiency():
    p = 32003
    rng = np.random.default_rng(5)
    basis = rng.integers(0, p, size=(6, 40))
    coeffs = rng.integers(0, p, size=(30, 6))
    a = coeffs @ basis % p
    assert rank_modp(a, p) == 6


def test_rank_multi_panel():
    # 200 columns span 4 panels: exercises the trailing-update path
    p = 32003
    rng = np.random.default_rng(6)
    a = rng.integers(0, p, size=(150, 200))
    a[40:80] = (3 * a[0:40]) % p  # duplicate rows drop the rank
    assert rank_modp(a, p) == naive_rank(a, p)


def test_blocked_path_at_large_modulus():
    # 64 * (p-1)**2 < 2**53 admits the blocked path; 140 columns span 3 panels
    p = 1000003
    rng = np.random.default_rng(10)
    a = rng.integers(0, p, size=(90, 140))
    a[60:80] = (5 * a[0:20]) % p
    assert rank_modp(a, p) == naive_rank(a, p) == 70


def _deficient(rng, shape, rank, p):
    """A random matrix of the given rank over F_p, with one zero column."""
    m, n = shape
    coeffs = rng.integers(0, p, size=(m, rank)).astype(object)
    basis = rng.integers(0, p, size=(rank, n)).astype(object)
    a = (coeffs @ basis % p).astype(np.int64)
    a[:, n // 3] = 0
    return a


# 11863099 and 11863477 sit on either side of 64 * (p-1)**2 = 2**53: the
# first runs 64-column panels, the second and 2147483629 one whole-width panel
@pytest.mark.parametrize("shape,rank", [((30, 70), 20), ((70, 30), 25), ((90, 140), 70)])
@pytest.mark.parametrize("p", [11863099, 11863477, 2147483629])
def test_rank_deficient_around_the_panel_switch(shape, rank, p):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1] + p % 997)
    a = _deficient(rng, shape, rank, p)
    assert rank_modp(a, p) == naive_rank(a, p) == rank
    basis = echelon_basis(a, p)
    leads = [int(np.nonzero(row)[0][0]) for row in basis]
    assert len(leads) == rank
    assert leads == sorted(leads) and len(set(leads)) == len(leads)
    assert rank_modp(np.vstack([basis, a]), p) == rank


def test_large_modulus_path():
    p = 2147483629  # prime near 2**31: one whole-width panel
    rng = np.random.default_rng(7)
    a = rng.integers(0, p, size=(12, 9))
    assert rank_modp(a, p) == naive_rank(a, p)


def test_zero_and_empty():
    assert rank_modp(np.zeros((4, 4), dtype=np.int64), 32003) == 0
    assert rank_modp(np.zeros((0, 5), dtype=np.int64), 32003) == 0


def test_one_dimensional_input_refused():
    with pytest.raises(ValueError, match="expected a 2-d matrix"):
        rank_modp(np.arange(4), 32003)


def test_echelon_basis_spans_row_space():
    p = 32003
    rng = np.random.default_rng(8)
    a = rng.integers(0, p, size=(25, 18))
    a[10:20] = (a[0:10] * 7) % p
    basis = echelon_basis(a, p)
    assert basis.shape[0] == rank_modp(a, p)
    # every original row must be dependent on the basis
    for row in a:
        stacked = np.vstack([basis, row[None, :]])
        assert rank_modp(stacked, p) == basis.shape[0]


def test_echelon_basis_is_staircase():
    p = 101
    rng = np.random.default_rng(9)
    a = rng.integers(0, p, size=(10, 14))
    basis = echelon_basis(a, p)
    leads = [int(np.nonzero(row)[0][0]) for row in basis]
    assert leads == sorted(leads) and len(set(leads)) == len(leads)
