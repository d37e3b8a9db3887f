import random

import pytest

from acmcurves.construct import (ConstructionPair, build_linear_pair, build_uniform_pair,
                                 embed_pair, gorenstein_generators, skew_matrix_G,
                                 union_matrix)
from acmcurves.matforms import FormMatrix
from acmcurves.ring import PolyRing

GRID = [(t, r) for t in range(2, 7) for r in range(1, t)]


@pytest.fixture
def ring():
    return PolyRing()


class TestLayout:
    @pytest.mark.parametrize("t,r", GRID)
    def test_shapes_and_blocks(self, t, r):
        pair = build_linear_pair(t, r, random.Random(0))
        assert (pair.m_small.rows, pair.m_small.cols) == (t - r, t - r + 1)
        assert (pair.m_big.rows, pair.m_big.cols) == (t, t + 1)
        # embedded transpose: M_big[i][r+1+k] == M_small[k][i]
        for i in range(t - r + 1):
            for k in range(t - r):
                assert pair.m_big.entry(i, r + 1 + k) == pair.m_small.entry(k, i)
        # forced zero block below it
        for i in range(t - r + 1, t):
            for k in range(t - r):
                assert pair.m_big.entry(i, r + 1 + k).is_zero

    def test_smallest_case(self):
        pair = build_linear_pair(2, 1, random.Random(1))
        assert (pair.m_small.rows, pair.m_small.cols) == (1, 2)
        assert (pair.m_big.rows, pair.m_big.cols) == (2, 3)

    def test_rejects_misplaced_block(self):
        pair = build_linear_pair(4, 2, random.Random(2))
        ent = [list(row) for row in pair.m_big.entries]
        ent[0][3], ent[0][2] = ent[0][2], ent[0][3]  # a free-block entry into the embedded block
        shifted = FormMatrix(pair.m_big.ring, ent)
        with pytest.raises(ValueError, match="embedded block"):
            ConstructionPair(t=4, r=2, d=1, m_small=pair.m_small, m_big=shifted)

    @pytest.mark.parametrize("t,r,d", [(2, 1, 3), (3, 1, 2), (3, 2, 2)])
    def test_uniform_degrees(self, t, r, d):
        pair = build_uniform_pair(t, r, d, random.Random(3))
        assert pair.d == d
        for i in range(t):
            for j in range(t + 1):
                assert pair.m_big.degree_matrix[i][j] == d

    def test_uniform_d1_matches_linear(self):
        a = build_uniform_pair(3, 1, 1, random.Random(9))
        b = build_linear_pair(3, 1, random.Random(9))
        assert a.m_big == b.m_big and a.m_small == b.m_small

    def test_embed_existing_small_matrix(self, ring):
        x = [ring.variable(i) for i in range(4)]
        tc = FormMatrix(ring, [[x[0], x[1], x[2]], [x[1], x[2], x[3]]])
        pair = embed_pair(tc, 4, random.Random(4))
        assert pair.m_small == tc
        assert pair.m_big.entry(0, 3) == x[0]
        assert pair.m_big.entry(2, 4) == x[3]

    @pytest.mark.parametrize("t,r,d", [(1, 1, 1), (3, 0, 1), (3, 3, 1), (3, 1, 0)])
    def test_parameter_validation(self, t, r, d):
        with pytest.raises(ValueError):
            build_uniform_pair(t, r, d, random.Random(0))

    def test_determinism(self):
        a = build_uniform_pair(4, 2, 1, random.Random(77))
        b = build_uniform_pair(4, 2, 1, random.Random(77))
        assert a.m_big == b.m_big


class TestUnionMatrix:
    def test_4_2_shape_and_degrees(self):
        pair = build_linear_pair(4, 2, random.Random(5))
        u = union_matrix(pair)
        assert (u.rows, u.cols) == (2, 3)
        assert u.degree_matrix[0] == (3, 3, 3)
        assert u.degree_matrix[1] == (1, 1, 1)
        # second row is the bottom row of the free block
        for j in range(3):
            assert u.entry(1, j) == pair.m_big.entry(3, j)

    def test_degree_matrix_general(self):
        pair = build_linear_pair(5, 3, random.Random(6))
        u = union_matrix(pair)
        assert u.degree_matrix[0] == (3, 3, 3, 3)
        assert all(u.degree_matrix[i] == (1, 1, 1, 1) for i in (1, 2))

    def test_r1_uniform_degrees(self):
        # r = 1: a single row of two forms of degree (t-r+1)*d
        pair = build_uniform_pair(2, 1, 2, random.Random(7))
        u = union_matrix(pair)
        assert (u.rows, u.cols) == (1, 2)
        assert u.degree_matrix[0] == (4, 4)
        assert all(not u.entry(0, j).is_zero for j in range(2))


class TestUnionDegree:
    @pytest.mark.parametrize("t,r,d", [(3, 1, 1), (4, 2, 1), (5, 3, 1), (2, 1, 2)])
    def test_union_curve_degree_is_sum_of_curve_degrees(self, t, r, d):
        from acmcurves.formulas import deg_acm
        from acmcurves.hilbert import (IdealPresentation, h_vector_from_profile,
                                       hilbert_function)
        from acmcurves.matforms import maximal_minors

        pair = build_uniform_pair(t, r, d, random.Random(100 + t + r + d))
        u = union_matrix(pair)
        if u.rows == 1:
            gens = tuple(u.entries[0])  # 1x2: the union is the CI of the two entries
        else:
            gens = tuple(maximal_minors(u))
        ideal = IdealPresentation(ring=u.ring, generators=gens)
        prof = hilbert_function(ideal, 2 * t * d + 4)
        h = h_vector_from_profile(prof, 2)
        assert sum(h) == deg_acm(t, d) + deg_acm(t - r, d)


class TestGenerators:
    def test_4_2_counts_and_degrees(self):
        pair = build_linear_pair(4, 2, random.Random(8))
        gens = gorenstein_generators(pair)
        degs = sorted(g.degree for g in gens.generators)
        assert degs == [2, 2, 2, 4, 4]

    def test_2_1_degrees(self):
        pair = build_linear_pair(2, 1, random.Random(9))
        gens = gorenstein_generators(pair)
        assert sorted(g.degree for g in gens.generators) == [1, 1, 2]

    @pytest.mark.parametrize("t,r", GRID)
    def test_generator_count(self, t, r):
        pair = build_linear_pair(t, r, random.Random(10))
        assert len(gorenstein_generators(pair).generators) == 2 * t - 2 * r + 1

    def test_small_minors_included(self):
        pair = build_linear_pair(3, 1, random.Random(11))
        from acmcurves.matforms import maximal_minors
        gens = set()
        for g in gorenstein_generators(pair).generators:
            gens.add(frozenset(g.terms.items()))
        for m in maximal_minors(pair.m_small):
            assert frozenset(m.terms.items()) in gens


class TestSkewMatrix:
    @pytest.mark.parametrize("t,r", GRID)
    def test_size_and_zero_block(self, t, r):
        pair = build_linear_pair(t, r, random.Random(12))
        g = skew_matrix_G(pair)
        assert g.size == 2 * t - 2 * r + 1
        q = t - r + 1
        for i in range(q, g.size):
            for j in range(q, g.size):
                assert g.entry(i, j).is_zero

    def test_4_2_block_degrees(self):
        pair = build_linear_pair(4, 2, random.Random(13))
        g = skew_matrix_G(pair)
        # determinant block has degree r+1 = 3, repeated transpose block degree 1
        assert g.entry(0, 1).degree == 3
        assert g.entry(0, 2).degree == 3
        assert g.entry(0, 3).degree == 1
        assert g.entry(0, 3) == pair.m_small.entry(0, 0)

    def test_uniform_block_degrees(self):
        pair = build_uniform_pair(3, 1, 2, random.Random(14))
        g = skew_matrix_G(pair)
        assert g.entry(0, 1).degree == (pair.r + 1) * 2
        assert g.entry(0, g.size - 1).degree == 2

    def test_4_2_principal_pfaffian_degrees(self):
        from acmcurves.matforms import principal_pfaffians
        pair = build_linear_pair(4, 2, random.Random(15))
        pfs = principal_pfaffians(skew_matrix_G(pair))
        assert len(pfs) == 5
        assert sorted(p.degree for p in pfs) == [2, 2, 2, 4, 4]
