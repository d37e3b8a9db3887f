import random

import pytest

from acmcurves.construct import (ConstructionPair, DegenerateSample, build_linear_pair,
                                 build_uniform_pair, embed_pair, gorenstein_generators,
                                 skew_matrix_G, union_matrix)
from acmcurves.hilbert import IdealPresentation, ideal_piece_dim
from acmcurves.matforms import FormMatrix, maximal_minors
from acmcurves.ring import PolyRing, random_form
from test_matforms import naive_det

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

    @pytest.mark.parametrize("case,match", [
        ("small-shape", "M_small has the wrong shape"),
        ("big-shape", "M_big has the wrong shape"),
        ("zero-block", "zero block violated at \\(3,0\\)"),
    ])
    def test_pair_refusals(self, case, match):
        pair = build_linear_pair(4, 2, random.Random(2))
        small, big = pair.m_small, pair.m_big
        if case == "small-shape":
            small = pair.m_small.transpose()
        elif case == "big-shape":
            big = FormMatrix(big.ring, big.entries[:3], big.degree_matrix[:3])
        else:
            ent = [list(row) for row in big.entries]
            ent[3][3] = ent[3][0]
            big = FormMatrix(big.ring, ent, big.degree_matrix)
        with pytest.raises(ValueError, match=match):
            ConstructionPair(t=4, r=2, d=1, m_small=small, m_big=big)

    @pytest.mark.parametrize("degrees,match", [
        ([[1, 1]] * 2, "shape \\(t-r\\) x \\(t-r\\+1\\)"),
        ([[1, 2]], "share one degree"),
    ])
    def test_embed_refusals(self, ring, degrees, match):
        rng = random.Random(3)
        small = FormMatrix(ring, [[random_form(k, ring, rng) for k in row] for row in degrees])
        with pytest.raises(ValueError, match=match):
            embed_pair(small, 3, rng)

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


@pytest.mark.parametrize("p", [5, 32003, 2147483629])
@pytest.mark.parametrize("t,r,d", [(2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 1, 1), (4, 3, 1),
                                   (5, 2, 1), (2, 1, 2), (3, 2, 2)])
class TestUnionIdentity:
    """The maximal minors of M_big that delete a free column are +-those of
    the union matrix, and lie in the ideal of M_small's minors: with the
    generators, those minors generate I_{C_t} + I_{C_{t-r}}
    (gorenstein_generators)."""

    def pair(self, t, r, d, p):
        return build_uniform_pair(t, r, d, random.Random(500 + 100 * t + 10 * r + d),
                                  ring=PolyRing(p, 4))

    @staticmethod
    def matches(union, pair):
        return all(f == g or f == -g
                   for f, g in zip(maximal_minors(union), pair.minors[1][:pair.r + 1]))

    def test_union_minors_are_the_free_column_minors(self, t, r, d, p):
        pair = self.pair(t, r, d, p)
        union = union_matrix(pair)
        assert len(maximal_minors(union)) == r + 1 and self.matches(union, pair)

    def test_free_column_minors_lie_in_the_small_ideal(self, t, r, d, p):
        pair = self.pair(t, r, d, p)
        small = IdealPresentation(pair.m_big.ring, pair.minors[0])
        degree = d * t
        for f in pair.minors[1][:r + 1]:
            grown = IdealPresentation(small.ring, (*small.generators, f))
            assert ideal_piece_dim(grown, degree) == ideal_piece_dim(small, degree)

    def test_perturbed_union_entry_breaks_the_identity(self, t, r, d, p):
        pair = self.pair(t, r, d, p)
        u = union_matrix(pair)
        rng = random.Random(t + r + d)
        i, j = rng.randrange(u.rows), rng.randrange(u.cols)
        entries = [list(row) for row in u.entries]
        entries[i][j] = entries[i][j] + random_form(u.degree_matrix[i][j], u.ring, rng)
        assert not self.matches(FormMatrix(u.ring, entries, u.degree_matrix), pair)


class TestUnionDegree:
    @pytest.mark.parametrize("t,r,d", [(3, 1, 1), (4, 2, 1), (5, 3, 1), (2, 1, 2)])
    def test_union_curve_degree_is_sum_of_curve_degrees(self, t, r, d):
        from acmcurves.formulas import deg_acm
        from acmcurves.hilbert import hilbert_function

        pair = build_uniform_pair(t, r, d, random.Random(100 + t + r + d))
        u = union_matrix(pair)
        if u.rows == 1:
            gens = tuple(u.entries[0])  # 1x2: the union is the CI of the two entries
        else:
            gens = tuple(maximal_minors(u))
        ideal = IdealPresentation(ring=u.ring, generators=gens)
        prof = hilbert_function(ideal, 2 * t * d + 4)
        # a curve's Hilbert function grows by its degree once the h-vector
        # has ended; the profile of a curve has no certificate, so read the
        # degree off the last first differences, which must agree
        v = prof.values
        assert v[-1] - v[-2] == v[-2] - v[-3] == deg_acm(t, d) + deg_acm(t - r, d)


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

    def test_zero_minor_is_a_degenerate_sample(self, ring):
        # M_small = [x0, 0]: the minor deleting column 0 is the zero entry
        small = FormMatrix(ring, [[ring.variable(0), ring.zero(1)]], [[1, 1]])
        pair = embed_pair(small, 2, random.Random(10))
        with pytest.raises(DegenerateSample, match="zero maximal minor: generator 0"):
            gorenstein_generators(pair)

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

    @pytest.mark.parametrize("p", [32003, 2147483629, 11])
    @pytest.mark.parametrize("t,r,d", [(t, r, d) for t in range(2, 8) for r in range(1, t)
                                       for d in ((1, 2) if t <= 3 else (1,))])
    def test_principal_pfaffians_are_the_generators_up_to_sign(self, t, r, d, p):
        # the form identity the harness's Pfaffian check rests on
        from acmcurves.matforms import principal_pfaffians
        pair = build_uniform_pair(t, r, d, random.Random(100 * t + 10 * r + d),
                                  ring=PolyRing(p, 4))
        gens = gorenstein_generators(pair).generators
        pfs = principal_pfaffians(skew_matrix_G(pair))
        assert len(pfs) == len(gens) == 2 * t - 2 * r + 1
        for f, g in zip(pfs, gens):
            assert f == g or f == -g

    def test_4_2_principal_pfaffian_degrees(self):
        from acmcurves.matforms import principal_pfaffians
        pair = build_linear_pair(4, 2, random.Random(15))
        pfs = principal_pfaffians(skew_matrix_G(pair))
        assert len(pfs) == 5
        assert sorted(p.degree for p in pfs) == [2, 2, 2, 4, 4]

    def test_cofactors_come_from_one_table(self, monkeypatch):
        # every G_i^j expands against minors of the free block from one table
        from acmcurves import matforms
        pair = build_linear_pair(6, 3, random.Random(631))
        tables, real = [], matforms._table
        monkeypatch.setattr(matforms, "_table", lambda *args: tables.append(args) or real(*args))
        skew_matrix_G(pair)
        assert len(tables) == 1


# r = 1 (no tail rows), r = t-1 (q = 2) and d > 1; the large prime takes
# the 16-bit limb path of the table products
BLOCK_CASES = [(2, 1, 1), (3, 1, 1), (4, 2, 1), (5, 2, 1), (5, 4, 1), (6, 3, 1), (2, 1, 2),
               (3, 2, 2)]


@pytest.mark.parametrize("p", [32003, 2147483629])
@pytest.mark.parametrize("t,r,d", BLOCK_CASES)
class TestBlocksAgainstCofactorOracle:
    """The union and skew blocks against a plain cofactor expansion of the
    grids they are defined by, signs included."""

    def pair(self, t, r, d, p):
        return build_uniform_pair(t, r, d, random.Random(1000 * t + 100 * r + d),
                                  ring=PolyRing(p, 4))

    def test_union_first_row(self, t, r, d, p):
        pair = self.pair(t, r, d, p)
        big, tr = pair.m_big, t - r
        u = union_matrix(pair)
        for i in range(r + 1):
            grid = [[big.entry(row, i)] + [big.entry(row, r + 1 + k) for k in range(tr)]
                    for row in range(tr + 1)]
            assert u.entry(0, i) == naive_det(big.ring, grid)

    def test_skew_determinant_block(self, t, r, d, p):
        pair = self.pair(t, r, d, p)
        big, q = pair.m_big, t - r + 1
        g = skew_matrix_G(pair)
        for i in range(q):
            for j in range(i + 1, q):
                grid = [[big.entry(row, col) for col in range(r + 1)]
                        for row in [i, j, *range(q, t)]]
                assert g.entry(i, j) == naive_det(big.ring, grid)
                assert g.entry(j, i) == -g.entry(i, j)
