import random

import pytest

from acmcurves.matforms import (FormMatrix, SkewFormMatrix,
                                determinant, maximal_minors, minor, pfaffian,
                                principal_pfaffians)
from acmcurves.ring import PolyRing, random_form


@pytest.fixture
def ring():
    return PolyRing()


def twisted_cubic(ring):
    x = [ring.variable(i) for i in range(4)]
    return FormMatrix(ring, [[x[0], x[1], x[2]], [x[1], x[2], x[3]]])


def naive_det(ring, grid):
    """Cofactor expansion along the first row; the independent oracle."""
    k = len(grid)
    if k == 1:
        return grid[0][0]
    total = None
    for j in range(k):
        sub = [[row[c] for c in range(k) if c != j] for row in grid[1:]]
        term = grid[0][j] * naive_det(ring, sub)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def random_matrix(ring, rows, cols, d, rng):
    return FormMatrix(ring, [[random_form(d, ring, rng) for _ in range(cols)]
                             for _ in range(rows)])


class TestMinor:
    def test_1x1_minor_is_entry(self, ring):
        m = twisted_cubic(ring)
        assert minor(m, [1], [2]) == m.entry(1, 2)

    def test_2x2_cofactor(self, ring):
        x = [ring.variable(i) for i in range(4)]
        m = FormMatrix(ring, [[x[0], x[1]], [x[1], x[2]]])
        assert minor(m, [0, 1], [0, 1]) == x[0] * x[2] - x[1] * x[1]

    def test_duplicated_column_vanishes(self, ring):
        x = [ring.variable(i) for i in range(4)]
        m = FormMatrix(ring, [[x[0], x[0], x[1]], [x[2], x[2], x[3]], [x[1], x[1], x[0]]])
        assert minor(m, [0, 1, 2], [0, 1, 2]).is_zero

    def test_out_of_range(self, ring):
        with pytest.raises(ValueError):
            minor(twisted_cubic(ring), [0, 1], [0, 5])

    def test_non_square_selection(self, ring):
        with pytest.raises(ValueError):
            minor(twisted_cubic(ring), [0], [0, 1])


class TestMaximalMinors:
    def test_twisted_cubic_minors(self, ring):
        x = [ring.variable(i) for i in range(4)]
        got = maximal_minors(twisted_cubic(ring))
        expected = [x[1] * x[3] - x[2] * x[2],
                    x[0] * x[3] - x[1] * x[2],
                    x[0] * x[2] - x[1] * x[1]]
        for g, e in zip(got, expected):
            assert g == e or g == -e

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_count_and_degree(self, ring, t):
        m = random_matrix(ring, t, t + 1, 1, random.Random(t))
        mm = maximal_minors(m)
        assert len(mm) == t + 1
        assert all(f.degree == t for f in mm)

    def test_shape_check(self, ring):
        with pytest.raises(ValueError):
            maximal_minors(random_matrix(ring, 2, 4, 1, random.Random(0)))

    def test_agrees_with_cofactor_oracle(self, ring):
        rng = random.Random(11)
        for t in (2, 3, 4):
            m = random_matrix(ring, t, t + 1, 1, rng)
            mm = maximal_minors(m)
            for dropped in range(t + 1):
                cols = [c for c in range(t + 1) if c != dropped]
                grid = [[m.entry(i, j) for j in cols] for i in range(t)]
                assert mm[dropped] == naive_det(ring, grid)

    def test_column_scaling_multilinearity(self, ring):
        rng = random.Random(12)
        m = random_matrix(ring, 3, 4, 1, rng)
        s = 1234
        scaled = FormMatrix(ring, [[m.entry(i, j).scale(s) if j == 1 else m.entry(i, j)
                                    for j in range(4)] for i in range(3)])
        base = maximal_minors(m)
        got = maximal_minors(scaled)
        for dropped in range(4):
            expect = base[dropped] if dropped == 1 else base[dropped].scale(s)
            assert got[dropped] == expect


class TestDeterminant:
    def test_matches_oracle_random(self, ring):
        rng = random.Random(13)
        for k in (2, 3, 4):
            m = random_matrix(ring, k, k, 1, rng)
            assert determinant(m) == naive_det(ring, m.entries)

    def test_non_square(self, ring):
        with pytest.raises(ValueError):
            determinant(random_matrix(ring, 2, 3, 1, random.Random(0)))


class TestDegreeMatrix:
    def test_all_linear(self, ring):
        m = random_matrix(ring, 3, 4, 1, random.Random(1))
        assert m.degree_matrix == ((1,) * 4,) * 3

    def test_mixed_degree_grid(self, ring):
        rng = random.Random(2)
        ent = [[random_form(d, ring, rng) for d in (3, 2, 1)] for _ in range(2)]
        m = FormMatrix(ring, ent, [[3, 2, 1], [3, 2, 1]])
        assert m.degree_matrix == ((3, 2, 1), (3, 2, 1))

    def test_transpose_relation(self, ring):
        m = random_matrix(ring, 2, 3, 2, random.Random(3))
        mt = m.transpose()
        expect = tuple(tuple(m.degree_matrix[i][j] for i in range(2)) for j in range(3))
        assert mt.degree_matrix == expect

    def test_zero_entry_keeps_slot(self, ring):
        x0 = ring.variable(0)
        m = FormMatrix(ring, [[x0, ring.zero(3)]], [[1, 3]])
        assert m.degree_matrix == ((1, 3),)

    def test_degree_slot_mismatch_rejected(self, ring):
        x0 = ring.variable(0)
        with pytest.raises(ValueError):
            FormMatrix(ring, [[x0]], [[2]])

    @pytest.mark.parametrize("degrees", [[[1, 1]], [[1], [1]], [[1, 1], [1, 1], [1, 1]], []],
                             ids=["short", "ragged", "long", "empty"])
    def test_degree_matrix_shape_mismatch_rejected(self, ring, degrees):
        x0, x1 = ring.variable(0), ring.variable(1)
        with pytest.raises(ValueError, match="shape"):
            FormMatrix(ring, [[x0, x1], [x1, x0]], degrees)


class TestSkewAndPfaffian:
    def test_skewness_validated(self, ring):
        x0 = ring.variable(0)
        good = SkewFormMatrix.from_upper(ring, 2, {(0, 1): x0})
        assert good.entry(1, 0) == -x0
        with pytest.raises(ValueError):
            SkewFormMatrix(ring, [[ring.zero(), x0], [x0, ring.zero()]])

    def test_pfaffian_2x2_convention(self, ring):
        a = random_form(1, ring, random.Random(5))
        g = SkewFormMatrix.from_upper(ring, 2, {(0, 1): a})
        assert pfaffian(g) == a

    def test_size3_principal_pfaffians(self, ring):
        rng = random.Random(6)
        a, b, c = (random_form(1, ring, rng) for _ in range(3))
        g = SkewFormMatrix.from_upper(ring, 3, {(0, 1): a, (0, 2): b, (1, 2): c})
        assert principal_pfaffians(g) == [c, -b, a]

    def test_principal_count_matches_size(self, ring):
        rng = random.Random(7)
        upper = {(i, j): random_form(1, ring, rng) for i in range(5) for j in range(i + 1, 5)}
        g = SkewFormMatrix.from_upper(ring, 5, upper)
        assert len(principal_pfaffians(g)) == 5

    def test_even_size_rejected_for_principal(self, ring):
        g = SkewFormMatrix.from_upper(ring, 2, {(0, 1): ring.variable(0)})
        with pytest.raises(ValueError):
            principal_pfaffians(g)

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_pfaffian_squares_to_determinant(self, ring, size):
        rng = random.Random(size)
        for _ in range(3):
            upper = {(i, j): random_form(1, ring, rng)
                     for i in range(size) for j in range(i + 1, size)}
            g = SkewFormMatrix.from_upper(ring, size, upper)
            pf = pfaffian(g)
            det = determinant(FormMatrix(ring, g.entries))
            assert pf * pf == det

    def test_odd_determinant_vanishes(self, ring):
        rng = random.Random(10)
        upper = {(i, j): random_form(1, ring, rng) for i in range(3) for j in range(i + 1, 3)}
        g = SkewFormMatrix.from_upper(ring, 3, upper)
        assert determinant(FormMatrix(ring, g.entries)).is_zero

    def test_principal_pfaffians_match_first_row_reference(self, ring):
        """The production recursion picks its expansion row adaptively; check
        its output against a plain first-row expansion."""

        def reference_pf(entries, subset):
            if not subset:
                return ring.one()
            s0 = subset[0]
            total = None
            for pos in range(1, len(subset)):
                e = entries[s0][subset[pos]]
                if e.is_zero:
                    continue
                rest = tuple(x for x in subset[1:] if x != subset[pos])
                term = e * reference_pf(entries, rest)
                if (pos + 1) % 2:
                    term = -term
                total = term if total is None else total + term
            return total if total is not None else ring.zero()

        rng = random.Random(14)
        for size in (3, 5, 7):
            upper = {(i, j): random_form(1, ring, rng)
                     for i in range(size) for j in range(i + 1, size)}
            g = SkewFormMatrix.from_upper(ring, size, upper)
            got = principal_pfaffians(g)
            full = tuple(range(size))
            for i in full:
                ref = reference_pf(g.entries, tuple(x for x in full if x != i))
                if i % 2:
                    ref = -ref
                assert got[i] == ref
