import random

import pytest

from acmcurves.construct import build_linear_pair, gorenstein_generators
from acmcurves.formulas import bound_linear, h_vector_gorenstein
from acmcurves.hilbert import (IdealPresentation, h_vector_from_profile,
                               hilbert_function, ideal_piece_dim,
                               macaulay_matrix, minimal_generator_degrees)
from acmcurves.matforms import FormMatrix, maximal_minors
from acmcurves.ring import PolyRing, random_form


@pytest.fixture
def ring():
    return PolyRing()


def twisted_cubic_ideal(ring):
    x = [ring.variable(i) for i in range(4)]
    m = FormMatrix(ring, [[x[0], x[1], x[2]], [x[1], x[2], x[3]]])
    return IdealPresentation(ring=ring, generators=tuple(maximal_minors(m)))


class TestPieceDim:
    def test_two_variables_degree_one(self, ring):
        ideal = IdealPresentation(ring=ring, generators=(ring.variable(0), ring.variable(1)))
        assert ideal_piece_dim(ideal, 1) == 2

    def test_twisted_cubic_quadrics(self, ring):
        assert ideal_piece_dim(twisted_cubic_ideal(ring), 2) == 3

    def test_below_min_generator_degree(self, ring):
        ideal = twisted_cubic_ideal(ring)
        assert ideal_piece_dim(ideal, 0) == 0
        assert ideal_piece_dim(ideal, 1) == 0

    def test_macaulay_matrix_shape(self, ring):
        ideal = twisted_cubic_ideal(ring)
        m = macaulay_matrix(ideal, 3)
        assert m.shape == (3 * 4, ring.dim(3))

    def test_macaulay_rows_are_generator_multiples(self, ring):
        """Each row of the vectorized build must equal the coefficient vector
        of m*g computed through plain form multiplication."""
        rng = random.Random(17)
        gens = (random_form(2, ring, rng), random_form(3, ring, rng))
        ideal = IdealPresentation(ring=ring, generators=gens)
        d = 4
        mat = macaulay_matrix(ideal, d)
        row = 0
        for g in gens:
            for mono in ring.monomials(d - g.degree):
                expect = (ring.monomial(mono) * g).coeffs
                assert list(mat[row]) == list(expect)
                row += 1
        assert row == mat.shape[0]


class TestHilbertFunction:
    def test_twisted_cubic_values(self, ring):
        prof = hilbert_function(twisted_cubic_ideal(ring), 6)
        assert prof.values == (1, 4, 7, 10, 13, 16, 19)
        assert not prof.stabilized  # a curve keeps growing

    def test_whole_ring_in_positive_degrees(self, ring):
        ideal = IdealPresentation(ring=ring, generators=tuple(ring.variable(i) for i in range(4)))
        prof = hilbert_function(ideal, 5)
        assert prof.values == (1, 0, 0, 0, 0, 0)
        assert prof.stabilized_value == 0

    def test_intersection_stabilizes_at_11(self):
        pair = build_linear_pair(4, 2, random.Random(3))
        prof = hilbert_function(gorenstein_generators(pair), 10)
        assert prof.stabilized_value == 11
        assert prof.degree == 11

    def test_stop_at_stabilization_shortens_profile(self):
        pair = build_linear_pair(4, 2, random.Random(3))
        prof = hilbert_function(gorenstein_generators(pair), 20, stop_at_stabilization=True)
        assert prof.cutoff < 20
        assert prof.stabilized_value == 11

    def test_values_start_at_one(self, ring):
        prof = hilbert_function(twisted_cubic_ideal(ring), 3)
        assert prof.values[0] == 1


class TestHVector:
    def test_twisted_cubic(self, ring):
        prof = hilbert_function(twisted_cubic_ideal(ring), 8)
        assert h_vector_from_profile(prof, 2) == (1, 2)

    def test_gorenstein_4_2(self):
        pair = build_linear_pair(4, 2, random.Random(4))
        prof = hilbert_function(gorenstein_generators(pair), 8)
        assert h_vector_from_profile(prof, 3) == (1, 3, 3, 3, 1)

    def test_gorenstein_5_2(self):
        pair = build_linear_pair(5, 2, random.Random(5))
        prof = hilbert_function(gorenstein_generators(pair), 10)
        h = h_vector_from_profile(prof, 3)
        assert h == (1, 3, 6, 6, 6, 3, 1)
        assert sum(h) == 26

    def test_profile_too_short_reported(self, ring):
        prof = hilbert_function(twisted_cubic_ideal(ring), 2)
        with pytest.raises(ValueError, match="cutoff too small"):
            h_vector_from_profile(prof, 2)

    def test_negative_differences_reported(self, ring):
        # the quotient by all four variables has Krull dimension 0, so asking
        # for codimension 3 (dimension 1) produces a negative difference
        ideal = IdealPresentation(ring=ring, generators=tuple(ring.variable(i) for i in range(4)))
        prof = hilbert_function(ideal, 6)
        with pytest.raises(ValueError, match="not ACM"):
            h_vector_from_profile(prof, 3)

    def test_artinian_three_variables(self):
        ring3 = PolyRing(nvars=3)
        rng = random.Random(6)
        gens = tuple(random_form(2, ring3, rng) for _ in range(3))
        prof = hilbert_function(IdealPresentation(ring=ring3, generators=gens), 8)
        h = h_vector_from_profile(prof, 3)  # zero differences: values themselves
        assert h == (1, 3, 3, 1)  # complete intersection of three quadrics


class TestMinimalGeneratorDegrees:
    def test_twisted_cubic(self, ring):
        assert minimal_generator_degrees(twisted_cubic_ideal(ring)) == {2: 3}

    def test_gorenstein_4_2(self):
        pair = build_linear_pair(4, 2, random.Random(7))
        assert minimal_generator_degrees(gorenstein_generators(pair)) == {2: 3, 4: 2}

    def test_complete_intersection_quadrics(self, ring):
        rng = random.Random(8)
        gens = (random_form(2, ring, rng), random_form(2, ring, rng))
        assert minimal_generator_degrees(IdealPresentation(ring=ring, generators=gens)) == {2: 2}

    def test_redundant_generator_dropped(self, ring):
        x0, x1 = ring.variable(0), ring.variable(1)
        gens = (x0, x1, x0 * x1)  # the quadric is not minimal
        assert minimal_generator_degrees(IdealPresentation(ring=ring, generators=gens)) == {1: 2}


class TestInvariants:
    def test_monotone_under_added_generators(self, ring):
        rng = random.Random(9)
        base = tuple(random_form(2, ring, rng) for _ in range(2))
        bigger = base + (random_form(3, ring, rng),)
        p1 = hilbert_function(IdealPresentation(ring=ring, generators=base), 7)
        p2 = hilbert_function(IdealPresentation(ring=ring, generators=bigger), 7)
        assert all(b <= a for a, b in zip(p1.values, p2.values))

    def test_gorenstein_symmetry_and_degree_sum(self):
        for (t, r) in [(3, 1), (4, 2), (5, 3)]:
            pair = build_linear_pair(t, r, random.Random(t * 10 + r))
            prof = hilbert_function(gorenstein_generators(pair), 2 * t + 2,
                                    stop_at_stabilization=True)
            h = h_vector_from_profile(prof, 3)
            s = 2 * t - r - 2
            assert len(h) == s + 1
            assert h == tuple(reversed(h))
            assert sum(h) == bound_linear(t, r) == prof.degree
            assert h == h_vector_gorenstein(t, r)

    def test_monomial_ideal_brute_force_oracle(self):
        """Independent count: monomials of degree d not divisible by any generator."""
        ring3 = PolyRing(nvars=3)
        samples = [
            [(2, 0, 0)],
            [(2, 0, 0), (0, 3, 0)],
            [(1, 1, 0), (0, 2, 1), (3, 0, 0)],
            [(0, 0, 4), (2, 1, 0)],
        ]
        for monos in samples:
            gens = tuple(ring3.monomial(m) for m in monos)
            ideal = IdealPresentation(ring=ring3, generators=gens)
            prof = hilbert_function(ideal, 8)
            for d in range(9):
                alive = [m for m in ring3.monomials(d)
                         if not any(all(me >= ge for me, ge in zip(m, g)) for g in monos)]
                assert prof.values[d] == len(alive), (monos, d)


class TestIdealPresentation:
    def test_rejects_zero_generator(self, ring):
        with pytest.raises(ValueError):
            IdealPresentation(ring=ring, generators=(ring.zero(2),))

    def test_rejects_constant_generator(self, ring):
        with pytest.raises(ValueError):
            IdealPresentation(ring=ring, generators=(ring.one(),))

    def test_rejects_foreign_ring(self, ring):
        other = PolyRing(101)
        with pytest.raises(ValueError):
            IdealPresentation(ring=ring, generators=(other.variable(0),))
