import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from acmcurves import hilbert
from acmcurves.construct import build_linear_pair, build_uniform_pair, gorenstein_generators
from acmcurves.formulas import bound_linear, h_vector_gorenstein
from acmcurves.hilbert import (HilbertProfile, IdealPresentation, graded_piece_spans_equal,
                               h_vector_from_profile, hilbert_function,
                               ideal_piece_dim, macaulay_matrix,
                               minimal_generator_degrees)
from acmcurves.linalg import _rref, kernel_lift, rank_modp
from acmcurves.matforms import FormMatrix, maximal_minors
from acmcurves.ring import MAX_ARRAY_ENTRIES, MAX_FORM_DIM, PolyRing, random_form
from test_ring import schoolbook_product


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
        assert m.dtype == np.int64
        # no generator of degree <= 1: no rows, every column
        assert macaulay_matrix(ideal, 1).shape == (0, ring.dim(1))

    def test_macaulay_rows_are_generator_multiples(self, ring):
        """Each row of the vectorized build must equal m*g computed by the
        schoolbook product, independent of the mul_index placement."""
        rng = random.Random(17)
        gens = (random_form(2, ring, rng), random_form(3, ring, rng))
        ideal = IdealPresentation(ring=ring, generators=gens)
        d = 4
        mat = macaulay_matrix(ideal, d)
        row = 0
        for g in gens:
            for mono in ring.monomials(d - g.degree):
                got = {m: c for m, c in zip(ring.monomials(d), mat[row].tolist()) if c}
                assert got == schoolbook_product(ring.monomial(mono), g)
                row += 1
        assert row == mat.shape[0]


class TestHilbertFunction:
    def test_twisted_cubic_values(self, ring):
        prof = hilbert_function(twisted_cubic_ideal(ring), 6)
        assert prof.values == (1, 4, 7, 10, 13, 16, 19)
        assert not prof.stabilized  # a curve keeps growing
        assert prof.certificate is None and prof.stabilized_at is None

    def test_whole_ring_in_positive_degrees(self, ring):
        ideal = IdealPresentation(ring=ring, generators=tuple(ring.variable(i) for i in range(4)))
        prof = hilbert_function(ideal, 5)
        assert prof.values == (1, 0, 0, 0, 0, 0)
        assert prof.stabilized_value == 0

    def test_intersection_stabilizes_at_11(self):
        pair = build_linear_pair(4, 2, random.Random(3))
        prof = hilbert_function(gorenstein_generators(pair), 10)
        assert prof.stabilized_value == 11

    def test_no_rank_above_certified_degree(self, monkeypatch):
        pair = build_linear_pair(4, 2, random.Random(3))
        ideal = gorenstein_generators(pair)
        ranked = ranks_taken(monkeypatch)
        lifted = lifts_taken(monkeypatch)
        prof = hilbert_function(ideal, 20)
        m, v = prof.certificate
        # the dual basis is lifted through degree m+1 and no further; the
        # one rank is the witness (I + x3)_m = R_m, in 3 variables
        assert v == 3
        assert ranked == [(3, m)]
        assert lifted == list(range(m + 2))
        assert prof.cutoff == 20 and len(prof.values) == 21
        assert prof.values[m:] == (11,) * (21 - m)
        assert prof.stabilized_value == 11 and prof.stabilized_at == m - 1

    def test_values_start_at_one(self, ring):
        prof = hilbert_function(twisted_cubic_ideal(ring), 3)
        assert prof.values[0] == 1


def ranks_taken(monkeypatch):
    """Record (nvars, degree) of every graded piece hilbert_function ranks."""
    ranked = []

    def counting(piece_ideal, d):
        ranked.append((piece_ideal.ring.nvars, d))
        return ideal_piece_dim(piece_ideal, d)

    monkeypatch.setattr(hilbert, "ideal_piece_dim", counting)
    return ranked


def lifts_taken(monkeypatch):
    """Record the degree of every dual-basis lift hilbert_function makes."""
    lifted = []
    lift = hilbert._lift

    def counting(ideal, e, psi):
        lifted.append(e)
        return lift(ideal, e, psi)

    monkeypatch.setattr(hilbert, "_lift", counting)
    return lifted


def false_plateau_ideal(ring):
    """(x0, x1, x2^2, x2*x3^4): Hilbert values 1, 2, 2, 2, 2, then 1 for ever."""
    x = [ring.variable(i) for i in range(4)]
    return IdealPresentation(ring=ring, generators=(x[0], x[1], x[2] * x[2],
                                                    x[2] * ring.monomial((0, 0, 0, 4))))


def three_equal_values(values):
    """The former stabilization rule: the first of three equal consecutive values."""
    for d in range(2, len(values)):
        if values[d] == values[d - 1] == values[d - 2]:
            return values[d]
    return None


def ranked_values(ideal, cutoff):
    return tuple(ideal.ring.dim(d) - ideal_piece_dim(ideal, d) for d in range(cutoff + 1))


def torsion(ideal, cutoff):
    """T(e) = dim((I : x_{n-1})/I)_e for e < cutoff, from full ranks: by the
    exact sequence of multiplication by x_{n-1}, H(e+1) = H(e) - T(e) + H'(e+1)
    with H' the Hilbert function of R/(I + x_{n-1}). T(e) is the number of
    pivots in the Psi block of the lift to degree e + 1."""
    h = ranked_values(ideal, cutoff)
    cut = hilbert._restrict(ideal, ideal.ring.nvars - 1)
    h1 = ranked_values(cut, cutoff)
    return [h[e] + h1[e + 1] - h[e + 1] for e in range(cutoff)]


class TestCertificate:
    def test_false_plateau_refused(self, ring):
        prof = hilbert_function(false_plateau_ideal(ring))
        assert prof.values == (1, 2, 2, 2, 2) + (1,) * 7
        assert three_equal_values(prof.values) == 2  # the old rule accepts the plateau
        assert prof.stabilized_value == 1
        assert prof.certificate == (6, 3)
        assert prof.stabilized_at == 5

    def test_profile_derives_its_stabilization(self):
        # a plateau at 2 followed by a drop to 1: only the final flat run counts
        values = (1, 2, 2, 2, 1, 1, 1)
        prof = HilbertProfile(values, 4, (5, 3))
        assert prof.cutoff == 6 and prof.stabilized
        assert prof.stabilized_value == 1 and prof.stabilized_at == 4
        bare = HilbertProfile(values, 4, None)
        assert bare.cutoff == 6 and not bare.stabilized
        assert bare.stabilized_value is None and bare.stabilized_at is None

    def test_non_saturated_presentation_ranks_only_the_witness(self, ring, monkeypatch):
        # x3 = 0 leaves (x0, x1, x2^2), but x2 * x3^4 is x3-torsion in degree
        # 4, so the lift to degree 5 has a pivot in its Psi block; the one
        # sweep still gives every value, and its only rank is the witness
        ranked = ranks_taken(monkeypatch)
        ideal = false_plateau_ideal(ring)
        prof = hilbert_function(ideal)
        assert prof.certificate == (6, 3)
        assert ranked == [(3, 6)]
        assert prof.values == ranked_values(ideal, prof.cutoff)
        assert [e for e, t in enumerate(torsion(ideal, prof.cutoff)) if t] == [4]

    def test_random_ideals_equal_their_ranked_values(self, monkeypatch):
        """Random points ideals (saturated) and their products with the
        maximal ideal (not saturated, torsion in the lowest degree), at a
        prime where G_e Psi_{e-1} is one float64 product and at one where it
        is split into limbs: every certified profile equals the ranks in
        every degree up to the cutoff, and the only ranks taken are the
        witness's, in 3 variables at the certified degree."""
        ranked = ranks_taken(monkeypatch)
        for p in (32003, 2147483629):
            ring = PolyRing(p)
            rng = random.Random(31)
            for degs in [(1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (1, 1, 3)]:
                gens = tuple(random_form(e, ring, rng) for e in degs)
                times_m = tuple(g * ring.variable(i) for g in gens for i in range(4))
                for ideal in (IdealPresentation(ring=ring, generators=gens),
                              IdealPresentation(ring=ring, generators=times_m)):
                    ranked.clear()
                    prof = hilbert_function(ideal)
                    assert prof.certificate is not None
                    m = prof.certificate[0]
                    assert ranked and set(ranked) == {(3, m)}, (p, degs)
                    assert prof.stabilized_value == degs[0] * degs[1] * degs[2]
                    assert prof.values == ranked_values(ideal, prof.cutoff), (p, degs, ideal)
                    assert any(torsion(ideal, prof.cutoff)) == (ideal.generators == times_m)

    @pytest.mark.parametrize("p", [32003, 2147483629])
    def test_torsion_lifts_equal_their_ranked_values(self, p):
        """Ideals with x3-torsion, where the lift multiplies Psi_{e-1} by the
        pivot rows of its Psi block, at both sides of the float64/limb switch:
        the false plateau, (x0, x1, x2^a, x2*x3^b), and random forms times
        x3 and times a random linear form."""
        ring = PolyRing(p)
        x = [ring.variable(i) for i in range(4)]
        rng = random.Random(41)
        ideals = [false_plateau_ideal(ring)]
        for a, b in [(2, 3), (3, 4), (4, 2)]:
            ideals.append(IdealPresentation(ring=ring, generators=(
                x[0], x[1], ring.monomial((0, 0, a, 0)), ring.monomial((0, 0, 1, b)))))
        for degs in [(1, 2, 2), (2, 2, 2)]:
            gens = [random_form(e, ring, rng) for e in degs]
            ell = random_form(1, ring, rng)
            ideals.append(IdealPresentation(ring=ring, generators=(
                gens[0], gens[1] * x[3], gens[2] * ell, gens[2] * x[3] * x[3])))
        for ideal in ideals:
            prof = hilbert_function(ideal, 12)
            assert prof.values == ranked_values(ideal, 12), ideal
            assert any(torsion(ideal, 12)), ideal

    def test_plateau_above_generator_degrees_refused(self):
        # (x1^3, x1*x2^3, x0*x1) in three variables: the plateau 6, 6, 6 sits at
        # m = 4, the top generator degree, yet the quotient holds the line
        # x1 = 0 and keeps growing; no variable passes the restricted rank
        ring3 = PolyRing(nvars=3)
        gens = tuple(ring3.monomial(e) for e in [(0, 3, 0), (0, 1, 3), (1, 1, 0)])
        prof = hilbert_function(IdealPresentation(ring=ring3, generators=gens), 9)
        assert prof.values == (1, 3, 5, 6, 6, 6, 7, 8, 9, 10)
        assert three_equal_values(prof.values) == 6
        assert prof.certificate is None and not prof.stabilized

    def test_cutoff_capped_at_the_largest_degree(self, ring):
        x = [ring.variable(i) for i in range(4)]
        point = IdealPresentation(ring=ring, generators=tuple(x[:3]))
        assert len(hilbert_function(point, MAX_FORM_DIM).values) == MAX_FORM_DIM + 1
        with pytest.raises(ValueError, match=f"cutoff {MAX_FORM_DIM + 1} too large"):
            hilbert_function(point, MAX_FORM_DIM + 1)

    def test_default_cutoff(self, ring):
        x = [ring.variable(i) for i in range(4)]
        ideal = lambda *gens: IdealPresentation(ring=ring, generators=gens)
        assert hilbert_function(false_plateau_ideal(ring)).cutoff == 5 + 2 + 4
        assert hilbert_function(ideal(x[0] * x[1] * x[2])).cutoff == 3 + 3 + 4
        assert hilbert_function(ideal()).cutoff == 4

    def test_filled_values_equal_ranked_values(self, ring):
        """(x0, x1, x2^a, x2*x3^b), whose values rise or plateau before they fall
        to 1: every value the certificate fills in equals the rank in that degree."""
        x = [ring.variable(i) for i in range(4)]
        for a, b in [(2, 3), (2, 6), (3, 4), (4, 2)]:
            gens = (x[0], x[1], ring.monomial((0, 0, a, 0)), ring.monomial((0, 0, 1, b)))
            ideal = IdealPresentation(ring=ring, generators=gens)
            prof = hilbert_function(ideal, 14)
            assert prof.certificate is not None
            assert prof.values == ranked_values(ideal, 14), (a, b)
            assert prof.stabilized_value == 1

    def test_random_points_certified_values_are_exact(self, ring):
        rng = random.Random(21)
        for degs in [(1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 2, 3)]:
            gens = tuple(random_form(e, ring, rng) for e in degs)
            ideal = IdealPresentation(ring=ring, generators=gens)
            prof = hilbert_function(ideal)
            assert prof.certificate is not None
            assert prof.stabilized_value == degs[0] * degs[1] * degs[2]
            assert prof.values == ranked_values(ideal, prof.cutoff)

    def test_first_passing_variable_is_named(self, ring):
        # the point (1:0:0:0) lies on x1 = x2 = x3 = 0, so only x0 cuts it out;
        # a redundant quintic delays the certificate to m = 5, while the flat
        # run of values still starts at degree 0
        x = [ring.variable(i) for i in range(4)]
        quintic = ring.monomial((4, 1, 0, 0))
        prof = hilbert_function(IdealPresentation(ring=ring, generators=(x[1], x[2], x[3], quintic)))
        assert prof.certificate == (5, 0)
        assert prof.stabilized_value == 1 and prof.stabilized_at == 0

    def test_coordinate_points_stay_uncertified(self, ring):
        # every coordinate hyperplane holds three of the four coordinate
        # points, so no variable certifies this genuine plateau
        x = [ring.variable(i) for i in range(4)]
        gens = tuple(x[i] * x[j] for i in range(4) for j in range(i + 1, 4))
        prof = hilbert_function(IdealPresentation(ring=ring, generators=gens), 8)
        assert prof.values == (1,) + (4,) * 8
        assert not prof.stabilized and prof.certificate is None
        assert prof.stabilized_at is None

    def test_one_variable(self):
        ring1 = PolyRing(nvars=1)
        cube = hilbert_function(IdealPresentation(ring=ring1, generators=(ring1.monomial((3,)),)))
        assert cube.values == (1, 1, 1) + (0,) * 8
        assert cube.certificate == (4, 0) and cube.stabilized_value == 0
        assert cube.stabilized_at == 3
        zero = hilbert_function(IdealPresentation(ring=ring1, generators=()))
        assert zero.values == (1,) * 5
        assert zero.certificate == (1, 0) and zero.stabilized_value == 1


class TestHVector:
    def test_twisted_cubic(self, ring):
        # values 3d + 1 give differences (1, 2, 0, 0, ...), but a curve's
        # profile carries no certificate, so no h-vector is reported
        prof = hilbert_function(twisted_cubic_ideal(ring), 8)
        assert prof.values == tuple(3 * d + 1 for d in range(9))
        with pytest.raises(ValueError, match="not certified"):
            h_vector_from_profile(prof)

    def test_gorenstein_4_2(self):
        pair = build_linear_pair(4, 2, random.Random(4))
        prof = hilbert_function(gorenstein_generators(pair), 8)
        assert h_vector_from_profile(prof) == (1, 3, 3, 3, 1)

    def test_gorenstein_5_2(self):
        pair = build_linear_pair(5, 2, random.Random(5))
        prof = hilbert_function(gorenstein_generators(pair), 10)
        h = h_vector_from_profile(prof)
        assert h == (1, 3, 6, 6, 6, 3, 1)
        assert sum(h) == 26

    def test_profile_too_short_reported(self, ring):
        prof = hilbert_function(twisted_cubic_ideal(ring), 2)
        with pytest.raises(ValueError, match="cutoff too small"):
            h_vector_from_profile(prof)

    def test_negative_differences_reported(self, ring):
        # the false plateau is certified at (6, 3) with H = 1 from degree 5
        # on, so codimension 3 is the right one, and its first differences
        # 1, 1, 0, 0, 0, -1 go negative at degree 5
        prof = hilbert_function(false_plateau_ideal(ring))
        assert prof.certificate == (6, 3)
        with pytest.raises(ValueError, match="negative difference at degree 5: not ACM"):
            h_vector_from_profile(prof)

    def test_codimension_fixed_by_the_certificate(self, ring):
        # the quotient by all four variables has Krull dimension 0: its
        # certificate makes H constant at 0, so the codimension is 4 and no
        # difference is taken
        ideal = IdealPresentation(ring=ring, generators=tuple(ring.variable(i) for i in range(4)))
        prof = hilbert_function(ideal, 6)
        assert prof.codimension == 4 and h_vector_from_profile(prof) == (1,)
        # a scheme of length B(3, 1) = 8 (H constant at 8 > 0) has codimension 3
        pair = build_linear_pair(3, 1, random.Random(3))
        prof = hilbert_function(gorenstein_generators(pair))
        assert prof.stabilized_value == bound_linear(3, 1) == 8
        assert prof.codimension == 3 and h_vector_from_profile(prof) == h_vector_gorenstein(3, 1)
        # a curve's profile has no certificate, so no codimension
        assert hilbert_function(twisted_cubic_ideal(ring), 8).codimension is None

    def test_artinian_three_variables(self):
        ring3 = PolyRing(nvars=3)
        rng = random.Random(6)
        gens = tuple(random_form(2, ring3, rng) for _ in range(3))
        prof = hilbert_function(IdealPresentation(ring=ring3, generators=gens), 8)
        h = h_vector_from_profile(prof)  # codimension 3: the values themselves
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
            prof = hilbert_function(gorenstein_generators(pair), 2 * t + 2)
            h = h_vector_from_profile(prof)
            s = 2 * t - r - 2
            assert len(h) == s + 1
            assert h == tuple(reversed(h))
            assert sum(h) == bound_linear(t, r) == prof.stabilized_value
            assert h == h_vector_gorenstein(t, r)

    def test_monomial_ideal_brute_force_oracle(self):
        """Independent counts: monomials of degree d not divisible by any
        generator, and minimal generators as those no other generator divides."""
        ring3 = PolyRing(nvars=3)
        samples = [
            [(2, 0, 0)],
            [(2, 0, 0), (0, 3, 0)],
            [(1, 1, 0), (0, 2, 1), (3, 0, 0)],
            [(0, 0, 4), (2, 1, 0)],
            [(1, 1, 0), (2, 1, 0), (0, 2, 1), (1, 3, 1), (0, 0, 3)],
        ]

        def divides(g, m):
            return all(me >= ge for me, ge in zip(m, g))

        for monos in samples:
            gens = tuple(ring3.monomial(m) for m in monos)
            ideal = IdealPresentation(ring=ring3, generators=gens)
            prof = hilbert_function(ideal, 8)
            for d in range(9):
                alive = [m for m in ring3.monomials(d)
                         if not any(divides(g, m) for g in monos)]
                assert prof.values[d] == len(alive), (monos, d)
            minimal = Counter(sum(m) for m in monos
                              if not any(g != m and divides(g, m) for g in monos))
            assert minimal_generator_degrees(ideal) == dict(minimal), monos


class TestLiftMemory:
    @staticmethod
    def _lift_entries(ideal, prof):
        """Per lifted degree e: the entries of Psi_{e-1}, Psi_e and K(e), the
        latter with one row per generator g and l-free monomial of degree
        e - deg g and one column per l-free monomial of degree e and per
        column of Psi_{e-1}."""
        ring = ideal.ring
        free = PolyRing(ring.p, ring.nvars - 1)
        h = prof.values
        last = prof.certificate[0] + 1 if prof.certificate else prof.cutoff
        for e in range(1, last + 1):
            rows = sum(free.dim(e - g.degree) for g in ideal.generators)
            yield (ring.dim(e - 1) * h[e - 1], ring.dim(e) * h[e],
                   rows * (free.dim(e) + h[e - 1]))

    def test_peak_bounded_by_the_largest_lift(self):
        # verify (3,1,3): K(e) is assembled one generator degree at a time and
        # freed before Psi_e is allocated, so the traced peak stays within
        # 1.4 times the float64 bytes of Psi_{e-1}, Psi_e and K(e) at the
        # largest lift (1.23 here); holding the whole [F_e | G_e] through the
        # kernel step reads 1.65
        ring = PolyRing()
        ideal = gorenstein_generators(build_uniform_pair(3, 1, 3, random.Random(0), ring=ring))
        hilbert_function(ideal, 18)  # fills the basis and product caches
        tracemalloc.start()
        try:
            prof = hilbert_function(ideal, 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.certificate == (16, 3)
        largest = max(map(sum, self._lift_entries(ideal, prof)))
        assert peak <= 1.4 * 8 * largest, (peak, 8 * largest)

    def test_lift_above_the_entry_cap_refused(self):
        # the empty ideal: Psi_e is square, 3276 x 3276 entries at degree 25
        ring = PolyRing()
        with pytest.raises(ValueError, match="degree 25 too large for the Hilbert lift"):
            hilbert_function(IdealPresentation(ring=ring, generators=()), 80)

    def test_entry_cap_admits_the_degree_10_surface(self):
        # H(e) = dim R_e - dim R_{e-10}; the largest lift at the default
        # cutoff 24 may hold 2925 x 2365 entries
        ring, free = PolyRing(), PolyRing(nvars=3)
        h = [ring.dim(e) - ring.dim(e - 10) for e in range(25)]
        need = max(ring.dim(e) * (h[e - 1] + free.dim(e)) for e in range(1, 25))
        assert need == 2925 * 2365 <= MAX_ARRAY_ENTRIES


class TestAssemble:
    @staticmethod
    def _full_width(ideal, e, psi, col):
        """[F_e | G_e Psi_{e-1}] with G_e over every l-divisible column and
        all of Psi_{e-1}, from the rows of Mac(e) whose multiplier is free of
        l, grouped by generator degree as _assemble orders them."""
        ring, p = ideal.ring, ideal.ring.p
        mac = macaulay_matrix(ideal, e)
        rows, start = {}, 0
        for g in ideal.generators:
            n = ring.dim(e - g.degree)
            free = np.flatnonzero(ring.exps(e - g.degree)[:, -1] == 0) if n else []
            rows.setdefault(g.degree, []).extend(start + i for i in free)
            start += n
        m = np.zeros((sum(map(len, rows.values())), len(col)), dtype=object)
        m[:, col] = mac[[i for r in rows.values() for i in r]].astype(object)
        ny = len(col) - len(psi)
        prod = m[:, ny:] @ psi.astype(np.int64).astype(object) % p
        return np.hstack([m[:, :ny], prod]).astype(np.int64)

    @pytest.mark.parametrize("p", [32003, 2147483629])
    def test_reachable_prefix_equals_the_full_width_product(self, p):
        # generators of degrees 2 and 3, a cubic divisible by l = x3 among
        # them: the rows of degree k meet only the first
        # dim R_{e-1} - dim R_{e-1-k} rows of Psi_{e-1}, all of them while
        # e - 1 - k < 0. Where the c block of K(e) holds no pivot, as at every
        # degree of the 12 points (q1, q2, c), which miss l = 0, kernel_lift's
        # z block, copied in one slice, is psi gathered on the free c columns.
        # (q, x3 q', c) has 4 points on l = 0 and takes the _submul branch.
        ring = PolyRing(p)
        rng = random.Random(7)
        x3 = ring.variable(3)
        q1, q2, q3, c = (random_form(d, ring, rng) for d in (2, 2, 2, 3))
        slices = torsion_degrees = 0
        for gens in [(q1, q2, c, q1 * x3), (q1, q3 * x3, c)]:
            ideal = IdealPresentation(ring=ring, generators=gens)
            psi = np.zeros((0, 0))
            for e in range(10):
                col = hilbert._lift_order(ring, e)
                k = hilbert._assemble(ideal, e, psi, col)
                assert np.array_equal(k.astype(np.int64), self._full_width(ideal, e, psi, col)), e
                ny = len(col) - len(psi)
                piv, _ = _rref(k.copy(), p)
                out = kernel_lift(k, ny, psi, p)
                if (piv >= ny).any():
                    torsion_degrees += 1
                else:
                    free = np.setdiff1d(np.arange(ny + psi.shape[1]), piv)
                    nyf = int(np.searchsorted(free, ny))
                    assert np.array_equal(out[ny:, nyf:], psi[:, free[nyf:] - ny]), e
                    slices += 1
                psi = out
            assert psi.shape[1] == hilbert_function(ideal, 9).values[9]
        assert slices >= 10 and torsion_degrees >= 1


def spans_equal_every_degree(a, b, up_to):
    """Reference for graded_piece_spans_equal: three full ranks in every degree."""
    p = a.ring.p
    for d in range(up_to + 1):
        ma, mb = macaulay_matrix(a, d), macaulay_matrix(b, d)
        ra, rb = rank_modp(ma, p), rank_modp(mb, p)
        if ra != rb or (ra and rank_modp(np.vstack([ma, mb]), p) != ra):
            return False
    return True


class TestGradedPieceSpansEqual:
    @pytest.mark.parametrize("p", [32003, 2147483629])
    def test_matches_every_degree_reference(self, p):
        ring = PolyRing(p)
        rng = random.Random(12)
        outcomes = set()
        for _ in range(3):
            q1, q2 = random_form(2, ring, rng), random_form(2, ring, rng)
            c = random_form(3, ring, rng)
            ell = random_form(1, ring, rng)
            base = (q1, q2, c)
            others = [
                (q1 + q2, q2, c + ell * q1),          # same ideal, other generators
                (q1, q2, c, ell * ell * q1),           # plus a redundant quartic
                (q1, q2),                              # loses the cubic
                (q1, q2, random_form(3, ring, rng)),   # another cubic
                (q1, random_form(2, ring, rng), c),    # another quadric
                (q1, q2, c, random_form(4, ring, rng)),
            ]
            for other in others:
                a = IdealPresentation(ring=ring, generators=base)
                b = IdealPresentation(ring=ring, generators=other)
                for up_to in range(6):
                    got = graded_piece_spans_equal(a, b, up_to)
                    assert got == spans_equal_every_degree(a, b, up_to), (other, up_to)
                    assert graded_piece_spans_equal(b, a, up_to) == got
                    outcomes.add(got)
        assert outcomes == {True, False}

    def test_differs_only_above_a_generator_degree(self, ring):
        x0, x1 = ring.variable(0), ring.variable(1)
        a = IdealPresentation(ring=ring, generators=(x0 * x0,))
        b = IdealPresentation(ring=ring, generators=(x0 * x0, x1 * x1 * x1))
        assert graded_piece_spans_equal(a, b, 2)
        assert not graded_piece_spans_equal(a, b, 3)


@pytest.mark.parametrize("call,match", [
    (lambda ideal: ideal_piece_dim(ideal, -1), "degree must be non-negative"),
    (lambda ideal: hilbert_function(ideal, -1), "cutoff must be non-negative"),
    (lambda ideal: graded_piece_spans_equal(
        ideal, IdealPresentation(ring=PolyRing(101), generators=()), 2), "different rings"),
])
def test_refusals(ring, call, match):
    ideal = IdealPresentation(ring=ring, generators=(ring.variable(0),))
    with pytest.raises(ValueError, match=match):
        call(ideal)


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
