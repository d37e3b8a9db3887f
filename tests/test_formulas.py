import pytest

from acmcurves.formulas import (BettiShape, binom, bound_linear, bound_uniform,
                                deg_acm, expected_betti, h_vector_gorenstein,
                                hilbert_from_resolution)


class TestBinom:
    def test_vanishing_convention(self):
        assert binom(2, 3) == 0
        assert binom(-1, 2) == 0
        assert binom(3, -1) == 0

    def test_ordinary_values(self):
        assert binom(5, 2) == 10
        assert binom(7, 3) == 35


class TestBoundLinear:
    def test_pinned_values(self):
        assert bound_linear(4, 2) == 11
        assert bound_linear(5, 2) == 26

    @pytest.mark.parametrize("t", range(2, 11))
    def test_line_specialization(self, t):
        assert bound_linear(t, t - 1) == t

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bound_linear(1, 0)
        with pytest.raises(ValueError):
            bound_linear(4, 4)
        with pytest.raises(ValueError):
            bound_linear(4, -1)

    def test_specialization_ladders(self):
        for t in range(2, 9):
            assert bound_linear(t, t - 2) == 3 * t - 1
            if t >= 3:
                assert bound_linear(t, t - 3) == 6 * t - 4
            if t >= 4:
                assert bound_linear(t, t - 4) == 10 * t - 10


class TestBoundUniform:
    @pytest.mark.parametrize("d", range(1, 11))
    def test_two_one_gives_2d_cubed(self, d):
        assert bound_uniform(d, 2, 1) == 2 * d**3

    def test_d1_specializes_to_linear(self):
        for t in range(2, 9):
            for r in range(0, t):
                assert bound_uniform(1, t, r) == bound_linear(t, r)

    def test_explicit_binomial_evaluation(self):
        # C(7,3) - 3 C(5,3) - 2 C(3,3) + 3 C(2,3) + 2 C(4,3) = 35 - 30 - 2 + 0 + 8
        assert bound_uniform(1, 4, 2) == 11

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bound_uniform(0, 3, 1)


class TestDegAcm:
    def test_twisted_cubic(self):
        assert deg_acm(2, 1) == 3

    def test_degree_ten_curve(self):
        assert deg_acm(4, 1) == 10

    @pytest.mark.parametrize("d", range(1, 6))
    def test_uniform_scaling(self, d):
        assert deg_acm(2, d) == 3 * d * d


class TestHVectorGorenstein:
    def test_4_2(self):
        assert h_vector_gorenstein(4, 2) == (1, 3, 3, 3, 1)

    def test_5_2(self):
        assert h_vector_gorenstein(5, 2) == (1, 3, 6, 6, 6, 3, 1)

    def test_sum_is_bound(self):
        for t in range(2, 9):
            for r in range(1, t):
                assert sum(h_vector_gorenstein(t, r)) == bound_linear(t, r)

    def test_symmetric_and_unimodal(self):
        for t in range(2, 9):
            for r in range(1, t):
                h = h_vector_gorenstein(t, r)
                assert h == tuple(reversed(h))
                assert len(h) == 2 * t - r - 1
                peak = h.index(max(h))
                assert all(a <= b for a, b in zip(h[:peak], h[1:peak + 1]))
                assert all(a >= b for a, b in zip(h[peak:], h[peak + 1:]))

    def test_flat_middle_width(self):
        for t in range(3, 8):
            for r in range(1, t):
                h = h_vector_gorenstein(t, r)
                flat = binom(t - r + 1, 2)
                assert sum(1 for v in h if v == flat) >= r + 1


class TestBettiShape:
    def test_step_one_ranks_total(self):
        for t in range(2, 8):
            for r in range(1, t):
                shape = expected_betti(t, r)
                assert sum(shape.step(1).values()) == 2 * t - 2 * r + 1

    def test_4_2_steps(self):
        shape = expected_betti(4, 2, 1)
        assert shape.step(1) == {2: 3, 4: 2}
        assert shape.step(2) == {3: 2, 5: 3}
        assert shape.step(3) == {7: 1}

    def test_top_twist_scales_with_d(self):
        for d in range(1, 5):
            shape = expected_betti(2, 1, d)
            assert shape.step(3) == {4 * d: 1}

    def test_alternating_sum_enforced(self):
        with pytest.raises(ValueError):
            BettiShape(codimension=2, terms=((1, 2, 2), (2, 3, 2)))

    def test_integral_floats_read_as_integers(self):
        shape = BettiShape(codimension=2.0, terms=((1, 2.0, 3), (2, 3, 2.0)))
        assert shape == BettiShape(codimension=2, terms=((1, 2, 3), (2, 3, 2)))
        assert type(shape.codimension) is int and type(shape.terms[0][1]) is int

    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            BettiShape(codimension=2, terms=((3, 2, 1),))


@pytest.mark.parametrize("build,match", [
    (lambda: deg_acm(0), "need t >= 1 and d >= 1"),
    (lambda: deg_acm(2, 0), "need t >= 1 and d >= 1"),
    (lambda: h_vector_gorenstein(3, 0), "r = 0 has no intersection construction"),
    (lambda: expected_betti(3, 0), "r = 0 has no intersection construction"),
    (lambda: expected_betti(3, 1, 0), "need d >= 1"),
    (lambda: BettiShape(codimension=1, terms=((1, 2, 0),)), "ranks must be positive"),
    (lambda: BettiShape(codimension=1, terms=((1, 2, -1),)), "ranks must be positive"),
    # int() once truncated these twists to 2 and 3, a different resolution
    (lambda: BettiShape(2, ((1, 2.7, 3), (2, 3.2, 2))), "2.7 is not an integer"),
    (lambda: BettiShape(2, ((1, "2", 3), (2, 3, 2))), "'2' is not an integer"),
    (lambda: BettiShape(2.5, ((1, 2, 3), (2, 3, 2))), "2.5 is not an integer"),
])
def test_refusals(build, match):
    with pytest.raises(ValueError, match=match):
        build()


class TestHilbertFromResolution:
    @pytest.mark.parametrize("t", range(2, 7))
    def test_codim2_linear_curve(self, t):
        shape = BettiShape(codimension=2, terms=((1, t, t + 1), (2, t + 1, t)))
        h, deg = hilbert_from_resolution(shape)
        assert h == tuple(range(1, t + 1))
        assert deg == t * (t + 1) // 2

    def test_ci_of_two_cubics(self):
        shape = BettiShape(codimension=2, terms=((1, 3, 2), (2, 6, 1)))
        h, deg = hilbert_from_resolution(shape)
        assert h == (1, 2, 3, 2, 1)
        assert deg == 9

    def test_matches_gorenstein_h_vector(self):
        # verify_construction takes its d = 1 expectation from the resolution
        for t in range(2, 15):
            for r in range(1, t):
                h, deg = hilbert_from_resolution(expected_betti(t, r, 1))
                assert h == h_vector_gorenstein(t, r)
                assert deg == bound_linear(t, r)

    def test_matches_uniform_bound(self):
        for t in range(2, 7):
            for r in range(1, t):
                for d in range(1, 4):
                    _, deg = hilbert_from_resolution(expected_betti(t, r, d))
                    assert deg == bound_uniform(d, t, r)

    def test_negative_h_vector_refused(self):
        # the numerator divides exactly, but the h-vector is (1, 2, -1)
        shape = BettiShape(2, ((1, 2, 4), (2, 3, 4), (1, 4, 1)))
        with pytest.raises(ValueError, match="negative entries"):
            hilbert_from_resolution(shape)

    def test_trailing_zeros_are_stripped(self):
        # N(z) = 1 - 2z + z^2, the z^3 terms cancelling: (1 - z)^2 leaves h = (1)
        shape = BettiShape(2, ((1, 1, 2), (2, 2, 1), (1, 3, 1), (2, 3, 1)))
        assert hilbert_from_resolution(shape) == ((1,), 1)

    def test_inexact_division_reported(self):
        shape = BettiShape(codimension=3, terms=((1, 1, 1),))
        with pytest.raises(ValueError):
            hilbert_from_resolution(shape)
