import itertools
import random

import numpy as np
import pytest

from acmcurves.ring import MAX_FORM_DIM, Form, PolyRing, is_prime, random_form


@pytest.fixture
def ring():
    return PolyRing()


def schoolbook_product(f, g):
    """Reference product: the term-by-term dict loop over exponent tuples."""
    p = f.ring.p
    out = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            s = (out.get(mono, 0) + ca * cb) % p
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
    return out


def random_terms(ring, degree, rng):
    """Uniform coefficients on every monomial, degree 0 included."""
    return [(m, rng.randrange(ring.p)) for m in ring.monomials(degree)]


def vars4(ring):
    return [ring.variable(i) for i in range(4)]


class TestFieldSpec:
    """The field F_p of a PolyRing: p must be an odd prime below 2**31."""

    def test_default_prime(self):
        assert PolyRing().p == 32003
        assert is_prime(32003)

    @pytest.mark.parametrize("bad", [0, 1, 2, 4, 32001, 2**31])
    def test_rejects_bad_moduli(self, bad):
        with pytest.raises(ValueError):
            PolyRing(bad)

    def test_composite_passing_trial_division_rejected(self):
        # 46327 * 46337 has no factor up to 37: Miller-Rabin must find it composite
        assert not is_prime(2146654199)
        with pytest.raises(ValueError, match="modulus 2146654199 is not prime"):
            PolyRing(2146654199)

    def test_accepts_small_primes(self):
        assert PolyRing(7).p == 7
        assert PolyRing(101).p == 101


class TestFormAdd:
    def test_additive_inverse(self, ring):
        x0 = ring.variable(0)
        assert (x0 + (-x0)).is_zero

    def test_two_terms(self, ring):
        x0, x1 = ring.variable(0), ring.variable(1)
        s = x0 + x1
        assert len(s.terms) == 2
        assert s.degree == 1

    def test_mod_p_cancellation(self, ring):
        x0, x1 = ring.variable(0), ring.variable(1)
        f = x0 * x0 + x1 * x1
        g = (x1 * x1).scale(ring.p - 1)
        assert f + g == x0 * x0

    def test_degree_mismatch_raises(self, ring):
        x0 = ring.variable(0)
        with pytest.raises(ValueError):
            x0 + x0 * x0

    def test_zero_operand_any_degree(self, ring):
        x0 = ring.variable(0)
        assert ring.zero(5) + x0 == x0
        assert x0 + ring.zero(17) == x0


class TestFormMul:
    def test_difference_of_squares(self, ring):
        x0, x1 = ring.variable(0), ring.variable(1)
        prod = (x0 + x1) * (x0 - x1)
        assert prod == x0 * x0 - x1 * x1

    def test_zero_absorbs(self, ring):
        f = ring.variable(0) * ring.variable(2)
        z = ring.zero(3) * f
        assert z.is_zero
        assert z.degree == 5

    def test_monomial_product(self, ring):
        x = vars4(ring)
        assert x[0] * (x[1] * x[2]) == ring.monomial((1, 1, 1, 0))

    def test_degree_adds(self, ring):
        rng = random.Random(0)
        f = random_form(2, ring, rng)
        g = random_form(3, ring, rng)
        assert (f * g).degree == 5

    @pytest.mark.parametrize("p", [7, 32003, 2147483629])
    def test_matches_schoolbook(self, p):
        ring = PolyRing(p)
        rng = random.Random(p)
        for da in range(7):
            for db in range(7):
                f = ring.form(da, random_terms(ring, da, rng))
                g = ring.form(db, random_terms(ring, db, rng))
                prod = f * g
                assert prod.degree == da + db
                assert prod.terms == schoolbook_product(f, g)
                # row i of f.mul_matrix(db) is f times basis monomial i
                mul = f.mul_matrix(db)
                assert mul.shape == (ring.dim(db), ring.dim(da + db))
                for mono, row in zip(ring.monomials(db), mul.astype(np.int64).tolist()):
                    got = {m: c for m, c in zip(ring.monomials(da + db), row) if c}
                    assert got == schoolbook_product(f, ring.monomial(mono))

    def test_sparse_factors_match_schoolbook(self, ring):
        f = ring.form(3, [((3, 0, 0, 0), 5), ((0, 1, 0, 2), ring.p - 1)])
        g = ring.form(2, [((0, 0, 1, 1), 7)])
        assert (f * g).terms == schoolbook_product(f, g)

    @pytest.mark.parametrize("nvars", range(1, 8))
    def test_product_positions_add_exponents(self, nvars):
        ring = PolyRing(nvars=nvars)
        top = 8 if nvars <= 5 else 5  # the (8, 8) tables in 7 variables hold 9e6 entries
        for a in range(top + 1):
            for b in range(top + 1):
                table = ring.mul_index(a, b)
                assert table.shape == (ring.dim(a), ring.dim(b))
                for i in range(0, ring.dim(a), 256):  # row blocks bound the memory
                    assert np.array_equal(ring.exps(a + b)[table[i:i + 256]],
                                          ring.exps(a)[i:i + 256, None] + ring.exps(b)[None])

    def test_product_above_the_entry_cap_refused(self, ring):
        # two degree-20 forms: the matrix of either would be 1771 x 12341
        rng = random.Random(5)
        f, g = random_form(20, ring, rng), random_form(20, ring, rng)
        with pytest.raises(ValueError, match="product of degrees 20 and 20 too large: "
                                             "its matrix would be 1771 x 12341"):
            f * g

    def test_power_in_five_variables(self):
        ring = PolyRing(nvars=5)
        x0 = ring.variable(0)
        power = x0
        for _ in range(7):
            power = power * x0
        assert power.terms == {(8, 0, 0, 0, 0): 1}
        assert power == ring.monomial((8, 0, 0, 0, 0))


class TestFormEval:
    def test_quadric_vanishing(self, ring):
        x = vars4(ring)
        f = x[0] * x[2] - x[1] * x[1]
        assert f.evaluate((1, 1, 1, 0)) == 0

    def test_homogeneous_at_origin(self, ring):
        f = random_form(3, ring, random.Random(1))
        assert f.evaluate((0, 0, 0, 0)) == 0

    def test_cube_mod_7(self):
        ring = PolyRing(7)
        f = ring.monomial((3, 0, 0, 0))
        assert f.evaluate((2, 0, 0, 0)) == 1  # 8 mod 7

    def test_length_mismatch(self, ring):
        with pytest.raises(ValueError):
            ring.variable(0).evaluate((1, 2))


class TestRandomForm:
    def test_linear_slot_count(self, ring):
        f = random_form(1, ring, random.Random(2))
        assert len(f.terms) <= 4
        assert ring.dim(1) == 4

    def test_quadric_slot_count(self, ring):
        assert ring.dim(2) == 10

    def test_deterministic(self, ring):
        assert random_form(3, ring, random.Random(42)) == random_form(3, ring, random.Random(42))

    def test_distinct_seeds_differ(self, ring):
        assert random_form(3, ring, random.Random(1)) != random_form(3, ring, random.Random(2))

    def test_degree_zero_rejected(self, ring):
        with pytest.raises(ValueError):
            random_form(0, ring, random.Random(0))


class TestRingAxioms:
    """Exact equality of term maps on random samples."""

    def test_axioms(self, ring):
        rng = random.Random(7)
        for _ in range(20):
            d = rng.randrange(1, 3)
            f = random_form(d, ring, rng)
            g = random_form(d, ring, rng)
            h = random_form(d, ring, rng)
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert f * g == g * f
            k = random_form(1, ring, rng)
            assert (f + g) * k == f * k + g * k
            assert (f * g) * k == f * (g * k)

    def test_eval_is_ring_homomorphism(self, ring):
        rng = random.Random(8)
        for _ in range(20):
            f = random_form(rng.randrange(1, 4), ring, rng)
            g = random_form(rng.randrange(1, 4), ring, rng)
            pt = tuple(rng.randrange(ring.p) for _ in range(4))
            assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt) % ring.p
            if f.degree == g.degree:
                assert (f + g).evaluate(pt) == (f.evaluate(pt) + g.evaluate(pt)) % ring.p


class TestRingContext:
    def test_three_variables_supported(self):
        ring = PolyRing(nvars=3)
        assert ring.dim(2) == 6
        f = random_form(2, ring, random.Random(0))
        assert all(len(m) == 3 for m in f.terms)

    def test_monomial_count_matches_dim(self, ring):
        for d in range(6):
            assert len(ring.monomials(d)) == ring.dim(d)

    @pytest.mark.parametrize("nvars", range(1, 6))
    def test_basis_is_every_exponent_vector_in_descending_lex_order(self, nvars):
        ring = PolyRing(nvars=nvars)
        for d in range(9):
            every = [v for v in itertools.product(range(d + 1), repeat=nvars) if sum(v) == d]
            assert ring.exps(d).tolist() == sorted(map(list, every), reverse=True)
            assert ring.monomials(d) == tuple(sorted(every, reverse=True))
        assert ring.exps(-1).shape == (0, nvars)
        assert ring.monomials(-1) == ()

    def test_basis_above_the_limit_refused(self):
        ring = PolyRing(nvars=500)  # degree 2: 125,250 monomials
        assert ring.exps(1).shape == (500, 500)
        for build in (ring.exps, ring.zero, lambda d: ring.mul_index(1, d - 1)):
            with pytest.raises(ValueError, match="degree 2 too large"):
                build(2)
        with pytest.raises(ValueError, match="too large"):
            PolyRing(nvars=1).monomial((MAX_FORM_DIM + 1,))

    def test_form_rejects_wrong_degree_monomial(self, ring):
        with pytest.raises(ValueError):
            ring.form(2, [((1, 0, 0, 0), 1)])

    def test_zero_forms_equal_across_degrees(self, ring):
        assert ring.zero(2) == ring.zero(5)
        x0 = ring.variable(0)
        cancelled = x0 - x0
        assert cancelled.is_zero and cancelled.degree == 1
        assert cancelled == ring.zero(3)
        assert hash(ring.zero(2)) == hash(ring.zero(5)) == hash(cancelled)
        assert len({ring.zero(0), ring.zero(4), cancelled}) == 1
        assert x0 != ring.zero(1)

    def test_form_sums_repeated_monomials(self, ring):
        m = (1, 1, 0, 0)
        assert ring.form(2, [(m, 3), (m, ring.p - 3)]).is_zero
        assert ring.form(2, [(m, 3), (m, ring.p - 3)]) == ring.zero(2)
        assert ring.form(2, [(m, 3), (m, 5), ((0, 0, 2, 0), -1)]).terms == {
            (1, 1, 0, 0): 8, (0, 0, 2, 0): ring.p - 1}

    def test_form_reads_integral_floats_as_integers(self, ring):
        assert ring.form(1, [((1.0, 0, 0, 0), 2.0)]) == ring.variable(0).scale(2)
        assert ring.form(np.int64(1), [((np.int32(1), 0, 0, 0), np.int64(2))]) == ring.variable(0) * 2
        assert ring.monomial((1.0, 0, 0, 0)) == ring.variable(0)
        assert PolyRing(32003.0) == PolyRing() and type(PolyRing(32003.0).p) is int
        assert type(PolyRing(nvars=np.int64(3)).nvars) is int
        assert ring.variable(0) * np.int64(2) == ring.constant(2.0) * ring.variable(0)
        assert ring.variable(1.0) == ring.variable(np.int64(1)) == ring.monomial((0, 1, 0, 0))

    @pytest.mark.parametrize("build,match", [
        (lambda ring: PolyRing(nvars=0), "at least one variable"),
        (lambda ring: ring.variable(4), "variable index 4 out of range"),
        (lambda ring: ring.variable(-1), "variable index -1 out of range"),
        # numpy once read True as a mask (x0 + x1 + x2 + x3) and 1.5 as a bad index
        (lambda ring: ring.variable(True), "True is not an integer \\(variable index\\)"),
        (lambda ring: ring.variable(1.5), "1.5 is not an integer \\(variable index\\)"),
        (lambda ring: Form(ring, -1, np.zeros(0, dtype=np.int64)), "non-negative"),
        (lambda ring: ring.variable(0) + PolyRing(101).variable(0), "different rings"),
        (lambda ring: ring.variable(0) * PolyRing(101).variable(0), "different rings"),
        (lambda ring: ring.form(1, [((1, 0, 0, 0), 1.5)]), "1.5 is not an integer"),
        (lambda ring: ring.form(1, [((1.7, 0, 0, 0), 1)]), "1.7 is not an integer"),
        (lambda ring: ring.form(1, [((1, 0, 0, 0), True)]), "True is not an integer"),
        (lambda ring: ring.form(1, [((1, 0, 0, 0), "3")]), "'3' is not an integer"),
        (lambda ring: ring.form(2.5, []), "2.5 is not an integer"),
        (lambda ring: ring.monomial((0.5, 1.5, 0, 0)), "0.5 is not an integer"),
        (lambda ring: PolyRing("32003"), "'32003' is not an integer"),
        (lambda ring: PolyRing(32003.5), "32003.5 is not an integer"),
        (lambda ring: PolyRing(nvars="4"), "'4' is not an integer"),
        (lambda ring: ring.variable(0).evaluate((0.25, 0, 0, 0)), "0.25 is not an integer"),
        (lambda ring: ring.constant(0.75), "0.75 is not an integer"),
        (lambda ring: ring.variable(0).scale(1.25), "1.25 is not an integer"),
        (lambda ring: ring.variable(0) * 3.5, "3.5 is not an integer"),
    ])
    def test_refusals(self, ring, build, match):
        with pytest.raises(ValueError, match=match):
            build(ring)

    @pytest.mark.parametrize("bad", [(1, 0, 0), (1, 0, 0, 0, 0), (2, -1, 0, 0)])
    def test_form_rejects_bad_exponent_vector(self, ring, bad):
        with pytest.raises(ValueError):
            ring.form(1, [(bad, 1)])
