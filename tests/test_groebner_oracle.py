"""Hilbert functions against an independent oracle: a Groebner basis.

The monomials outside the initial ideal of any monomial order form a basis of
R/I (Macaulay's theorem), so counting the degree-d monomials that no leading
monomial of a Groebner basis divides gives H(d). sympy computes the basis
over GF(p) in grevlex order; it is a test-only dependency and the library
itself has no Groebner machinery. Every value is compared, the ones a
certificate fills in as well as the computed ones.
"""

import random

import pytest

from acmcurves.hilbert import IdealPresentation, hilbert_function
from acmcurves.matforms import FormMatrix, maximal_minors
from acmcurves.ring import PolyRing, random_form

sympy = pytest.importorskip("sympy")


def groebner_values(ideal, cutoff):
    """H(0..cutoff) of R/I from the standard monomials of a grevlex basis."""
    ring = ideal.ring
    xs = sympy.symbols(f"x0:{ring.nvars}")
    exprs = [sum(int(c) * sympy.prod([x**e for x, e in zip(xs, m)]) for m, c in g.terms.items())
             for g in ideal.generators]
    basis = sympy.groebner(exprs, *xs, modulus=ring.p, order="grevlex")
    leads = [poly.monoms(order="grevlex")[0] for poly in basis.polys]
    return tuple(sum(not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)
                     for m in ring.monomials(d))
                 for d in range(cutoff + 1))


def random_ideal(ring, degs, rng, times_maximal=False):
    gens = tuple(random_form(e, ring, rng) for e in degs)
    if times_maximal:
        gens = tuple(g * ring.variable(i) for g in gens for i in range(ring.nvars))
    return IdealPresentation(ring=ring, generators=gens)


@pytest.mark.parametrize("p", [32003, 2147483629])
def test_points_and_their_products_with_the_maximal_ideal(p):
    # complete intersections of three forms in P^3 (zero-dimensional, so
    # certified) and the same ideals times (x0, ..., x3), not saturated
    ring = PolyRing(p)
    rng = random.Random(51)
    for degs in [(1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 2, 3)]:
        for times_maximal in (False, True):
            ideal = random_ideal(ring, degs, rng, times_maximal)
            prof = hilbert_function(ideal)
            assert prof.values == groebner_values(ideal, prof.cutoff), (degs, times_maximal)
            assert prof.stabilized_value == degs[0] * degs[1] * degs[2]


@pytest.mark.parametrize("p", [32003, 2147483629])
def test_curves(p):
    # complete intersections of two forms and the twisted cubic: Hilbert
    # functions that grow linearly and carry no certificate
    ring = PolyRing(p)
    rng = random.Random(52)
    x = [ring.variable(i) for i in range(4)]
    ideals = [random_ideal(ring, degs, rng) for degs in [(2, 2), (2, 3), (1, 3)]]
    ideals.append(random_ideal(ring, (2, 2), rng, times_maximal=True))
    cubic = FormMatrix(ring, [[x[0], x[1], x[2]], [x[1], x[2], x[3]]])
    ideals.append(IdealPresentation(ring=ring, generators=tuple(maximal_minors(cubic))))
    for ideal in ideals:
        prof = hilbert_function(ideal, 10)
        assert prof.values == groebner_values(ideal, 10), ideal
        assert prof.certificate is None


def test_fewer_variables():
    # Artinian and one-dimensional quotients in 2 and 3 variables, saturated
    # or times the maximal ideal
    rng = random.Random(53)
    for nvars, degs in [(2, (2, 3)), (2, (3,)), (3, (2, 2, 3)), (3, (1, 3)), (3, (2, 2))]:
        ring = PolyRing(nvars=nvars)
        for times_maximal in (False, True):
            ideal = random_ideal(ring, degs, rng, times_maximal)
            prof = hilbert_function(ideal)
            assert prof.values == groebner_values(ideal, prof.cutoff), (nvars, degs)
