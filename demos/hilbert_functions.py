"""Hilbert functions from the inverse system, with no Groebner bases anywhere.

The degree-d piece of an ideal is the row space of the Macaulay matrix of
its generators. hilbert_function ranks none of those matrices: it lifts a
basis of the dual space I_d^perp (Macaulay's inverse system) one degree at
a time, and H(d) is its size. Differencing the quotient Hilbert function
recovers h-vectors, and a Bayer-Stillman regularity certificate proves the
function constant, so its value is the length of a zero-dimensional scheme.
"""

import random

from acmcurves import (FormMatrix, IdealPresentation, PolyRing, build_linear_pair,
                       gorenstein_generators, h_vector_from_profile,
                       hilbert_function, macaulay_matrix, maximal_minors,
                       minimal_generator_degrees)

ring = PolyRing()
x = [ring.variable(i) for i in range(4)]

print("The twisted cubic: maximal minors of [[x0,x1,x2],[x1,x2,x3]]")
tc = FormMatrix(ring, [[x[0], x[1], x[2]], [x[1], x[2], x[3]]])
ideal = IdealPresentation(ring=ring, generators=tuple(maximal_minors(tc)))
profile = hilbert_function(ideal, 8)
print(f"  HF(R/I): {profile.values}")
print(f"  (an arithmetically Cohen-Macaulay cubic curve: 3d + 1)")
print(f"  degree 3 from the growth H(d) - H(d-1) = {profile.values[-1] - profile.values[-2]};")
print("  a curve's profile has no certificate, so no h-vector is reported for it")
print(f"  minimal generator degrees: {minimal_generator_degrees(ideal)}")
m = macaulay_matrix(ideal, 3)
print(f"  Macaulay matrix in degree 3: {m.shape[0]} multiples x {m.shape[1]} monomials\n")

print("A zero-dimensional intersection: the (4, 2) construction")
pair = build_linear_pair(4, 2, random.Random(1))
gens = gorenstein_generators(pair)
profile = hilbert_function(gens, 10)
print(f"  HF(R/I): {profile.values}")
m, v = profile.certificate
print(f"  stabilizes at {profile.stabilized_value} from degree {profile.stabilized_at};")
print(f"  certificate: I is {m}-regular, witnessed by (I + x{v})_{m} = R_{m},")
print(f"  so the intersection scheme has length {profile.stabilized_value}")
h = h_vector_from_profile(profile)
print(f"  h-vector (codim {profile.codimension}): {h} - symmetric, "
      f"socle degree {len(h) - 1}, sum {sum(h)}\n")

print("A missing certificate is an explicit outcome, not a crash:")
curve_profile = hilbert_function(ideal, 6)
print(f"  cubic curve by cutoff 6: stabilized = {curve_profile.stabilized}, "
      f"certificate = {curve_profile.certificate}")
print("  (intersect workflows treat that as 'shared component or cutoff too small')")
