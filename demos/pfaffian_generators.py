"""The skew-symmetric description of the intersection ideal.

A codimension-3 arithmetically Gorenstein ideal is generated by the
principal Pfaffians of an odd skew matrix. For the embedded construction
that matrix is written down explicitly from the same entries; this demo
checks, form by form, that principal Pfaffian i is minor generator i or its
negative, so both sets generate the same ideal, and that perturbing a
single entry destroys the match.
"""

import random

from acmcurves import (build_linear_pair, gorenstein_generators,
                       perturbed_pfaffian_span_check, pfaffian_span_check,
                       principal_pfaffians, skew_matrix_G)

t, r = 4, 2
pair = build_linear_pair(t, r, random.Random(7))
g = skew_matrix_G(pair)
print(f"(t, r) = ({t}, {r}): skew matrix of size {g.size} (= 2t - 2r + 1)")
q = t - r + 1
print(f"  upper-left {q}x{q} block: degree-{r + 1} determinants")
print(f"  upper-right block: the embedded transpose entries (degree 1)")
print(f"  lower-right {t - r}x{t - r} block: identically zero\n")

pfs = principal_pfaffians(g)
print(f"{len(pfs)} principal Pfaffians, degrees {sorted(p.degree for p in pfs)}")
gens = gorenstein_generators(pair)
print(f"{len(gens.generators)} minor generators, degrees "
      f"{sorted(gg.degree for gg in gens.generators)}\n")

signs = "".join("+" if f == gg else "-" if f == -gg else "?" for f, gg in zip(pfs, gens.generators))
print(f"principal Pfaffian i = sign * generator i, signs {signs}: {pfaffian_span_check(pair)}")

rng = random.Random(8)
broken = [perturbed_pfaffian_span_check(pair, rng) for _ in range(5)]
print(f"after 5 random single-entry perturbations: {broken}")
print("(False each time: the perturbed Pfaffians are no longer +-the generators)")
