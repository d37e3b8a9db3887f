"""End-to-end verification workflows.

Ties the layers together: build a construction pair, check the Pfaffian
description of its generators, measure the length, h-vector and generator
degrees of the intersection scheme, and compare them against the
closed-form expectations. Also hosts the scripted example scenarios, the
brute-force rational-point oracle over tiny fields, and the tensor
reinterpretations of a linear-entry matrix.

verify_construction measures by structure, in three variables. The ideal I
of the generators is the ideal of the principal Pfaffians of the
(2k+1)-square skew matrix skew_matrix_G, checked form by form. If some
coordinate hyperplane x_v = 0 misses V(I), V(I) is finite (a curve meets
every plane), so I has height 3, the most a Pfaffian ideal can have, and
grade 3 as R is Cohen-Macaulay. Then the Buchsbaum-Eisenbud complex
resolves R/I (Amer. J. Math. 99, 1977, Thm 2.1), so R/I is Cohen-Macaulay
of dimension 1 and x_v is a nonzerodivisor on it. Reducing by x_v keeps
the Betti numbers, so the Artinian ring R/(I + x_v) in three variables
has the h-vector of R/I as its Hilbert function, with the length as its
sum, and the image of I in R/(x_v) has the generator degrees of I. Its
socle degree s is the top twist of the resolution minus 3, so
(I + x_v)_{s+1} = R_{s+1} is the emptiness test, and its values through s
are the h-vector. No Hilbert function in four variables is computed.

Every entry of skew_matrix_G is zero or of positive degree, so when the
Pfaffians generate an ideal of grade 3 the Buchsbaum-Eisenbud resolution
is minimal, and a minimal resolution has no zero generator. A sample with
a zero generator therefore has grade <= 2: its scheme has positive
dimension and meets every coordinate hyperplane, the blocked sample that
the emptiness test already reports. No draw needs a case of its own.

run_scenario measures its construction pairs (ex-11, ex-26, ex-2d3) the
same way, through the same helper: their ideal I_{C_t} + I_{C_{t-r}} is the
Gorenstein ideal J of gorenstein_generators, for every pair the layout
admits (gorenstein_generators says why). A sample whose scheme meets every
coordinate hyperplane gets no length, and its failure says so: the lift's
regularity certificate needs (J + x_v)_m = R_m for some v and m, so it
could certify none either. A failed identity fails the report.
_by_structure states both failures once.

Intersection multiplicity is counted scheme-theoretically (the stabilized
Hilbert value is the length of the intersection scheme); reports say
"degree" in that sense and never certify reducedness.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import formulas
from .construct import (ConstructionPair, _random_matrix, build_uniform_pair, embed_pair,
                        gorenstein_generators, skew_matrix_G)
from .hilbert import (HilbertProfile, IdealPresentation, artinian_reduction,
                      hilbert_function, minimal_generator_degrees)
from .matforms import FormMatrix, SkewFormMatrix, maximal_minors, principal_pfaffians
from .ring import DEFAULT_PRIME, Form, PolyRing, random_form

MAX_RESEEDS = 3

# Pinned scenario seeds keep reports byte-reproducible; pass an explicit
# seed to run_scenario (or the CLI flag) to unlock fresh randomness.
SCENARIO_SEEDS = {
    "ex-11": 11011,
    "ex-26": 26026,
    "ex-2d3": 20301,
    "ex-mixed": 50117,
}


@dataclass
class VerificationReport:
    """Observed-versus-expected record for one verification run.

    cases holds named sub-results for scenarios that count more than one
    intersection. The verdict is not stored: passed is computed from the
    checks recorded so far.
    """

    parameters: dict
    observed_degree: int | None = None
    expected_degree: int | None = None
    observed_h_vector: tuple[int, ...] | None = None
    expected_h_vector: tuple[int, ...] | None = None
    generator_degrees_observed: dict[int, int] | None = None
    generator_degrees_expected: dict[int, int] | None = None
    pfaffian_span_equal: bool | None = None
    cases: dict[str, dict] | None = None
    failure: str | None = None
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True iff no failure is recorded, at least one check was made, and
        every equality with an expected value set holds."""
        checks = []
        if self.expected_degree is not None:
            checks.append(self.observed_degree == self.expected_degree)
        if self.expected_h_vector is not None:
            checks.append(self.observed_h_vector == self.expected_h_vector)
        if self.generator_degrees_expected is not None:
            checks.append(self.generator_degrees_observed == self.generator_degrees_expected)
        if self.pfaffian_span_equal is not None:
            checks.append(self.pfaffian_span_equal)
        if self.cases is not None:
            checks.extend(c["observed"] == c["expected"] for c in self.cases.values())
        return bool(checks) and all(checks) and self.failure is None


@dataclass(frozen=True)
class TensorViews:
    """Three matrix readings of the coefficient tensor of a linear-entry matrix.

    tensor[u, v, w] is the coefficient of variable v in entry (u, w). The
    views are exact reindexings: m_u[v, w] lists coefficients over the row
    space, m_w[v, u] over the column space.
    """

    dims: tuple[int, int, int]
    tensor: np.ndarray
    m_v: FormMatrix
    m_u: np.ndarray
    m_w: np.ndarray

    def reconstruct(self) -> FormMatrix:
        ring = self.m_v.ring
        t, _, t1 = self.dims
        ent = [[Form(ring, 1, self.tensor[u, :, w] % ring.p) for w in range(t1)]
               for u in range(t)]
        return FormMatrix(ring, ent, [[1] * t1 for _ in range(t)])


def intersect_count(a: FormMatrix, b: FormMatrix,
                    cutoff: int | None = None) -> tuple[int | None, HilbertProfile]:
    """Length of the intersection scheme of two determinantal curves.

    Builds the ideal generated by the maximal minors of both matrices and
    returns (certified stabilized Hilbert value, profile). A profile that is
    not certified by the cutoff (shared component, or cutoff too small)
    yields (None, profile) as an explicit non-result.
    """
    if a.ring != b.ring:
        raise ValueError("matrices live in different rings")
    return _count_intersection(maximal_minors(a) + maximal_minors(b), a.ring, cutoff)


def _count_intersection(forms: list[Form], ring: PolyRing,
                        cutoff: int | None = None) -> tuple[int | None, HilbertProfile]:
    """Certified stabilized Hilbert value and profile of the ideal of the
    nonzero forms."""
    ideal = IdealPresentation(ring=ring, generators=tuple(f for f in forms if not f.is_zero))
    profile = hilbert_function(ideal, cutoff)
    return profile.stabilized_value, profile


def _matches(forms: Sequence[Form], others: Sequence[Form]) -> bool:
    """True iff form i of forms is +-form i of others, for every i."""
    return len(forms) == len(others) and all(f == g or f == -g for f, g in zip(forms, others))


def _by_structure(pair: ConstructionPair, gens: IdealPresentation, timings: dict[str, float]
                  ) -> tuple[bool, str | None, tuple[tuple[int, ...], IdealPresentation] | None]:
    """(identity, failure, measured) for the Gorenstein ideal I of gens, by
    structure (module docstring), with the stage timings "pfaffian" and
    "hilbert".

    identity says whether principal Pfaffian i of skew_matrix_G(pair) is
    +-form i of pair.generators, zero ones included; when it fails, nothing
    else is computed. Then, with s the socle degree of the expected
    resolution, measured is (h-vector, J) from the first x_v in x_3, ...,
    x_0 with (I + x_v)_{s+1} = R_{s+1}, J the image of I in R/(x_v).
    failure says why measured is None, and is None otherwise.
    """
    t0 = time.perf_counter()
    identity = _matches(principal_pfaffians(skew_matrix_G(pair)), pair.generators)
    timings["pfaffian"] = time.perf_counter() - t0
    if not identity:
        return False, "principal Pfaffians of the skew matrix are not the generators", None
    socle = max(formulas.expected_betti(pair.t, pair.r, pair.d).step(3)) - 3
    t0 = time.perf_counter()
    reduction = artinian_reduction(gens, socle + 1)
    timings["hilbert"] = time.perf_counter() - t0
    if reduction is None:
        return True, (f"every coordinate hyperplane meets the scheme: no x_v with "
                      f"(I + x_v) = R in degree {socle + 1}"), None
    _, section, profile = reduction
    # an Artinian quotient generated in degree 1 is zero from its first zero on
    return True, None, (tuple(itertools.takewhile(bool, profile.values)), section)


def pfaffian_span_check(pair: ConstructionPair) -> bool:
    """True iff principal Pfaffian i of skew_matrix_G is +-form i of pair.generators,
    so both sets generate one ideal: upper deletions give +-det of the embedded
    transpose minus a row, and the lower ones follow by generalized Laplace
    (skew_matrix_G)."""
    return _matches(principal_pfaffians(skew_matrix_G(pair)), pair.generators)


def perturbed_pfaffian_span_check(pair: ConstructionPair, rng: random.Random) -> bool:
    """Pfaffian check after one random upper entry of the skew matrix is replaced
    by a fresh random form of the slot degree.

    Generically the perturbed Pfaffians are no longer +-the generators, so
    the expected outcome is False (with overwhelming probability at large p).
    """
    skew = _perturbed(skew_matrix_G(pair), pair.t - pair.r + 1, rng)
    return _matches(principal_pfaffians(skew), pair.generators)


def _perturbed(g: SkewFormMatrix, top: int, rng: random.Random) -> SkewFormMatrix:
    """g with its entry (i, j), for random i < top and i < j < g.size,
    replaced by a fresh random form of the slot degree."""
    i = rng.randrange(top)
    j = rng.randrange(i + 1, g.size)
    return g.with_entry(i, j, random_form(g.degree_matrix[i][j], g.ring, rng))


def verify_construction(t: int, r: int, d: int = 1, seed: int = 0,
                        prime: int = DEFAULT_PRIME) -> VerificationReport:
    """Build a pair and verify its Pfaffian identity, degree, h-vector and
    generator degrees, from one Artinian reduction (module docstring).

    Principal Pfaffian i of skew_matrix_G must be +-generator i; a sample
    that fails it is a fault, so the report fails at once, with the observed
    fields unset. Then, with s = (top twist) - 3 the socle degree, the first
    coordinate x_v in x_3, ..., x_0 with (I + x_v)_{s+1} = R_{s+1} gives the
    observed h-vector, the values of R/(I + x_v) through degree s, its sum,
    the length, and the generator degrees of the image of I in R/(x_v)
    (_by_structure).

    Random entries realize "general" ones; if no coordinate hyperplane misses
    a sample's scheme (a zero generator is such a sample, module docstring),
    the pair is rebuilt with the next seed, at most MAX_RESEEDS times, before
    reporting failure. Every exception propagates: a reseed must not hide a
    fault in the computation.
    """
    ring = PolyRing(prime, 4)
    params = {"t": t, "r": r, "d": d, "p": prime, "seed": seed}
    report = VerificationReport(parameters=params)
    shape = formulas.expected_betti(t, r, d)
    expected_h, expected_deg = formulas.hilbert_from_resolution(shape)
    report.expected_degree = expected_deg
    report.expected_h_vector = expected_h
    report.generator_degrees_expected = shape.step(1)

    for attempt in range(MAX_RESEEDS + 1):
        used_seed = seed + attempt
        params["seed"] = used_seed
        t0 = time.perf_counter()
        pair = build_uniform_pair(t, r, d, random.Random(used_seed), ring=ring)
        gens = gorenstein_generators(pair)
        report.timings["construct"] = time.perf_counter() - t0

        report.pfaffian_span_equal, failure, measured = _by_structure(pair, gens, report.timings)
        if failure is not None:
            last_error = f"{failure} (seed {used_seed})"
            if not report.pfaffian_span_equal:  # a fault: no reseed
                report.failure = last_error
                return report
            continue
        report.observed_h_vector, section = measured
        report.observed_degree = sum(report.observed_h_vector)

        t0 = time.perf_counter()
        report.generator_degrees_observed = minimal_generator_degrees(section)
        report.timings["generators"] = time.perf_counter() - t0
        return report
    report.failure = f"genericity failure after {MAX_RESEEDS + 1} attempts: {last_error}"
    return report


def rational_point_oracle(ideal: IdealPresentation, q: int) -> tuple[int, list[tuple[int, ...]]]:
    """All F_q-rational points of P^3 where every generator vanishes.

    Brute force over the q^3 + q^2 + q + 1 normalized representatives; an
    independent sanity check on schemes already measured through ranks.
    """
    if ideal.ring.p != q:
        raise ValueError("oracle expects the ideal to live over F_q")
    if q > 101:
        raise ValueError("oracle modulus capped at 101")
    if ideal.ring.nvars != 4:
        raise ValueError("oracle enumerates points of P^3 only")
    gens = sorted(ideal.generators, key=lambda g: g.degree)
    points = []
    for lead in range(4):
        fixed = (0,) * lead + (1,)
        free = 3 - lead
        for rest in itertools.product(range(q), repeat=free):
            pt = fixed + rest
            if all(g.evaluate(pt) == 0 for g in gens):
                points.append(pt)
    return len(points), points


def tensor_views(m: FormMatrix) -> TensorViews:
    """Coefficient tensor of a linear-entry matrix over 4 variables, plus the
    4 x (t+1) over-rows and 4 x t over-columns views."""
    ring = m.ring
    if ring.nvars != 4:
        raise ValueError("tensor views are defined over 4 variables")
    for i in range(m.rows):
        for j in range(m.cols):
            e = m.entry(i, j)
            if not e.is_zero and e.degree != 1:
                raise ValueError(f"entry ({i},{j}) is not linear")
    t, t1 = m.rows, m.cols
    tensor = np.zeros((t, 4, t1), dtype=np.int64)
    for u in range(t):
        for w in range(t1):
            e = m.entry(u, w)
            if not e.is_zero:
                tensor[u, :, w] = e.coeffs  # the degree-1 basis is x_0, ..., x_3
    m_u = np.transpose(tensor, (1, 2, 0)).copy()  # [v, w, u]: entries in the row space
    m_w = np.transpose(tensor, (1, 0, 2)).copy()  # [v, u, w]: entries in the column space
    return TensorViews(dims=(t, 4, t1), tensor=tensor, m_v=m, m_u=m_u, m_w=m_w)


# ---- scripted scenarios ----

def _twisted_cubic_matrix(ring: PolyRing) -> FormMatrix:
    x = [ring.variable(i) for i in range(4)]
    return FormMatrix(ring, [[x[0], x[1], x[2]], [x[1], x[2], x[3]]], [[1, 1, 1]] * 2)


def _mixed_degree_matrix(ring: PolyRing, rng: random.Random) -> FormMatrix:
    ent = [[random_form(dd, ring, rng) for dd in (3, 2, 1)] for _ in range(2)]
    return FormMatrix(ring, ent, [[3, 2, 1], [3, 2, 1]])


def run_scenario(scenario_id: str, d: int = 2, seed: int | None = None,
                 prime: int = DEFAULT_PRIME) -> VerificationReport:
    """Scripted intersection counts.

    ex-11:    twisted cubic against the embedding 4 x 5 matrix, length 11.
    ex-26:    random (5, 2) pair, length 26.
    ex-2d3:   uniform-degree (2, 1) pair, length 2*d**3.
    ex-mixed: 2 x 3 matrix with degree matrix [[3,2,1],[3,2,1]]; case A cuts
              with the two first-column entries, case B with the unique cubic
              in the ideal (the minor of columns 2-3) and a fresh cubic.

    The construction pairs get the length of R/(I_{C_t} + I_{C_{t-r}}), the
    ideal of gorenstein_generators, by structure (_by_structure, module
    docstring); a blocked sample, a zero generator included, or a failed
    identity gets none, and the failure says which. ex-mixed, no Pfaffian
    pair, is measured by the lift.
    """
    if scenario_id not in SCENARIO_SEEDS:
        raise ValueError(f"unknown scenario {scenario_id!r}")
    used_seed = SCENARIO_SEEDS[scenario_id] if seed is None else seed
    ring = PolyRing(prime, 4)
    rng = random.Random(used_seed)
    params = {"scenario": scenario_id, "p": prime, "seed": used_seed}
    report = VerificationReport(parameters=params)
    t0 = time.perf_counter()

    if scenario_id == "ex-mixed":
        m_d = _mixed_degree_matrix(ring, rng)
        d_gens = maximal_minors(m_d)
        ci_a = [m_d.entry(0, 0), m_d.entry(1, 0)]
        count_a, _ = _count_intersection(ci_a + d_gens, ring)
        # the cubic of case B, the minor of columns 2-3, is d_gens[0]
        count_b, _ = _count_intersection([random_form(3, ring, rng)] + d_gens, ring)
        report.cases = {
            "caseA": {"observed": count_a, "expected": 17},
            "caseB": {"observed": count_b, "expected": 33},
        }
    else:
        if scenario_id == "ex-11":
            pair, expected = embed_pair(_twisted_cubic_matrix(ring), 4, rng), 11
        elif scenario_id == "ex-26":
            pair, expected = build_uniform_pair(5, 2, 1, rng, ring=ring), 26
        else:  # ex-2d3
            params["d"] = d
            pair, expected = build_uniform_pair(2, 1, d, rng, ring=ring), 2 * d**3
        report.expected_degree = expected
        _, report.failure, measured = _by_structure(pair, gorenstein_generators(pair),
                                                    report.timings)
        if measured is not None:
            report.observed_degree = sum(measured[0])

    report.timings["total"] = time.perf_counter() - t0
    return report


def conjecture_evidence(t: int, r: int, trials: int = 100, seed: int = 0,
                        prime: int = DEFAULT_PRIME) -> dict:
    """Observed intersection lengths of random non-embedded pairs versus the bound.

    Evidence only: most random pairs of curves miss each other entirely. Any
    observed count above the bound is flagged loudly on stderr (and in the
    returned summary) but is not an error here.
    """
    ring = PolyRing(prime, 4)
    bound = formulas.bound_linear(t, r)
    counts = []
    unresolved = 0
    violations = []
    for k in range(trials):
        rng = random.Random(seed + k)
        a = _random_matrix(ring, t - r, t - r + 1, 1, rng)
        b = _random_matrix(ring, t, t + 1, 1, rng)
        count, _ = intersect_count(a, b)
        if count is None:
            unresolved += 1
            continue
        counts.append(count)
        if count > bound:
            violations.append({"seed": seed + k, "count": count})
    if violations:
        print(f"WARNING: observed intersection count above the bound {bound} "
              f"at (t={t}, r={r}): {violations}", file=sys.stderr)
    return {
        "t": t, "r": r, "bound": bound, "trials": trials,
        "resolved": len(counts), "unresolved": unresolved,
        "max_observed": max(counts) if counts else None,
        "violations": violations,
    }
