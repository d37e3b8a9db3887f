"""End-to-end verification workflows.

Ties the layers together: build a construction pair, measure the length and
h-vector of the intersection scheme through Hilbert-function stabilization,
compare against the closed-form expectations, and cross-check the Pfaffian
description of the generators. Also hosts the scripted example scenarios,
the brute-force rational-point oracle over tiny fields, and the tensor
reinterpretations of a linear-entry matrix.

Intersection multiplicity is counted scheme-theoretically (the stabilized
Hilbert value is the length of the intersection scheme); reports say
"degree" in that sense and never certify reducedness.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import formulas
from .construct import (ConstructionPair, build_uniform_pair, embed_pair,
                        gorenstein_generators, skew_matrix_G)
from .hilbert import (HilbertProfile, IdealPresentation, graded_piece_spans_equal,
                      h_vector_from_profile, hilbert_function,
                      minimal_generator_degrees)
from .matforms import FormMatrix, maximal_minors, minor, principal_pfaffians
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

    passed is the conjunction of every individual equality that was checked;
    cases holds named sub-results for scenarios that count more than one
    intersection.
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
    passed: bool = False
    failure: str | None = None
    timings: dict[str, float] = field(default_factory=dict)

    def recompute_passed(self) -> None:
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
        self.passed = bool(checks) and all(checks) and self.failure is None


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


def _two_largest_degrees(*ideals: IdealPresentation) -> int:
    degs = sorted((g.degree for ideal in ideals for g in ideal.generators), reverse=True)
    return degs[0] + degs[1] if len(degs) >= 2 else (degs[0] if degs else 0)


def intersect_count(a: FormMatrix, b: FormMatrix,
                    cutoff: int | None = None) -> tuple[int | None, HilbertProfile]:
    """Length of the intersection scheme of two determinantal curves.

    Builds the ideal generated by the maximal minors of both matrices and
    returns (stabilized Hilbert value, profile). A profile that does not
    stabilize by the cutoff (shared component, or cutoff too small) yields
    (None, profile) as an explicit non-result.
    """
    if a.ring != b.ring:
        raise ValueError("matrices live in different rings")
    return _count_intersection(maximal_minors(a) + maximal_minors(b), a.ring, cutoff)


def _count_intersection(forms: list[Form], ring: PolyRing,
                        cutoff: int | None = None) -> tuple[int | None, HilbertProfile]:
    """Stabilized Hilbert value and profile of the ideal of the nonzero forms;
    the default cutoff is the sum of the two largest degrees plus 4."""
    ideal = IdealPresentation(ring=ring, generators=tuple(f for f in forms if not f.is_zero))
    if cutoff is None:
        cutoff = _two_largest_degrees(ideal) + 4
    profile = hilbert_function(ideal, cutoff, stop_at_stabilization=True)
    return profile.degree, profile


def _spans_match_generators(pair: ConstructionPair, pfs: list[Form]) -> bool:
    pfs = [f for f in pfs if not f.is_zero]
    if len(pfs) != 2 * pair.t - 2 * pair.r + 1:
        return False
    gens = gorenstein_generators(pair)
    pf_ideal = IdealPresentation(ring=pair.m_big.ring, generators=tuple(pfs))
    return graded_piece_spans_equal(gens, pf_ideal, pair.t * pair.d)


def pfaffian_span_check(pair: ConstructionPair) -> bool:
    """True iff the principal Pfaffians of the skew matrix span exactly the
    same graded pieces as the minor generators, in every degree up to t*d.

    Both sets have all their generators in degrees <= t*d, so agreement up
    there forces the two ideals to be equal.
    """
    return _spans_match_generators(pair, principal_pfaffians(skew_matrix_G(pair)))


def perturbed_pfaffian_span_check(pair: ConstructionPair, rng: random.Random) -> bool:
    """Span check after one random upper entry of the skew matrix is replaced
    by a fresh random form of the slot degree.

    Generically the perturbed Pfaffians span different graded pieces, so the
    expected outcome is False (with overwhelming probability at large p).
    """
    g = skew_matrix_G(pair)
    top = pair.t - pair.r + 1
    i = rng.randrange(top)
    j = rng.randrange(i + 1, g.size)
    slot = (pair.r + 1) * pair.d if j < top else pair.d
    g2 = g.with_entry(i, j, random_form(slot, pair.m_big.ring, rng))
    return _spans_match_generators(pair, principal_pfaffians(g2))


def verify_construction(t: int, r: int, d: int = 1, seed: int = 0,
                        prime: int = DEFAULT_PRIME,
                        max_reseeds: int = MAX_RESEEDS) -> VerificationReport:
    """Build a pair and verify degree, h-vector, generator degrees, Pfaffian span.

    Random entries realize "general" ones; if the intersection fails to look
    zero-dimensional (no Hilbert stabilization, an impossible h-vector, a
    degenerate zero minor) the pair is rebuilt with the next seed, at most
    max_reseeds times, before reporting failure.
    """
    ring = PolyRing(prime, 4)
    params = {"t": t, "r": r, "d": d, "p": prime, "seed": seed}
    report = VerificationReport(parameters=params)
    cutoff = d * (2 * t - r + 1)
    expected_h, expected_deg = formulas.hilbert_from_resolution(formulas.expected_betti(t, r, d))
    if d == 1:
        expected_h = formulas.h_vector_gorenstein(t, r)
    report.expected_degree = expected_deg
    report.expected_h_vector = expected_h
    report.generator_degrees_expected = {d * (t - r): t - r + 1, d * t: t - r}

    last_error = "no attempt ran"
    for attempt in range(max_reseeds + 1):
        used_seed = seed + attempt
        params["seed"] = used_seed
        try:
            t0 = time.perf_counter()
            pair = build_uniform_pair(t, r, d, random.Random(used_seed), ring=ring)
            gens = gorenstein_generators(pair)
            report.timings["construct"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            profile = hilbert_function(gens, cutoff, stop_at_stabilization=True)
            report.timings["hilbert"] = time.perf_counter() - t0
            if not profile.stabilized:
                last_error = f"no stabilization by degree {cutoff} (seed {used_seed})"
                continue
            report.observed_degree = profile.degree
            report.observed_h_vector = h_vector_from_profile(profile, 3)

            t0 = time.perf_counter()
            report.generator_degrees_observed = minimal_generator_degrees(gens)
            report.timings["generators"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            report.pfaffian_span_equal = pfaffian_span_check(pair)
            report.timings["pfaffian"] = time.perf_counter() - t0
            report.failure = None
            report.recompute_passed()
            return report
        except ValueError as exc:
            last_error = f"{exc} (seed {used_seed})"
            continue
    report.failure = f"genericity failure after {max_reseeds + 1} attempts: {last_error}"
    report.passed = False
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
        for rest in _tuples(q, free):
            pt = fixed + rest
            if all(g.evaluate(pt) == 0 for g in gens):
                points.append(pt)
    return len(points), points


def _tuples(q: int, n: int):
    if n == 0:
        yield ()
        return
    for head in range(q):
        for tail in _tuples(q, n - 1):
            yield (head,) + tail


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
    return FormMatrix(ring, [[x[0], x[1], x[2]], [x[1], x[2], x[3]]],
                      [[1, 1, 1]] * 2, hilbert_burch=True)


def _mixed_degree_matrix(ring: PolyRing, rng: random.Random) -> FormMatrix:
    ent = [[random_form(dd, ring, rng) for dd in (3, 2, 1)] for _ in range(2)]
    return FormMatrix(ring, ent, [[3, 2, 1], [3, 2, 1]])


def run_scenario(scenario_id: str, d: int = 2, seed: int | None = None,
                 prime: int = DEFAULT_PRIME) -> VerificationReport:
    """Scripted intersection counts.

    ex-11:    twisted cubic against the embedding 4 x 5 matrix, length 11.
    ex-26:    random (5, 2) pair, length 26.
    ex-2d3:   uniform-degree (2, 1) pair, length 2*d**3 (also accepts the
              spelled form "ex-2d3(3)").
    ex-mixed: 2 x 3 matrix with degree matrix [[3,2,1],[3,2,1]]; case A cuts
              with the two first-column entries, case B with the unique cubic
              in the ideal (the minor of columns 2-3) and a fresh cubic.
    """
    base = scenario_id
    if scenario_id.startswith("ex-2d3(") and scenario_id.endswith(")"):
        d = int(scenario_id[len("ex-2d3("):-1])
        base = "ex-2d3"
    if base not in SCENARIO_SEEDS:
        raise ValueError(f"unknown scenario {scenario_id!r}")
    used_seed = SCENARIO_SEEDS[base] if seed is None else seed
    ring = PolyRing(prime, 4)
    rng = random.Random(used_seed)
    params = {"scenario": base, "p": prime, "seed": used_seed}
    report = VerificationReport(parameters=params)
    t0 = time.perf_counter()

    if base == "ex-11":
        pair = embed_pair(_twisted_cubic_matrix(ring), 4, rng)
        count, _ = intersect_count(pair.m_small, pair.m_big)
        report.observed_degree = count
        report.expected_degree = 11
    elif base == "ex-26":
        pair = build_uniform_pair(5, 2, 1, rng, ring=ring)
        count, _ = intersect_count(pair.m_small, pair.m_big)
        report.observed_degree = count
        report.expected_degree = 26
    elif base == "ex-2d3":
        params["d"] = d
        pair = build_uniform_pair(2, 1, d, rng, ring=ring)
        count, _ = intersect_count(pair.m_small, pair.m_big)
        report.observed_degree = count
        report.expected_degree = 2 * d**3
    else:  # ex-mixed
        m_d = _mixed_degree_matrix(ring, rng)
        d_gens = maximal_minors(m_d)
        ci_a = [m_d.entry(0, 0), m_d.entry(1, 0)]
        count_a, _ = _count_intersection(ci_a + d_gens, ring)
        cubic = minor(m_d, [0, 1], [1, 2])
        ci_b = [cubic, random_form(3, ring, rng)]
        count_b, _ = _count_intersection(ci_b + d_gens, ring)
        report.cases = {
            "caseA": {"observed": count_a, "expected": 17},
            "caseB": {"observed": count_b, "expected": 33},
        }

    report.timings["total"] = time.perf_counter() - t0
    report.recompute_passed()
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
        small = [[random_form(1, ring, rng) for _ in range(t - r + 1)] for _ in range(t - r)]
        big = [[random_form(1, ring, rng) for _ in range(t + 1)] for _ in range(t)]
        a = FormMatrix(ring, small)
        b = FormMatrix(ring, big)
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
