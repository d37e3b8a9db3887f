"""Acceptance suite: one printed PASS/FAIL line per criterion (run with -s).

Every equality is an exact integer check. Criteria are numbered; the grid of
construction verifications is computed once and shared between the criteria
that consume it.

Known red: criterion 5 pins (17, 33) for the mixed-degree scenario. The
stated construction's intersection ideal is a complete intersection of three
cubics of length 27 (confirmed independently by liaison genus bookkeeping
and a Jacobian reducedness certificate), so the pinned 17 cannot be
reproduced; the assertion is kept as stated and fails honestly.
"""

import random
import time

import pytest

from acmcurves.construct import build_linear_pair, gorenstein_generators
from acmcurves.formulas import (bound_linear, bound_uniform, h_vector_gorenstein)
from acmcurves.harness import (conjecture_evidence, perturbed_pfaffian_span_check,
                               rational_point_oracle, run_scenario, tensor_views,
                               verify_construction)
from acmcurves.hilbert import IdealPresentation, hilbert_function
from acmcurves.jsonio import dumps, report_to_doc
from acmcurves.matforms import (FormMatrix, determinant, maximal_minors, pfaffian,
                                SkewFormMatrix)
from acmcurves.ring import PolyRing, random_form

GRID = [(t, r) for t in range(2, 8) for r in range(1, t)]
UNIFORM_GRID = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2)]


def announce(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {name}: {tag}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def grid_reports():
    t0 = time.perf_counter()
    reports = {(t, r): verify_construction(t, r, 1, seed=7) for (t, r) in GRID}
    return reports, time.perf_counter() - t0


def test_criterion_1_formula_suite():
    t0 = time.perf_counter()
    ok = bound_linear(4, 2) == 11 and bound_linear(5, 2) == 26
    ok &= all(bound_uniform(d, 2, 1) == 2 * d**3 for d in range(1, 11))
    ok &= all(bound_uniform(1, t, r) == bound_linear(t, r)
              for t in range(2, 9) for r in range(0, t))
    ok &= all(bound_linear(t, t - 1) == t for t in range(2, 9))
    ok &= all(bound_linear(t, t - 2) == 3 * t - 1 for t in range(2, 9))
    ok &= all(bound_linear(t, t - 3) == 6 * t - 4 for t in range(3, 9))
    ok &= all(bound_linear(t, t - 4) == 10 * t - 10 for t in range(4, 9))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    announce("1 [formula suite]", ok, f"{elapsed:.3f}s")
    assert ok


def test_criterion_2_construction_grid(grid_reports):
    reports, elapsed = grid_reports
    failures = []
    for (t, r), rep in reports.items():
        expected_h = h_vector_gorenstein(t, r)
        checks = (rep.passed
                  and rep.observed_degree == bound_linear(t, r)
                  and rep.observed_h_vector == expected_h
                  and rep.observed_h_vector == tuple(reversed(rep.observed_h_vector))
                  and sum(rep.observed_h_vector) == bound_linear(t, r)
                  and rep.generator_degrees_observed == {t - r: t - r + 1, t: t - r})
        if not checks:
            failures.append((t, r))
    ok = not failures and elapsed < 120.0
    announce("2 [construction grid t<=7]", ok,
             f"{len(GRID)} pairs, {elapsed:.1f}s" + (f", failures {failures}" if failures else ""))
    assert ok


def test_criterion_3_uniform_grid():
    t0 = time.perf_counter()
    failures = []
    for (t, r, d) in UNIFORM_GRID:
        rep = verify_construction(t, r, d, seed=7)
        if not (rep.passed and rep.observed_degree == bound_uniform(d, t, r)):
            failures.append((t, r, d))
        if (t, r, d) == (2, 1, 2) and rep.observed_degree != 16:
            failures.append("(2,1,2) != 16")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    announce("3 [uniform-degree grid]", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_4_pfaffian_equivalence(grid_reports):
    reports, _ = grid_reports
    span_ok = all(rep.pfaffian_span_equal for rep in reports.values())
    pair = build_linear_pair(4, 2, random.Random(41))
    rng = random.Random(42)
    perturbed = [perturbed_pfaffian_span_check(pair, rng) for _ in range(10)]
    ok = span_ok and not any(perturbed)
    announce("4 [Pfaffian span equivalence]", ok,
             f"grid all true, {sum(not x for x in perturbed)}/10 perturbations false")
    assert ok


def test_criterion_5_scenarios_attainable():
    checks = {
        "ex-11": run_scenario("ex-11").observed_degree == 11,
        "ex-26": run_scenario("ex-26").observed_degree == 26,
        "ex-2d3(2)": run_scenario("ex-2d3", d=2).observed_degree == 16,
        "ex-mixed caseB": run_scenario("ex-mixed").cases["caseB"]["observed"] == 33,
    }
    ok = all(checks.values())
    announce("5 [scenarios ex-11/ex-26/ex-2d3(2)/ex-mixed caseB]", ok, str(checks) if not ok else "")
    assert ok


def test_criterion_5_ex_mixed_case_a_pinned_value():
    observed = run_scenario("ex-mixed").cases["caseA"]["observed"]
    ok = observed == 17
    announce("5 [ex-mixed caseA pinned=17]", ok,
             f"observed {observed}; exact count of the stated construction is 27 "
             "(complete intersection of three cubics; liaison and Jacobian "
             "certificates concur), pinned value unattainable")
    assert ok, f"pinned expected 17, observed {observed}"


def test_criterion_6_rational_point_oracle():
    failures = []
    for q in (7, 11):
        ring = PolyRing(q, 4)
        for (t, r) in [(3, 1), (4, 2)]:
            pair = None
            for seed in range(25):  # tiny fields fail genericity noticeably often
                try:
                    cand = build_linear_pair(t, r, random.Random(seed), ring=ring)
                    profile = hilbert_function(gorenstein_generators(cand), 2 * t + 2,
                                               stop_at_stabilization=True)
                except ValueError:
                    continue
                if profile.stabilized:
                    pair = cand
                    break
            if pair is None:
                failures.append((q, t, r, "no stabilizing seed"))
                continue
            gens = gorenstein_generators(pair)
            count, points = rational_point_oracle(gens, q)
            small = maximal_minors(pair.m_small)
            big = maximal_minors(pair.m_big)
            on_both = all(all(m.evaluate(pt) == 0 for m in small)
                          and all(m.evaluate(pt) == 0 for m in big)
                          for pt in points)
            if not (on_both and count <= bound_linear(t, r)):
                failures.append((q, t, r, count))
    ring7 = PolyRing(7, 4)
    x = [ring7.variable(i) for i in range(4)]
    tc = FormMatrix(ring7, [[x[0], x[1], x[2]], [x[1], x[2], x[3]]])
    ideal = IdealPresentation(ring=ring7, generators=tuple(maximal_minors(tc)))
    n, _ = rational_point_oracle(ideal, 7)
    if n != 8:
        failures.append(("twisted cubic F_7", n))
    ok = not failures
    announce("6 [rational-point oracle F_7/F_11]", ok, str(failures) if failures else "")
    assert ok


def test_criterion_7_property_suite():
    ring = PolyRing()
    rng = random.Random(71)
    ok = True

    # ring axioms on random forms
    for _ in range(10):
        f, g, h = (random_form(2, ring, rng) for _ in range(3))
        k = random_form(1, ring, rng)
        ok &= (f + g) + h == f + (g + h)
        ok &= f * g == g * f
        ok &= (f + g) * k == f * k + g * k

    # minor oracle: subset-table determinant versus cofactor expansion
    def cofactor_det(grid):
        n = len(grid)
        if n == 1:
            return grid[0][0]
        total = None
        for j in range(n):
            sub = [[row[c] for c in range(n) if c != j] for row in grid[1:]]
            term = grid[0][j] * cofactor_det(sub)
            if j % 2:
                term = -term
            total = term if total is None else total + term
        return total

    for size in (2, 3, 4):
        m = FormMatrix(ring, [[random_form(1, ring, rng) for _ in range(size)]
                              for _ in range(size)])
        ok &= determinant(m) == cofactor_det(m.entries)

    # Pfaffian oracle: pf(G)^2 = det(G) up to size 6
    for size in (2, 4, 6):
        upper = {(i, j): random_form(1, ring, rng)
                 for i in range(size) for j in range(i + 1, size)}
        g = SkewFormMatrix.from_upper(ring, size, upper)
        pf = pfaffian(g)
        ok &= pf * pf == determinant(FormMatrix(ring, g.entries))

    # tensor round trip
    m = FormMatrix(ring, [[random_form(1, ring, rng) for _ in range(5)] for _ in range(4)])
    ok &= tensor_views(m).reconstruct() == m

    # Hilbert-function monotonicity under added generators
    base = tuple(random_form(2, ring, rng) for _ in range(2))
    p1 = hilbert_function(IdealPresentation(ring=ring, generators=base), 6)
    p2 = hilbert_function(IdealPresentation(ring=ring, generators=base + (random_form(3, ring, rng),)), 6)
    ok &= all(b <= a for a, b in zip(p1.values, p2.values))

    # determinism of seeded runs
    ok &= (dumps(report_to_doc(verify_construction(3, 2, 1, seed=11)))
           == dumps(report_to_doc(verify_construction(3, 2, 1, seed=11))))
    ok &= random_form(3, ring, random.Random(5)) == random_form(3, ring, random.Random(5))

    announce("7 [property suite]", ok)
    assert ok


def test_conjecture_evidence_note():
    """Observed counts versus the bound on random non-embedded pairs.

    Evidence only: a count above the bound is flagged loudly but fails
    nothing here.
    """
    lines = []
    for (t, r) in [(2, 1), (3, 1)]:
        summary = conjecture_evidence(t, r, trials=100, seed=1)
        lines.append(f"(t={t},r={r}): max observed "
                     f"{summary['max_observed']} <= bound {summary['bound']}, "
                     f"{summary['resolved']}/{summary['trials']} resolved, "
                     f"violations: {len(summary['violations'])}")
        if summary["violations"]:
            print(f"LOUD FLAG: bound exceeded at (t={t}, r={r}): {summary['violations']}")
    announce("note [conjecture evidence, 100 random pairs each]", True, "; ".join(lines))
