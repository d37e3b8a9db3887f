import random
from collections import Counter

import pytest

from acmcurves import cli, construct, formulas, harness, hilbert, jsonio
from acmcurves.construct import (DegenerateSample, build_linear_pair, build_uniform_pair,
                                 embed_pair, gorenstein_generators)
from acmcurves.harness import (SCENARIO_SEEDS, conjecture_evidence, intersect_count,
                               perturbed_pfaffian_span_check, pfaffian_span_check,
                               rational_point_oracle, run_scenario, tensor_views,
                               verify_construction)
from acmcurves.hilbert import IdealPresentation
from acmcurves.matforms import FormMatrix, maximal_minors, minor
from acmcurves.ring import PolyRing, random_form


@pytest.fixture
def ring():
    return PolyRing()


def twisted_cubic(ring):
    x = [ring.variable(i) for i in range(4)]
    return FormMatrix(ring, [[x[0], x[1], x[2]], [x[1], x[2], x[3]]])


class TestIntersectCount:
    def test_embedded_pair_gives_11(self, ring):
        pair = embed_pair(twisted_cubic(ring), 4, random.Random(0))
        count, profile = intersect_count(pair.m_small, pair.m_big)
        assert count == 11
        assert profile.stabilized

    def test_same_matrix_is_a_non_result(self, ring):
        tc = twisted_cubic(ring)
        count, profile = intersect_count(tc, tc)
        assert count is None
        assert not profile.stabilized

    def test_disjoint_random_curves_meet_in_nothing(self, ring):
        rng = random.Random(1)
        a = FormMatrix(ring, [[random_form(1, ring, rng) for _ in range(3)] for _ in range(2)])
        b = FormMatrix(ring, [[random_form(1, ring, rng) for _ in range(4)] for _ in range(3)])
        count, _ = intersect_count(a, b)
        assert count == 0

    def test_false_plateau_gives_true_length(self, ring):
        x = [ring.variable(i) for i in range(4)]
        a = FormMatrix(ring, [[x[0], x[1]]])
        b = FormMatrix(ring, [[x[2] * x[2], x[2] * ring.monomial((0, 0, 0, 4))]])
        count, profile = intersect_count(a, b)
        assert count == 1
        assert profile.certificate == (6, 3)

    def test_ring_mismatch_rejected(self, ring):
        other = PolyRing(101)
        with pytest.raises(ValueError):
            intersect_count(twisted_cubic(ring), twisted_cubic(other))


class TestVerifyConstruction:
    def test_4_2_full_report(self):
        rep = verify_construction(4, 2, 1, seed=5)
        assert rep.passed
        assert rep.observed_degree == 11
        assert rep.observed_h_vector == (1, 3, 3, 3, 1)
        assert rep.generator_degrees_observed == {2: 3, 4: 2}
        assert rep.pfaffian_span_equal is True
        assert set(rep.timings) == {"construct", "hilbert", "generators", "pfaffian"}

    def test_5_2_degree(self):
        rep = verify_construction(5, 2, 1, seed=5)
        assert rep.passed and rep.observed_degree == 26

    def test_uniform_2_1_2(self):
        rep = verify_construction(2, 1, 2, seed=5)
        assert rep.passed and rep.observed_degree == 16

    def test_deterministic_report_json(self):
        a = jsonio.dumps(jsonio.report_to_doc(verify_construction(3, 1, 1, seed=9)))
        b = jsonio.dumps(jsonio.report_to_doc(verify_construction(3, 1, 1, seed=9)))
        assert a == b

    def test_parameter_errors_propagate(self):
        with pytest.raises(ValueError):
            verify_construction(1, 1, 1)

    def test_computation_errors_are_not_reseeded(self, monkeypatch):
        # a fault that surfaces as ValueError must not be masked by a later seed
        calls = []

        def broken(gens, degree):
            calls.append(degree)
            raise ValueError("degree 5 too large for the Hilbert lift")
        monkeypatch.setattr(harness, "artinian_reduction", broken)
        with pytest.raises(ValueError, match="too large for the Hilbert lift"):
            verify_construction(4, 2, 1, seed=5)
        assert len(calls) == 1

    def test_degenerate_sample_is_reseeded(self, monkeypatch):
        real = harness.gorenstein_generators
        seen = []

        def first_degenerate(pair):
            seen.append(pair)
            if len(seen) == 1:
                raise DegenerateSample("zero maximal minor: generator 0")
            return real(pair)
        monkeypatch.setattr(harness, "gorenstein_generators", first_degenerate)
        rep = verify_construction(4, 2, 1, seed=5)
        assert rep.passed and rep.parameters["seed"] == 6

    def test_generators_built_once_per_attempt(self, monkeypatch):
        # the Pfaffian span check reuses the attempt's generators
        real = harness.gorenstein_generators
        calls = []

        def counted(pair):
            calls.append(pair)
            if len(calls) == 1:
                raise DegenerateSample("zero maximal minor: generator 0")
            return real(pair)
        monkeypatch.setattr(harness, "gorenstein_generators", counted)
        rep = verify_construction(4, 2, 1, seed=5)
        assert rep.passed and rep.pfaffian_span_equal is True
        assert rep.parameters["seed"] == 6 and len(calls) == 2

    def test_degenerate_samples_exhaust_the_reseeds(self, monkeypatch):
        def always(pair):
            raise DegenerateSample("zero maximal minor: generator 0")
        monkeypatch.setattr(harness, "gorenstein_generators", always)
        rep = verify_construction(3, 1, 1, seed=2)
        assert not rep.passed
        assert rep.failure == ("genericity failure after 4 attempts: "
                               "zero maximal minor: generator 0 (seed 5)")

    def test_failed_reduction_is_reseeded(self, monkeypatch):
        # asked one degree short, at the socle degree, every section of these
        # generators is still nonzero, so the first reduction finds no x_v
        real = harness.artinian_reduction
        calls = []

        def first_fails(gens, degree):
            calls.append(real(gens, degree - 1 if not calls else degree))
            return calls[-1]
        monkeypatch.setattr(harness, "artinian_reduction", first_fails)
        rep = verify_construction(4, 2, 1, seed=5)
        assert rep.passed and rep.parameters["seed"] == 6
        assert len(calls) == 2 and calls[0] is None

    def test_failed_reductions_exhaust_the_reseeds(self, monkeypatch):
        real = harness.artinian_reduction
        monkeypatch.setattr(harness, "artinian_reduction",
                            lambda gens, degree: real(gens, degree - 1))
        rep = verify_construction(3, 1, 1, seed=2)
        assert not rep.passed and rep.parameters["seed"] == 5
        assert rep.observed_degree is None and rep.pfaffian_span_equal is True
        assert rep.failure == ("genericity failure after 4 attempts: every coordinate "
                               "hyperplane meets the scheme: no x_v with (I + x_v) = R "
                               "in degree 4 (seed 5)")

    def test_perturbed_skew_matrix_fails_without_reseed(self, monkeypatch):
        # a Pfaffian identity that fails is a fault, not a degenerate sample
        real = harness.skew_matrix_G
        calls = []

        def perturbed(pair):
            calls.append(pair)
            return harness._perturbed(real(pair), pair.t - pair.r + 1, random.Random(27))
        monkeypatch.setattr(harness, "skew_matrix_G", perturbed)
        rep = verify_construction(4, 2, 1, seed=5)
        assert not rep.passed and rep.pfaffian_span_equal is False
        assert rep.failure == ("principal Pfaffians of the skew matrix are not the "
                               "generators (seed 5)")
        assert rep.observed_degree is None and rep.observed_h_vector is None
        assert rep.generator_degrees_observed is None
        assert rep.parameters["seed"] == 5 and len(calls) == 1

    def test_curve_has_no_artinian_reduction(self):
        # the maximal minors of M_big alone cut out a curve, which meets every
        # coordinate plane; the intersection ideal of the same pair does not
        pair = build_uniform_pair(4, 2, 1, random.Random(5))
        degree = max(formulas.expected_betti(4, 2, 1).step(3)) - 2
        curve = IdealPresentation(ring=pair.m_big.ring,
                                  generators=tuple(maximal_minors(pair.m_big)))
        assert hilbert.artinian_reduction(curve, degree) is None
        v, section, profile = hilbert.artinian_reduction(gorenstein_generators(pair), degree)
        assert v == 3 and section.ring.nvars == 3
        assert profile.values == (1, 3, 3, 3, 1, 0)

    def test_takes_no_four_variable_lift_or_rank(self, monkeypatch):
        seen = []
        for name in ("_lift", "ideal_piece_dim", "macaulay_matrix"):
            def recording(ideal, *args, _real=getattr(hilbert, name), _name=name):
                seen.append((_name, ideal.ring.nvars))
                return _real(ideal, *args)
            monkeypatch.setattr(hilbert, name, recording)
        for t, r, d in ((4, 2, 1), (3, 1, 2)):
            assert verify_construction(t, r, d, seed=5).passed
        assert {name for name, _ in seen} == {"_lift", "ideal_piece_dim", "macaulay_matrix"}
        assert max(nvars for _, nvars in seen) == 3

    def test_4_1_3_at_large_prime(self):
        rep = verify_construction(4, 1, 3, seed=0, prime=2147483629)
        assert rep.passed and rep.observed_degree == formulas.bound_uniform(3, 4, 1)


@pytest.mark.parametrize("prime", [32003, 2147483629])
@pytest.mark.parametrize("t,r,d", [(3, 1, 1), (4, 2, 1), (6, 3, 1), (2, 1, 3), (3, 1, 2)])
def test_artinian_reduction_agrees_with_the_four_variable_lift(t, r, d, prime):
    # the 4-variable Hilbert lift, certified by Bayer-Stillman, is the oracle
    rep = verify_construction(t, r, d, seed=3, prime=prime)
    pair = build_uniform_pair(t, r, d, random.Random(rep.parameters["seed"]),
                              ring=PolyRing(prime, 4))
    gens = gorenstein_generators(pair)
    profile = hilbert.hilbert_function(gens, max(formulas.expected_betti(t, r, d).step(3)))
    assert rep.passed
    assert rep.observed_degree == profile.stabilized_value
    assert rep.observed_h_vector == hilbert.h_vector_from_profile(profile)
    assert rep.generator_degrees_observed == hilbert.minimal_generator_degrees(gens)


def test_rank_and_lift_section_searches_agree():
    # _regularity_witness takes a Macaulay rank per section, artinian_reduction
    # a lift per section; both decide (I + x_v)_m = R_m, here at m = s + 1
    found = Counter()
    for prime in (3, 5):
        for t, r, d in ((2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 2, 1), (2, 1, 2)):
            m = max(formulas.expected_betti(t, r, d).step(3)) - 2
            for seed in range(8):
                pair = build_uniform_pair(t, r, d, random.Random(seed), ring=PolyRing(prime, 4))
                try:
                    gens = gorenstein_generators(pair)
                except DegenerateSample:
                    continue
                reduction = hilbert.artinian_reduction(gens, m)
                v = None if reduction is None else reduction[0]
                assert hilbert._regularity_witness(gens, m) == v, (prime, t, r, d, seed)
                found[v] += 1
    # the small fields reach every outcome, blocked samples included
    assert set(found) == {3, 2, 1, 0, None}


class TestPfaffianSpan:
    @pytest.mark.parametrize("t,r", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_constructed_pairs_pass(self, t, r):
        pair = build_linear_pair(t, r, random.Random(20 + t + r))
        assert pfaffian_span_check(pair) is True

    def test_uniform_pair_passes(self):
        pair = build_uniform_pair(2, 1, 2, random.Random(21))
        assert pfaffian_span_check(pair) is True

    def test_perturbation_breaks_span(self):
        pair = build_linear_pair(3, 1, random.Random(22))
        rng = random.Random(23)
        assert all(not perturbed_pfaffian_span_check(pair, rng) for _ in range(5))

    def test_check_takes_no_macaulay_rank(self, monkeypatch):
        # the check compares forms: no Macaulay matrix is built, none is ranked
        def refuse(*args):
            raise AssertionError("the Pfaffian check took a Macaulay rank")
        for name in ("macaulay_matrix", "echelon_basis", "rank_modp"):
            monkeypatch.setattr(hilbert, name, refuse)
        pair = build_linear_pair(4, 2, random.Random(25))
        assert pfaffian_span_check(pair) is True
        assert perturbed_pfaffian_span_check(pair, random.Random(26)) is False

    def test_span_equality_persists_past_generator_degrees(self):
        # agreement up to the top generator degree forces ideal equality, so
        # the pieces must also match well beyond it
        from acmcurves.hilbert import graded_piece_spans_equal
        from acmcurves.matforms import principal_pfaffians
        from acmcurves.construct import skew_matrix_G

        pair = build_linear_pair(3, 1, random.Random(24))
        gens = gorenstein_generators(pair)
        pfs = tuple(f for f in principal_pfaffians(skew_matrix_G(pair)) if not f.is_zero)
        pf_ideal = IdealPresentation(ring=gens.ring, generators=pfs)
        assert graded_piece_spans_equal(gens, pf_ideal, 2 * pair.t)


class TestRationalPointOracle:
    def test_twisted_cubic_over_f7(self):
        ring7 = PolyRing(7)
        ideal = IdealPresentation(ring=ring7,
                                  generators=tuple(maximal_minors(twisted_cubic(ring7))))
        count, points = rational_point_oracle(ideal, 7)
        assert count == 8  # the rational normal curve carries q + 1 points
        assert all(all(g.evaluate(pt) == 0 for g in ideal.generators) for pt in points)

    def test_point_counts_are_projective(self):
        ring7 = PolyRing(7)
        x0 = ring7.variable(0)
        ideal = IdealPresentation(ring=ring7, generators=(x0,))
        count, _ = rational_point_oracle(ideal, 7)
        assert count == 7**2 + 7 + 1  # a plane

    def test_wrong_field_rejected(self, ring):
        ideal = IdealPresentation(ring=ring, generators=(ring.variable(0),))
        with pytest.raises(ValueError):
            rational_point_oracle(ideal, 7)

    def test_outside_four_variables_rejected(self):
        ring7 = PolyRing(7, 3)
        ideal = IdealPresentation(ring=ring7, generators=(ring7.variable(0),))
        with pytest.raises(ValueError, match="points of P\\^3 only"):
            rational_point_oracle(ideal, 7)

    def test_modulus_cap(self):
        ring103 = PolyRing(103)
        ideal = IdealPresentation(ring=ring103, generators=(ring103.variable(0),))
        with pytest.raises(ValueError):
            rational_point_oracle(ideal, 103)


class TestTensorViews:
    def test_shapes(self, ring):
        rng = random.Random(30)
        m = FormMatrix(ring, [[random_form(1, ring, rng) for _ in range(5)] for _ in range(4)])
        tv = tensor_views(m)
        assert tv.dims == (4, 4, 5)
        assert tv.tensor.shape == (4, 4, 5)
        assert tv.m_u.shape == (4, 5, 4)
        assert tv.m_w.shape == (4, 4, 5)

    def test_round_trip(self, ring):
        rng = random.Random(31)
        m = FormMatrix(ring, [[random_form(1, ring, rng) for _ in range(4)] for _ in range(3)])
        assert tensor_views(m).reconstruct() == m

    def test_entry_level_reindexing(self, ring):
        rng = random.Random(32)
        m = FormMatrix(ring, [[random_form(1, ring, rng) for _ in range(4)] for _ in range(3)])
        tv = tensor_views(m)
        for u in range(3):
            for v in range(4):
                for w in range(4):
                    e = [0, 0, 0, 0]
                    e[v] = 1
                    coef = m.entry(u, w).terms.get(tuple(e), 0)
                    assert tv.tensor[u, v, w] == coef
                    assert tv.m_u[v, w, u] == coef
                    assert tv.m_w[v, u, w] == coef

    def test_outside_four_variables_rejected(self):
        ring5 = PolyRing(32003, 5)
        m = FormMatrix(ring5, [[ring5.variable(i) for i in range(3)] for _ in range(2)])
        with pytest.raises(ValueError, match="over 4 variables"):
            tensor_views(m)

    def test_nonlinear_entry_rejected(self, ring):
        rng = random.Random(33)
        m = FormMatrix(ring, [[random_form(2, ring, rng) for _ in range(3)] for _ in range(2)])
        with pytest.raises(ValueError):
            tensor_views(m)


class TestScenarios:
    def test_ex_11(self):
        rep = run_scenario("ex-11")
        assert rep.passed and rep.observed_degree == 11

    def test_ex_26(self):
        rep = run_scenario("ex-26")
        assert rep.passed and rep.observed_degree == 26

    def test_ex_2d3_at_2(self):
        rep = run_scenario("ex-2d3", d=2)
        assert rep.passed and rep.observed_degree == 16

    def test_ex_2d3_spelled_form(self):
        # d is given by the d parameter only; "ex-2d3(3)" is no scenario id
        with pytest.raises(ValueError, match="unknown scenario 'ex-2d3\\(3\\)'"):
            run_scenario("ex-2d3(3)")

    def test_ex_mixed_observed_counts(self):
        # Case B matches its pinned value 33. Case A is pinned at 17, but the
        # exact count of the stated construction is 27 (the intersection ideal
        # is a complete intersection of three cubics; independent liaison and
        # Jacobian certificates agree), so the scenario reports the mismatch.
        rep = run_scenario("ex-mixed")
        assert rep.cases["caseB"]["observed"] == 33
        assert rep.cases["caseB"]["expected"] == 33
        assert rep.cases["caseA"]["expected"] == 17
        assert rep.cases["caseA"]["observed"] == 27
        assert rep.passed is False

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            run_scenario("ex-unknown")

    def test_pinned_seed_reproducibility(self):
        a = jsonio.dumps(jsonio.report_to_doc(run_scenario("ex-11")))
        b = jsonio.dumps(jsonio.report_to_doc(run_scenario("ex-11")))
        assert a == b

    def test_fresh_seed_unlocks(self):
        rep = run_scenario("ex-11", seed=SCENARIO_SEEDS["ex-11"] + 1)
        assert rep.observed_degree == 11


# the scenarios measured by structure, with the parameters of their pairs
PAIR_SCENARIOS = [("ex-11", 2), ("ex-26", 2)] + [("ex-2d3", d) for d in (1, 2, 3, 4)]


def _blocked(pair):
    """The failure of a pair whose scheme meets every coordinate hyperplane,
    at one past the socle degree of its expected resolution."""
    top = max(formulas.expected_betti(pair.t, pair.r, pair.d).step(3))
    return ("every coordinate hyperplane meets the scheme: no x_v with "
            f"(I + x_v) = R in degree {top - 2}")


def _recording(monkeypatch, module, name, calls):
    """Patch module.name to append its first argument to calls, then run."""
    real = getattr(module, name)

    def recording(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)
    monkeypatch.setattr(module, name, recording)
    return real


class TestScenarioStructure:
    """ex-11, ex-26 and ex-2d3 take their length from the Pfaffian identity
    and one Artinian reduction, their ideal being that of
    gorenstein_generators; a degenerate sample takes it from the lift on the
    pair's minors, and a blocked one gets none and names why."""

    def test_structural_length_is_the_lift_length(self, monkeypatch):
        pairs, degenerate = [], []
        _recording(monkeypatch, harness, "gorenstein_generators", pairs)
        _recording(monkeypatch, harness, "_count_intersection", degenerate)
        structural = non_structural = 0
        for prime in (3, 5, 32003, 2147483629):
            for scenario, d in PAIR_SCENARIOS:
                for seed in range(2 if prime > 5 else 5):
                    before = len(degenerate)
                    rep = run_scenario(scenario, d=d, seed=seed, prime=prime)
                    fell_back = len(degenerate) > before
                    pair = pairs[-1]
                    # on a blocked sample the lift certifies no length either
                    lifted, _ = intersect_count(pair.m_small, pair.m_big)
                    assert rep.observed_degree == lifted, (scenario, d, seed, prime)
                    blocked = not fell_back and rep.observed_degree is None
                    assert rep.failure == (_blocked(pair) if blocked else None)
                    if fell_back or blocked:
                        non_structural += 1
                    else:
                        structural += 1
                        assert lifted == rep.expected_degree, (scenario, d, seed, prime)
        # over the small fields some schemes meet every coordinate plane
        assert 0 < non_structural < structural

    def test_takes_no_four_variable_lift_or_rank(self, monkeypatch):
        seen = []
        for name in ("_lift", "ideal_piece_dim", "macaulay_matrix"):
            def recording(ideal, *args, _real=getattr(hilbert, name), _name=name):
                seen.append((_name, ideal.ring.nvars))
                return _real(ideal, *args)
            monkeypatch.setattr(hilbert, name, recording)
        for scenario, d in PAIR_SCENARIOS:
            assert run_scenario(scenario, d=d).passed
        assert ("_lift", 3) in seen and max(nvars for _, nvars in seen) == 3

    def test_blocked_sample_reports_no_length_and_takes_no_lift(self, monkeypatch):
        counted, lifted, pairs = [], [], []
        for name in ("intersect_count", "_count_intersection"):
            _recording(monkeypatch, harness, name, counted)
        _recording(monkeypatch, hilbert, "_lift", lifted)
        _recording(monkeypatch, harness, "gorenstein_generators", pairs)
        monkeypatch.setattr(harness, "artinian_reduction", lambda gens, degree: None)
        for scenario, d in PAIR_SCENARIOS:
            rep = run_scenario(scenario, d=d)
            assert rep.observed_degree is None and rep.failure == _blocked(pairs[-1])
            assert not rep.passed
        # the reduction is patched out, so any lift here would be the fallback
        assert counted == [] and lifted == []

    def test_degenerate_sample_falls_back(self, monkeypatch):
        def degenerate(pair):
            raise DegenerateSample("zero maximal minor: generator 0")
        monkeypatch.setattr(harness, "gorenstein_generators", degenerate)
        rep = run_scenario("ex-2d3", d=2)
        assert rep.passed and rep.observed_degree == 16

    def test_degenerate_sample_takes_each_matrix_minors_once(self, monkeypatch):
        # at p = 3 this sample has a zero generator, so it is measured by the lift
        taken, counted = [], []
        for module in (construct, harness):
            _recording(monkeypatch, module, "maximal_minors", taken)
        _recording(monkeypatch, harness, "_count_intersection", counted)
        rep = run_scenario("ex-2d3", d=1, seed=15, prime=3)
        assert len(counted) == 1 and rep.observed_degree is None
        assert [(m.rows, m.cols) for m in taken] == [(1, 2), (2, 3)]

    @pytest.mark.parametrize("run,shapes", [
        (lambda: run_scenario("ex-26"), [(3, 4), (5, 6)]),
        (lambda: cli.main(["construct", "--t", "4", "--r", "2"]), [(2, 3), (4, 5)])],
        ids=["scenario", "construct"])
    def test_each_matrix_of_the_pair_gives_its_maximal_minors_once(self, monkeypatch, capsys,
                                                                   run, shapes):
        # shapes: M_small, then M_big; the generators, and the union matrix
        # that construct prints, read the pair's one set of minors
        taken = []
        for module in (construct, harness):
            _recording(monkeypatch, module, "maximal_minors", taken)
        run()
        assert [(m.rows, m.cols) for m in taken if (m.rows, m.cols) in shapes] == shapes

    def test_perturbed_skew_matrix_fails_the_report(self, monkeypatch):
        real = harness.skew_matrix_G
        monkeypatch.setattr(harness, "skew_matrix_G", lambda pair: harness._perturbed(
            real(pair), pair.t - pair.r + 1, random.Random(27)))
        rep = run_scenario("ex-26")
        assert not rep.passed and rep.observed_degree is None
        assert rep.pfaffian_span_equal is None
        assert rep.failure == "principal Pfaffians of the skew matrix are not the generators"

    def test_ex_mixed_case_b_takes_its_cubic_from_the_minors(self):
        # the minor of columns 2-3 is the first maximal minor
        for seed in range(5):
            m = harness._mixed_degree_matrix(PolyRing(), random.Random(seed))
            assert minor(m, [0, 1], [1, 2]) == maximal_minors(m)[0]


class TestConjectureEvidence:
    def test_random_pairs_stay_under_bound(self):
        summary = conjecture_evidence(2, 1, trials=8, seed=0)
        assert summary["violations"] == []
        assert summary["resolved"] + summary["unresolved"] == 8
        if summary["max_observed"] is not None:
            assert summary["max_observed"] <= summary["bound"]
