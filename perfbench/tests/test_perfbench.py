"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Case, Outcome  # noqa: E402

from acmcurves import cli, harness, hilbert, linalg, ring  # noqa: E402


def _record(*passes):
    record = worker.Record()
    for index, result in enumerate(passes):
        record.add(index, result)
    return record.doc()


def test_wrong_answers_and_errors_are_counted_and_the_pass_goes_on():
    cases = [
        Case("right", "k", lambda: 1, lambda x: Outcome(str(x))),
        Case("wrong", "k", lambda: 2, lambda x: Outcome(str(x), "2 != 1")),
        Case("raises", "k", lambda: 1 / 0, lambda x: Outcome(str(x))),
        Case("bad-result", "k", lambda: None, lambda x: Outcome(x["key"])),
        Case("after", "k", lambda: 1, lambda x: Outcome(str(x))),
    ]
    doc = _record(workloads.run_pass(cases))
    assert doc["attempted"] == 5
    assert doc["failed"] == 3
    assert [f["id"] for f in doc["failures"]] == ["wrong", "raises", "bad-result"]


def test_wrong_library_answer_fails_its_check(monkeypatch, tmp_path):
    real = cli.intersect_count

    def off_by_one(a, b, cutoff=None):
        count, profile = real(a, b, cutoff)
        return count + 1, profile

    monkeypatch.setattr(cli, "intersect_count", off_by_one)
    cases = workloads._roundtrip_cases(3, 2, 1, 7, tmp_path / "pair")
    results = workloads.run_pass(cases).results
    assert [r.problem is None for r in results] == [True, False, True]
    assert "degree 4 != bound 3" in results[1].problem


def test_verify_check_compares_against_the_bound(monkeypatch):
    case = workloads._verify_case(2, 1, 1, 5)
    assert workloads.run_case(case).problem is None
    monkeypatch.setattr(workloads.formulas, "bound_uniform", lambda d, t, r: 99)
    result = workloads.run_case(case)
    assert "!= bound 99" in result.problem
    assert result.note["seed"] == 5


def test_ex_mixed_known_red_is_recorded_not_failed():
    check = workloads._ex_mixed_case(3).check
    doc = {"caseA": 27, "caseB": 33, "pass": False,
           "cases": {"caseA": {"expected": 17, "observed": 27},
                     "caseB": {"expected": 33, "observed": 33}}}
    outcome = check((1, json.dumps(doc), ""))
    assert outcome.problem is None
    assert outcome.note["knownRed"]["cases"]["caseA"] == {"expected": 17, "observed": 27}
    doc["caseA"] = 17
    assert "ex-mixed observed" in check((1, json.dumps(doc), "")).problem


def test_mismatch_between_untraced_and_traced_output_is_reported():
    def cases(b_value):
        return [Case("a", "k", lambda: 1, lambda x: Outcome(str(x))),
                Case("b", "k", lambda: b_value, lambda x: Outcome(str(x)))]

    plain = workloads.run_pass(cases(2))
    assert workloads.mismatches(plain, workloads.run_pass(cases(2))) == []
    assert workloads.mismatches(plain, workloads.run_pass(cases(3))) == ["b"]


def test_traced_run_counts_a_case_whose_output_changes_under_tracing(monkeypatch, tmp_path):
    def rank_is_wrapped():
        return hasattr(linalg.rank_modp, "__wrapped__")

    monkeypatch.setattr(workloads, "build", lambda *args: [
        Case("tracing-visible", "k", rank_is_wrapped, lambda x: Outcome(str(x)))])
    doc = worker.traced_run("verify-linear", 0, 0.0, tmp_path, workloads.build())
    assert doc["layers"]["trace.mismatches"] == 1
    assert doc["mismatches"] == ["pass 0: tracing-visible"]
    assert doc["failed"] == 0


def test_install_wraps_the_names_callers_look_up_and_uninstall_restores():
    names = [(hilbert, "rank_modp"), (hilbert, "echelon_basis"), (linalg, "rank_modp"),
             (harness, "hilbert_function"), (harness, "build_uniform_pair"),
             (cli, "verify_construction"), (ring.Form, "__mul__"), (ring.Form, "__rmul__")]
    originals = [getattr(owner, name) for owner, name in names]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        wrapped = [getattr(owner, name) for owner, name in names]
        report = harness.verify_construction(2, 1, 1, seed=4)
    finally:
        uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert hilbert.rank_modp is linalg.rank_modp
    assert all(getattr(owner, name) is o for (owner, name), o in zip(names, originals))
    assert report.passed
    metrics = tracing.layer_metrics(tracer)
    for key in ("ring.mul_calls", "linalg.rank_calls", "hilbert.macaulay_calls",
                "hilbert.profile_s", "hilbert.mingens_s", "matforms.pfaffians_s",
                "harness.self_s"):
        assert metrics[key] > 0, key
    assert metrics["linalg.rank_calls"] == len(tracer.ranks)


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1, None), ("b", 1.0, 4.0, 0, None),
             ("c", 5.0, 6.0, 0, None), ("d", 2.0, 3.0, 1, None)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_nested_calls_of_one_group_count_once():
    tracer = tracing.Tracer()
    tracer.spans = [("harness.verify_construction", 0.0, 10.0, -1, "c"),
                    ("construct.build_uniform_pair", 1.0, 4.0, 0, "c"),
                    ("construct.embed_pair", 2.0, 3.5, 1, "c"),
                    ("construct.embed_pair", 5.0, 6.0, 0, "c")]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["construct.build_s"] == 4.0
    assert metrics["harness.self_s"] == 6.0


def test_case_lists_follow_the_seed(tmp_path):
    def seeds(seed, pass_index):
        cases = workloads.build("cli-roundtrip", seed, pass_index, tmp_path)
        return [c.call.__closure__[0].cell_contents for c in cases if c.kind == "construct"]

    assert seeds(1, 0) == seeds(1, 0)
    assert seeds(1, 0) != seeds(2, 0)
    assert seeds(1, 0) != seeds(1, 1)


def test_missing_sources_exit_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-roundtrip",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
