"""The benchmark's workloads: case lists drawn from a seed, and output checks.

A workload is a closed loop with one client: the cases of a pass run one
after another in one process, each starting when the previous one ends.
Every case seed is drawn from the workload seed and the pass index, so the
same seed gives the same inputs.

- verify-linear: `verify_construction` on linear pairs at t = 8, where form
  products (construct and Pfaffians) take most of the time.
- verify-uniform: `verify_construction` on uniform pairs of degree 3 and 4,
  where Macaulay assembly and the rank kernel take most of the time.
- cli-roundtrip: small pairs through `acmcurves.cli.main` in-process
  (construct --out-dir, intersect, hilbert --input --codim 3) plus the
  scripted scenarios: JSON writes and reads, maximal minors, and many small
  ranks on both the stop-at-stabilization and the full-profile paths.

Library entry points are looked up on their modules at call time, so the
tracing wrappers apply when they are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from acmcurves import cli, formulas, harness, jsonio

VERIFY_PAIRS = {
    "verify-linear": ((8, 1, 1), (8, 2, 1), (8, 3, 1)),
    "verify-uniform": ((4, 1, 3), (3, 1, 3), (2, 1, 4)),
}
# (t, r, d) pairs of cli-roundtrip: linear t <= 5, uniform d <= 3 at t <= 3,
# sized so that no command kind takes most of a pass.
CLI_PAIRS = ((2, 1, 1), (3, 2, 1), (4, 3, 1), (5, 4, 1), (2, 1, 2), (2, 1, 3), (3, 2, 2))
# Scenario case ids, arguments and the exact intersection lengths they must report.
SCENARIOS = (
    ("ex-11", ("--id", "ex-11"), 11),
    ("ex-26", ("--id", "ex-26"), 26),
    ("ex-2d3(4)", ("--id", "ex-2d3", "--d", "4"), 2 * 4**3),
)
# ex-mixed: the exact lengths are 27 (case A) and 33 (case B). The library
# pins 17 for case A, so its report says pass: false; that known red is
# recorded verbatim and not counted as a failure.
EX_MIXED = {"caseA": 27, "caseB": 33}

WORKLOADS = (*VERIFY_PAIRS, "cli-roundtrip")


@dataclass(frozen=True)
class Outcome:
    """What a check makes of one case's result."""

    output: str                  # canonical text, compared traced against untraced
    problem: str | None = None   # None when the answer is right
    note: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Case:
    id: str
    kind: str
    call: Callable[[], object]            # the timed call into the library
    check: Callable[[object], Outcome]    # untimed judgement of its result


@dataclass(frozen=True)
class CaseResult:
    id: str
    kind: str
    seconds: float
    output: str | None
    problem: str | None
    note: dict


@dataclass(frozen=True)
class PassResult:
    wall: float
    results: tuple[CaseResult, ...]

    @property
    def case_p50(self) -> float:
        return statistics.median(r.seconds for r in self.results)

    @property
    def case_max(self) -> float:
        return max(r.seconds for r in self.results)

    def reseeds(self) -> int:
        """Verify attempts beyond the first: used seed minus requested seed."""
        return sum(r.note["usedSeed"] - r.note["seed"] for r in self.results
                   if "usedSeed" in r.note)

    def kind_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in self.results:
            out[r.kind] = out.get(r.kind, 0.0) + r.seconds
        return out


def build(workload: str, seed: int, pass_index: int, workdir: Path) -> list[Case]:
    """Cases of one pass; `workdir` receives the files the CLI writes."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")

    def draw() -> int:
        return rng.randrange(1, 2**31)

    if workload in VERIFY_PAIRS:
        return [_verify_case(t, r, d, draw()) for t, r, d in VERIFY_PAIRS[workload]]
    if workload != "cli-roundtrip":
        raise ValueError(f"unknown workload {workload!r}")
    cases = []
    for t, r, d in CLI_PAIRS:
        cases.extend(_roundtrip_cases(t, r, d, draw(), workdir / f"pair-{t}-{r}-{d}"))
    for case_id, args, expected in SCENARIOS:
        cases.append(_scenario_case(case_id, args, draw(), expected))
    cases.append(_ex_mixed_case(draw()))
    return cases


def run_case(case: Case) -> CaseResult:
    """Time one case and check its result; an error becomes a failed case."""
    start = time.perf_counter()
    try:
        result = case.call()
    except Exception as exc:  # a raising case is counted, the run goes on
        seconds = time.perf_counter() - start
        return CaseResult(case.id, case.kind, seconds, None,
                          f"raised {type(exc).__name__}: {exc}", {})
    seconds = time.perf_counter() - start
    try:
        outcome = case.check(result)
    except Exception as exc:  # a malformed result is a wrong answer
        outcome = Outcome(repr(result), f"check raised {type(exc).__name__}: {exc}")
    return CaseResult(case.id, case.kind, seconds, outcome.output, outcome.problem,
                      outcome.note)


def run_pass(cases: list[Case], tracer=None) -> PassResult:
    """Run the cases in order; `tracer`, when given, tags spans with case ids."""
    results = []
    start = time.perf_counter()
    for case in cases:
        if tracer is not None:
            tracer.case = case.id
        results.append(run_case(case))
    return PassResult(time.perf_counter() - start, tuple(results))


def mismatches(plain: PassResult, traced: PassResult) -> list[str]:
    """Ids of cases whose output differs between an untraced and a traced pass."""
    if [r.id for r in plain.results] != [r.id for r in traced.results]:
        return ["case lists differ"]
    return [a.id for a, b in zip(plain.results, traced.results) if a.output != b.output]


# ---- verify workloads ----

def _verify_case(t: int, r: int, d: int, seed: int) -> Case:
    def call():
        report = harness.verify_construction(t, r, d, seed=seed)
        return report, jsonio.dumps(jsonio.report_to_doc(report))

    def check(result) -> Outcome:
        report, text = result
        used = report.parameters["seed"]
        note = {"seed": seed, "usedSeed": used}
        bound = formulas.bound_uniform(d, t, r)
        if not report.passed or report.failure is not None:
            return Outcome(text, f"report did not pass: {report.failure}", note)
        if report.observed_degree != bound:
            return Outcome(text, f"observedDegree {report.observed_degree} != bound {bound}", note)
        return Outcome(text, None, note)

    return Case(f"verify({t},{r},{d})", "verify", call, check)


# ---- cli-roundtrip ----

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`acmcurves.cli.main` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_doc(result, want_code: int = 0) -> tuple[str, dict]:
    code, stdout, stderr = result
    if code != want_code:
        raise ValueError(f"exit code {code}, expected {want_code}: {stderr.strip()}")
    return f"{code}\n{stdout}", json.loads(stdout)


def _roundtrip_cases(t: int, r: int, d: int, seed: int, out_dir: Path) -> list[Case]:
    pair = f"({t},{r},{d})"
    bound = formulas.bound_uniform(d, t, r)
    files = ("mSmall", "mBig", "unionMatrix", "skewMatrix", "generators")

    def check_construct(result) -> Outcome:
        text, doc = _cli_doc(result)
        missing = [f for f in files if not (out_dir / f"{f}.json").is_file()]
        ngens = len(doc["generators"]["generators"])
        if missing:
            return Outcome(text, f"files not written: {missing}")
        if ngens != 2 * t - 2 * r + 1:
            return Outcome(text, f"{ngens} generators, expected {2 * t - 2 * r + 1}")
        return Outcome(text)

    def check_intersect(result) -> Outcome:
        text, doc = _cli_doc(result)
        if doc["degree"] != bound:
            return Outcome(text, f"degree {doc['degree']} != bound {bound}")
        return Outcome(text)

    def check_hilbert(result) -> Outcome:
        text, doc = _cli_doc(result)
        total = sum(doc["hVector"])
        if total != bound:
            return Outcome(text, f"h-vector {doc['hVector']} sums to {total}, not {bound}")
        return Outcome(text)

    construct = ["construct", "--t", str(t), "--r", str(r), "--d", str(d),
                 "--seed", str(seed), "--out-dir", str(out_dir)]
    intersect = ["intersect", "--a", str(out_dir / "mSmall.json"),
                 "--b", str(out_dir / "mBig.json")]
    hilbert = ["hilbert", "--input", str(out_dir / "generators.json"), "--codim", "3"]
    return [
        Case(f"construct{pair}", "construct", lambda: run_cli(construct), check_construct),
        Case(f"intersect{pair}", "intersect", lambda: run_cli(intersect), check_intersect),
        Case(f"hilbert{pair}", "hilbert", lambda: run_cli(hilbert), check_hilbert),
    ]


def _scenario_case(case_id: str, args: tuple[str, ...], seed: int, expected: int) -> Case:
    argv = ["scenario", *args, "--seed", str(seed)]

    def check(result) -> Outcome:
        text, doc = _cli_doc(result)
        if not doc["pass"] or doc["observedDegree"] != expected:
            return Outcome(text, f"observedDegree {doc['observedDegree']} != {expected}")
        return Outcome(text)

    return Case(case_id, "scenario", lambda: run_cli(argv), check)


def _ex_mixed_case(seed: int) -> Case:
    argv = ["scenario", "--id", "ex-mixed", "--seed", str(seed)]

    def check(result) -> Outcome:
        text, doc = _cli_doc(result, want_code=0 if json.loads(result[1])["pass"] else 1)
        note = {"knownRed": {"pass": doc["pass"], "cases": doc["cases"]}}
        observed = {name: doc[name] for name in EX_MIXED}
        if observed != EX_MIXED:
            return Outcome(text, f"ex-mixed observed {observed}, exact {EX_MIXED}", note)
        return Outcome(text, None, note)

    return Case("ex-mixed", "scenario", lambda: run_cli(argv), check)
