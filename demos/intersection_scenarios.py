"""The scripted intersection scenarios, end to end.

Each scenario builds explicit curves and sums their ideals. The
construction pairs (ex-11, ex-26, ex-2d3) read the length of the
intersection scheme off one Artinian reduction of that Gorenstein ideal in
three variables; ex-mixed reads it off the stabilized Hilbert function.
The mixed-degree scenario keeps its pinned expectations and reports the
observed counts honestly; see the test suite for the full discussion of
case A.
"""

from acmcurves import bound_linear, run_scenario

print("ex-11: the twisted cubic against the 4x5 matrix that embeds it")
rep = run_scenario("ex-11")
print(f"  observed {rep.observed_degree}, expected {rep.expected_degree} "
      f"-> {'PASS' if rep.passed else 'FAIL'}")
print(f"  (= B(4,2) = {bound_linear(4, 2)})\n")

print("ex-26: a random (5, 2) embedded pair")
rep = run_scenario("ex-26")
print(f"  observed {rep.observed_degree}, expected {rep.expected_degree} "
      f"-> {'PASS' if rep.passed else 'FAIL'}\n")

print("ex-2d3: CI(d,d) against the curve of a 2x3 degree-d matrix, count 2d^3")
for d in (1, 2, 3):
    rep = run_scenario("ex-2d3", d=d)
    print(f"  d={d}: observed {rep.observed_degree}, expected {rep.expected_degree} "
          f"-> {'PASS' if rep.passed else 'FAIL'}")

print("\nex-mixed: degree matrix [[3,2,1],[3,2,1]], two CI(3,3) choices")
rep = run_scenario("ex-mixed")
for name, case in rep.cases.items():
    verdict = "match" if case["observed"] == case["expected"] else "MISMATCH"
    print(f"  {name}: observed {case['observed']}, pinned {case['expected']} ({verdict})")
print("  case A note: the first-column complete intersection forces the")
print("  intersection ideal to be a CI of three cubics, so the exact length")
print("  is 27; the pinned 17 appears to be an arithmetic slip upstream")
print("  (liaison genus bookkeeping and a Jacobian reducedness certificate")
print("  both confirm 27).")
