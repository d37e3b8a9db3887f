"""The acmcurves benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.
Workloads (see `workloads.py`): verify-linear, verify-uniform, cli-roundtrip.
Each run is a closed loop with one client in its own worker process, with
BLAS limited to at most two threads.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       seconds of one pass over the case list, as the mean over the
               passes of the run (measured seconds per pass)
  case_p50_s   mean over passes of the median case seconds in a pass
  case_max_s   mean over passes of the slowest case in a pass
  peak_rss_mb  ru_maxrss of the worker process that ran the workload, read
               at the end of its first pass
  setup_s      median, over five process starts, of the seconds from start to
               the first timed case (interpreter, imports, case list)
  fail_frac    failed cases over cases attempted (also `failed`/`attempted`)
--trace 1 runs each pass untraced and traced on the same cases and reports
the per-layer metrics of `tracing.py`, the tracing overhead and the number
of cases whose output differed between the two.

Standard output: one JSON line with the full record (machine, per-pass
timings, seeds used, failures, every metric), then the result line
{"correct", "attempted", "failed", "metrics"}. The exit code is 2 when the
library sources are missing and 1 when the worker fails; no result line is
printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-linear", "verify-uniform", "cli-roundtrip")
SETUP_SAMPLES = 5
BLAS_THREADS = 2
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "case_p50_s": "s", "case_max_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
PER_LAYER = (
    "ring.mul_calls", "ring.mul_term_pairs", "ring.mul_s", "matforms.minors_s",
    "construct.build_s", "construct.generators_s", "construct.skew_s",
    "hilbert.macaulay_calls", "hilbert.macaulay_s", "hilbert.macaulay_cells",
    "hilbert.macaulay_nnz", "hilbert.degrees_scanned", "hilbert.profile_s",
    "linalg.rank_calls", "linalg.rank_s", "linalg.rank_cells", "linalg.rank_max_s",
    "linalg.matmul_ratio", "harness.reseeds", "harness.self_s", "jsonio.encode_s",
    "jsonio.bytes", "trace.overhead_s", "trace.mismatches",
)
# The traced record also holds matforms.pfaffians_s, construct.union_s,
# hilbert.mingens_s, hilbert.span_s, jsonio.decode_s and cli.self_s. They are
# left out of the result line because each is zero on some workload, whose
# cases never call the function behind it.


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class WorkerError(RuntimeError):
    pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="acmcurves benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "acmcurves" / "__init__.py").is_file():
        print(f"error: no acmcurves sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [_start(args, deadline, setup_only=True)[0]
                                        for _ in range(SETUP_SAMPLES - 1)]
        setup, doc = _start(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    if args.trace:
        measured = doc["layers"]
        units = {name: layer_unit(name) for name in measured}
        shown = {name: units[name] for name in PER_LAYER}
    else:
        # Means over passes, not medians: on a host whose speed switches
        # between a fast and a slow state every few tens of seconds, a median
        # follows whichever state held most of the run, and its run-to-run
        # spread was up to 1.7 times that of the mean.
        passes = doc["passes"]
        measured = {
            "wall_s": statistics.mean(p["wall"] for p in passes),
            "case_p50_s": statistics.mean(p["caseP50"] for p in passes),
            "case_max_s": statistics.mean(p["caseMax"] for p in passes),
            "peak_rss_mb": doc["peakRssMb"],
            "setup_s": statistics.median(setups),
            "fail_frac": doc["failed"] / doc["attempted"],
        }
        units, shown = {**END_TO_END, "fail_frac": "fraction"}, END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": {**doc.pop("machine"), "commit": commit()},
        "setupSamples": setups,
        "allMetrics": {k: {"value": v, "unit": units[k]} for k, v in measured.items()},
        **doc,
    }
    print(json.dumps(record, sort_keys=True))
    mismatched = doc.get("layers", {}).get("trace.mismatches", 0)
    print(json.dumps({
        "correct": doc["failed"] == 0 and mismatched == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": measured[k], "unit": unit} for k, unit in shown.items()},
    }))
    return 0


def _start(args, deadline: float, setup_only: bool = False) -> tuple[float, dict]:
    """Run the worker once; return (seconds from start to first case, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env.pop("ACMCURVES_PRIME", None)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish within the {DEADLINE_S} s limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited with code {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setupStamp"] - started, doc


def commit() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


if __name__ == "__main__":
    sys.exit(main())
