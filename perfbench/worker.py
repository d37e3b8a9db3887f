"""One workload run in its own process; `run.py` starts it and reads its result.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 [--setup-only]

Prints one JSON document as its last line of standard output. Its
`setupStamp` is `time.monotonic()` at the moment the first case could start
(interpreter up, acmcurves imported, case list built); `run.py` subtracts the
moment it started the process. With --setup-only the worker stops there.

Untraced (--trace 0), passes over fresh case lists repeat while the next
one should end within --seconds. Traced (--trace 1), each pass runs twice on
the same cases, first untraced and then with the wrappers of `tracing.py`
installed; outputs of the two must be identical, and the difference of
their wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_LISTED = 20  # failures and mismatches listed in the record, beyond the counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        first = workloads.build(args.workload, args.seed, 0, workdir / "0")
        setup_stamp = time.monotonic()
        if args.setup_only:
            doc = {"setupStamp": setup_stamp}
        else:
            run = traced_run if args.trace else plain_run
            doc = run(args.workload, args.seed, args.seconds, workdir, first)
            doc["setupStamp"] = setup_stamp
            doc["peakRssEndMb"] = peak_rss_mb()
            doc["machine"] = machine()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc, sort_keys=True))
    return 0


def _pass_indices(seconds: float):
    """0, 1, 2, ...: at least one pass, and another while it should end within `seconds`."""
    start = time.perf_counter()
    index = 0
    while True:
        yield index
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:
            return


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def plain_run(workload: str, seed: int, seconds: float, workdir: Path, first) -> dict:
    record = Record()
    for index in _pass_indices(seconds):
        cases = first if index == 0 else workloads.build(workload, seed, index, workdir / str(index))
        record.add(index, workloads.run_pass(cases))
        shutil.rmtree(workdir / str(index), ignore_errors=True)
        if index == 0:
            # The peak of one pass. Later passes can raise ru_maxrss by a few MB
            # of allocator growth that depends on how many passes fit in the run.
            first_pass_rss = peak_rss_mb()
    doc = record.doc()
    doc["peakRssMb"] = first_pass_rss
    return doc


def traced_run(workload: str, seed: int, seconds: float, workdir: Path, first) -> dict:
    record = Record()
    plain_walls, traced_walls, layers, ranks, mismatched = [], [], [], [], []
    for index in _pass_indices(seconds):
        cases = first if index == 0 else workloads.build(workload, seed, index, workdir / str(index))
        again = workloads.build(workload, seed, index, workdir / f"{index}t")
        # alternate which side runs first, so that warm-up does not bias the overhead
        if index % 2:
            traced, tracer = _traced_pass(again)
            plain = workloads.run_pass(cases)
        else:
            plain = workloads.run_pass(cases)
            traced, tracer = _traced_pass(again)
        record.add(index, plain)
        record.add(index, traced)
        plain_walls.append(plain.wall)
        traced_walls.append(traced.wall)
        layers.append({**tracing.layer_metrics(tracer), "harness.reseeds": traced.reseeds()})
        ranks.extend(tracer.ranks)
        mismatched.extend(f"pass {index}: {cid}" for cid in workloads.mismatches(plain, traced))
        for tag in ("", "t"):
            shutil.rmtree(workdir / f"{index}{tag}", ignore_errors=True)

    per_layer = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    largest = tracing.largest_rank(ranks)
    if largest is not None:
        rows, cols, rank_s = largest
        matmul_s = tracing.matmul_seconds(rows, cols)
        per_layer["linalg.matmul_ratio"] = rank_s / matmul_s
    per_layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    per_layer["trace.mismatches"] = len(mismatched)
    doc = record.doc()
    if largest is not None:
        doc["largestRank"] = {"rows": rows, "cols": cols, "rankS": rank_s, "matmulS": matmul_s}
    doc["layers"] = per_layer
    doc["mismatches"] = mismatched[:MAX_LISTED]
    return doc


def _traced_pass(cases) -> tuple[workloads.PassResult, tracing.Tracer]:
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        return workloads.run_pass(cases, tracer), tracer
    finally:
        uninstall()


class Record:
    """Pass timings, failure counts and the per-case notes of one run."""

    def __init__(self):
        self.passes = []
        self.attempted = 0
        self.failures = []
        self.seeds = []
        self.known_red = None

    def add(self, index: int, result: workloads.PassResult) -> None:
        self.passes.append({"wall": result.wall, "caseP50": result.case_p50,
                            "caseMax": result.case_max, "reseeds": result.reseeds(),
                            "kinds": result.kind_seconds()})
        for case in result.results:
            self.attempted += 1
            if case.problem is not None:
                self.failures.append({"pass": index, "id": case.id, "problem": case.problem})
            if "usedSeed" in case.note:
                self.seeds.append({"pass": index, "id": case.id, **case.note})
            if "knownRed" in case.note and self.known_red is None:
                self.known_red = case.note["knownRed"]

    def doc(self) -> dict:
        return {
            "passes": self.passes,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:MAX_LISTED],
            "seeds": self.seeds,
            "reseeds": sum(p["reseeds"] for p in self.passes),
            "knownRed": self.known_red,
        }


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blasVersion": blas.get("version"),
        "blasThreads": blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
