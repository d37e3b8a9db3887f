"""Spans around the public functions of every acmcurves module.

The benchmark traces the library from the outside: `install` replaces each
public function of each module with a wrapper at every name where a module
of the package holds it (so `hilbert.rank_modp`, bound by
`from .linalg import rank_modp`, is wrapped as well as `linalg.rank_modp`),
plus `Form.__mul__` and `Form.__rmul__`. `uninstall` puts the originals back.

Each call records a span (name, start, end, parent, case id) in memory.
`layer_metrics` folds the spans and the counters of one pass into the
per-layer numbers the benchmark reports. A layer's self time is the duration
of its spans minus the time their child spans cover.

The end-to-end metric and workload each group should move:
- ring.mul_*: wall_s on verify-linear; no change expected on verify-uniform.
- matforms.*, construct.*: wall_s on verify-linear, case_p50_s on cli-roundtrip.
- hilbert.macaulay_*: wall_s and peak_rss_mb on verify-uniform.
- hilbert.degrees_scanned, profile_s, mingens_s, span_s: case_p50_s on
  cli-roundtrip, wall_s on both verify workloads.
- linalg.*: wall_s on verify-uniform; case_p50_s on cli-roundtrip through
  the call count.
- harness.reseeds, harness.self_s: wall_s and failures on the verify workloads.
- jsonio.*, cli.self_s: case_p50_s on cli-roundtrip, nothing elsewhere.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import Counter

import numpy as np

MODULES = ("ring", "linalg", "matforms", "construct", "hilbert", "formulas",
           "harness", "jsonio", "cli")

# Inclusive-time metrics: the summed duration of the outermost spans among
# the named functions, so a call nested inside another of its group (such as
# embed_pair inside build_uniform_pair) is not counted twice.
INCLUSIVE = {
    "ring.mul_s": ("ring.Form.__mul__", "ring.Form.__rmul__"),
    "matforms.minors_s": ("matforms.maximal_minors", "matforms.minor"),
    "matforms.pfaffians_s": ("matforms.principal_pfaffians", "matforms.pfaffian"),
    "construct.build_s": ("construct.build_uniform_pair", "construct.build_linear_pair",
                          "construct.embed_pair"),
    "construct.generators_s": ("construct.gorenstein_generators",),
    "construct.skew_s": ("construct.skew_matrix_G",),
    "construct.union_s": ("construct.union_matrix",),
    "hilbert.macaulay_s": ("hilbert.macaulay_matrix",),
    "hilbert.profile_s": ("hilbert.hilbert_function",),
    "hilbert.mingens_s": ("hilbert.minimal_generator_degrees",),
    "hilbert.span_s": ("hilbert.graded_piece_spans_equal",),
    "linalg.rank_s": ("linalg.rank_modp", "linalg.echelon_basis"),
    "jsonio.encode_s": ("jsonio.form_to_pairs", "jsonio.form_to_doc", "jsonio.matrix_to_doc",
                        "jsonio.ideal_to_doc", "jsonio.profile_to_doc", "jsonio.report_to_doc",
                        "jsonio.dumps"),
    "jsonio.decode_s": ("jsonio.form_from_pairs", "jsonio.form_from_doc",
                        "jsonio.matrix_from_doc", "jsonio.ideal_from_doc"),
}

# Self-time metrics: the time spent in a module's own code, outside every
# wrapped call it makes.
SELF = {"harness.self_s": "harness", "cli.self_s": "cli"}

COUNTS = ("ring.mul_calls", "ring.mul_term_pairs", "hilbert.macaulay_calls",
          "hilbert.macaulay_cells", "hilbert.macaulay_nnz", "hilbert.degrees_scanned",
          "jsonio.bytes")


def _count_mul(tracer, args, out):
    a, b = args
    if hasattr(b, "terms"):
        tracer.counts["ring.mul_calls"] += 1
        tracer.counts["ring.mul_term_pairs"] += len(a.terms) * len(b.terms)


def _count_macaulay(tracer, args, out):
    tracer.counts["hilbert.macaulay_calls"] += 1
    tracer.counts["hilbert.macaulay_cells"] += out.size
    tracer.counts["hilbert.macaulay_nnz"] += int(np.count_nonzero(out))


def _count_profile(tracer, args, out):
    tracer.counts["hilbert.degrees_scanned"] += len(out.values)


def _count_dumps(tracer, args, out):
    tracer.counts["jsonio.bytes"] += len(out)


# Counters read from a call's arguments and result, after the span closes.
HOOKS = {
    "ring.Form.__mul__": _count_mul,
    "ring.Form.__rmul__": _count_mul,
    "hilbert.macaulay_matrix": _count_macaulay,
    "hilbert.hilbert_function": _count_profile,
    "jsonio.dumps": _count_dumps,
}

RANK_FUNCTIONS = ("linalg.rank_modp", "linalg.echelon_basis")


class Tracer:
    """In-memory span and counter collector for one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.case: str | None = None
        self.counts: Counter = Counter()
        # (rows, cols, seconds) of every rank call, for the matmul comparison
        self.ranks: list[tuple[int, int, float]] = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        is_rank = name in RANK_FUNCTIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.case)
            if hook is not None:
                hook(self, args, out)
            if is_rank:
                rows, cols = np.shape(args[0])
                self.ranks.append((rows, cols, end - start))
            return out

        return traced


def install(tracer: Tracer):
    """Wrap every public function of the package; return the undo callable."""
    import acmcurves

    modules = [importlib.import_module(f"acmcurves.{m}") for m in MODULES]
    wrappers = {}  # id of an original function -> (original, wrapper)
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, fn in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                wrappers[id(fn)] = fn, tracer.wrap(f"{short}.{name}", fn)
    patches = []
    for namespace in [acmcurves, *modules]:
        for attr, value in list(vars(namespace).items()):
            if id(value) in wrappers:
                fn, wrapped = wrappers[id(value)]
                setattr(namespace, attr, wrapped)
                patches.append((namespace, attr, fn))
    form = importlib.import_module("acmcurves.ring").Form
    for attr in ("__mul__", "__rmul__"):
        fn = form.__dict__[attr]
        setattr(form, attr, tracer.wrap(f"ring.Form.{attr}", fn))
        patches.append((form, attr, fn))

    def uninstall() -> None:
        for namespace, attr, fn in reversed(patches):
            setattr(namespace, attr, fn)

    return uninstall


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of the spans and counters collected so far."""
    spans = tracer.spans
    group_of = {name: metric for metric, names in INCLUSIVE.items() for name in names}
    out = {metric: 0.0 for metric in INCLUSIVE}
    for name, start, end, parent, _ in spans:
        metric = group_of.get(name)
        if metric is None:
            continue
        while parent >= 0 and group_of.get(spans[parent][0]) != metric:
            parent = spans[parent][3]
        if parent < 0:
            out[metric] += end - start
    selfs = self_times(spans)
    for metric, layer in SELF.items():
        out[metric] = sum(s for (name, *_), s in zip(spans, selfs)
                          if name.split(".", 1)[0] == layer)
    for key in COUNTS:
        out[key] = tracer.counts[key]
    out["linalg.rank_calls"] = len(tracer.ranks)
    out["linalg.rank_cells"] = sum(rows * cols for rows, cols, _ in tracer.ranks)
    out["linalg.rank_max_s"] = max((s for *_, s in tracer.ranks), default=0.0)
    return out


def largest_rank(ranks) -> tuple[int, int, float] | None:
    """Shape of the largest rank call and the median seconds of calls of that shape."""
    if not ranks:
        return None
    rows, cols, _ = max(ranks, key=lambda r: (r[0] * r[1], r[0]))
    seconds = statistics.median(s for m, n, s in ranks if (m, n) == (rows, cols))
    return rows, cols, seconds


def matmul_seconds(rows: int, cols: int) -> float:
    """Median seconds of three float64 (rows x cols) @ (cols x cols) products."""
    rng = np.random.default_rng(0)
    a = rng.random((rows, cols))
    b = rng.random((cols, cols))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return statistics.median(times)
