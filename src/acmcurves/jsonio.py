"""Stable JSON encodings for forms, matrices, ideals, profiles, and reports.

A form is a list of [coefficient, [e0, ..., en]] pairs, sorted by exponent
vector so that equal objects serialize to identical bytes. Matrix and ideal
documents carry the modulus and variable count in their header.
"""

from __future__ import annotations

import json

from .harness import VerificationReport
from .hilbert import HilbertProfile, IdealPresentation
from .matforms import FormMatrix, SkewFormMatrix
from .ring import Form, PolyRing


def form_to_pairs(f: Form) -> list:
    return [[c, list(m)] for m, c in sorted(f.terms.items())]


def form_from_pairs(ring: PolyRing, degree: int, pairs) -> Form:
    return ring.form(degree, [(tuple(e), int(c)) for c, e in pairs])


def form_to_doc(f: Form) -> dict:
    return {"p": f.ring.p, "nvars": f.ring.nvars, "degree": f.degree,
            "terms": form_to_pairs(f)}


def form_from_doc(doc: dict) -> Form:
    ring = PolyRing(int(doc["p"]), int(doc["nvars"]))
    return form_from_pairs(ring, int(doc["degree"]), doc["terms"])


def matrix_to_doc(m: FormMatrix | SkewFormMatrix) -> dict:
    if isinstance(m, SkewFormMatrix):
        rows = cols = m.size
        degree_matrix = [[e.degree for e in row] for row in m.entries]
    else:
        rows, cols = m.rows, m.cols
        degree_matrix = [list(r) for r in m.degree_matrix]
    return {
        "p": m.ring.p,
        "nvars": m.ring.nvars,
        "rows": rows,
        "cols": cols,
        "degreeMatrix": degree_matrix,
        "entries": [[form_to_pairs(e) for e in row] for row in m.entries],
    }


def matrix_from_doc(doc: dict) -> FormMatrix:
    ring = PolyRing(int(doc["p"]), int(doc["nvars"]))
    deg = doc.get("degreeMatrix")
    entries = []
    for i, row in enumerate(doc["entries"]):
        out_row = []
        for j, pairs in enumerate(row):
            if pairs:
                degree = sum(pairs[0][1])
            elif deg is not None:
                degree = int(deg[i][j])
            else:
                degree = 0
            out_row.append(form_from_pairs(ring, degree, pairs))
        entries.append(out_row)
    dm = [[int(v) for v in row] for row in deg] if deg is not None else None
    return FormMatrix(ring, entries, dm)


def ideal_to_doc(ideal: IdealPresentation) -> dict:
    return {
        "p": ideal.ring.p,
        "nvars": ideal.ring.nvars,
        "degrees": [g.degree for g in ideal.generators],
        "generators": [form_to_pairs(g) for g in ideal.generators],
    }


def ideal_from_doc(doc: dict) -> IdealPresentation:
    if "generators" in doc and isinstance(doc["generators"], dict):
        doc = doc["generators"]
    ring = PolyRing(int(doc["p"]), int(doc["nvars"]))
    gens = []
    degrees = doc.get("degrees")
    for k, pairs in enumerate(doc["generators"]):
        if not pairs:
            raise ValueError("ideal documents may not contain zero generators")
        degree = int(degrees[k]) if degrees is not None else sum(pairs[0][1])
        gens.append(form_from_pairs(ring, degree, pairs))
    return IdealPresentation(ring=ring, generators=tuple(gens))


def profile_to_doc(profile: HilbertProfile) -> dict:
    return {
        "values": list(profile.values),
        "cutoff": profile.cutoff,
        "nvars": profile.nvars,
        "stabilized": profile.stabilized,
        "stabilizedValue": profile.stabilized_value,
        "stabilizedAt": profile.stabilized_at,
        "hVector": list(profile.h_vector) if profile.h_vector is not None else None,
        "degree": profile.degree,
    }


def report_to_doc(report: VerificationReport, include_timings: bool = False) -> dict:
    """Canonical report document.

    Timings are wall-clock diagnostics and stay out of the default document
    so that identical configs serialize to byte-identical JSON.
    """
    doc = {
        "parameters": report.parameters,
        "observedDegree": report.observed_degree,
        "expectedDegree": report.expected_degree,
        "observedHVector": list(report.observed_h_vector) if report.observed_h_vector is not None else None,
        "expectedHVector": list(report.expected_h_vector) if report.expected_h_vector is not None else None,
        "generatorDegreesObserved": _degmap(report.generator_degrees_observed),
        "generatorDegreesExpected": _degmap(report.generator_degrees_expected),
        "pfaffianSpanEqual": report.pfaffian_span_equal,
        "pass": report.passed,
        "failure": report.failure,
    }
    if include_timings:
        doc["timings"] = {k: round(v, 6) for k, v in report.timings.items()}
    if report.cases is not None:
        for name, case in report.cases.items():
            doc[name] = case["observed"]
        doc["cases"] = report.cases
    return doc


def _degmap(m: dict | None):
    return None if m is None else {str(k): v for k, v in sorted(m.items())}


def dumps(doc, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(doc, indent=2, sort_keys=True)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
