"""Stable JSON encodings for forms, matrices, ideals, profiles, and reports.

A form is a list of [coefficient, [e0, ..., en]] pairs, sorted by exponent
vector so that equal objects serialize to identical bytes. Matrix and ideal
documents carry the modulus and variable count in their header. Every number
is read by ring._integer, naming its field: in PolyRing, PolyRing.form and
FormMatrix, and here for a header's rows/cols and an entry's first-term degree.
Any refusal while decoding reads `malformed <kind> document: <reason>`.
"""

from __future__ import annotations

import contextlib
import json

from .harness import VerificationReport
from .hilbert import HilbertProfile, IdealPresentation
from .matforms import FormMatrix
from .ring import Form, PolyRing, _integer


@contextlib.contextmanager
def _malformed(kind: str):
    """Turn a refusal inside a decoder's body into a malformed document of that kind."""
    try:
        yield
    except (KeyError, TypeError, IndexError, AttributeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} document: {exc}") from exc


def form_to_pairs(f: Form) -> list:
    return [[c, list(m)] for m, c in sorted(f.terms.items())]


def form_from_pairs(ring: PolyRing, degree: int, pairs) -> Form:
    return ring.form(degree, [(e, c) for c, e in pairs])


def _first_term_degree(pairs) -> int:
    """The degree of a document entry that gives none: its first term's."""
    return sum(_integer(e, "exponent") for e in pairs[0][1])


def matrix_to_doc(m: FormMatrix) -> dict:
    return {
        "p": m.ring.p,
        "nvars": m.ring.nvars,
        "rows": m.rows,
        "cols": m.cols,
        "degreeMatrix": [list(r) for r in m.degree_matrix],
        "entries": [[form_to_pairs(e) for e in row] for row in m.entries],
    }


def matrix_from_doc(doc: dict) -> FormMatrix:
    """An entry's degree is that of its first term; an empty entry takes its
    slot's, 0 without a degree matrix."""
    with _malformed("matrix"):
        ring = PolyRing(doc["p"], doc["nvars"])
        deg = doc.get("degreeMatrix")
        entries = []
        for i, row in enumerate(doc["entries"]):
            entries.append([])
            for j, pairs in enumerate(row):
                degree = _first_term_degree(pairs) if pairs else 0 if deg is None else deg[i][j]
                entries[-1].append(form_from_pairs(ring, degree, pairs))
        m = FormMatrix(ring, entries, deg)
        header = _integer(doc.get("rows", m.rows), "rows"), _integer(doc.get("cols", m.cols), "cols")
        if header != (m.rows, m.cols):
            raise ValueError(f"the header says {header[0]} x {header[1]}, "
                             f"the entries are {m.rows} x {m.cols}")
        return m


def ideal_to_doc(ideal: IdealPresentation) -> dict:
    return {
        "p": ideal.ring.p,
        "nvars": ideal.ring.nvars,
        "degrees": [g.degree for g in ideal.generators],
        "generators": [form_to_pairs(g) for g in ideal.generators],
    }


def ideal_from_doc(doc: dict) -> IdealPresentation:
    with _malformed("ideal"):
        ring = PolyRing(doc["p"], doc["nvars"])
        gens = doc["generators"]
        degrees = doc.get("degrees")
        if degrees is not None and len(degrees) != len(gens):
            raise ValueError(f"{len(degrees)} degrees for {len(gens)} generators")
        if not all(gens):
            raise ValueError("ideal documents may not contain zero generators")
        return IdealPresentation(ring=ring, generators=tuple(
            form_from_pairs(ring, _first_term_degree(pairs) if degrees is None else degrees[k], pairs)
            for k, pairs in enumerate(gens)))


def profile_to_doc(profile: HilbertProfile) -> dict:
    cert = profile.certificate
    return {
        "values": list(profile.values),
        "cutoff": profile.cutoff,
        "nvars": profile.nvars,
        "stabilized": profile.stabilized,
        "stabilizedValue": profile.stabilized_value,
        "stabilizedAt": profile.stabilized_at,
        "certificate": None if cert is None else {"regularity": cert[0], "linearForm": f"x{cert[1]}"},
    }


def report_to_doc(report: VerificationReport) -> dict:
    """Canonical report document.

    Timings are wall-clock diagnostics and stay out of it, so that identical
    configs serialize to byte-identical JSON.
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
