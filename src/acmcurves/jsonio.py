"""Stable JSON encodings for forms, matrices, ideals, profiles, and reports.

A form is a list of [coefficient, [e0, ..., en]] pairs, sorted by exponent
vector so that equal objects serialize to identical bytes. Matrix and ideal
documents carry the modulus and variable count in their header. The
decoders turn a document of the wrong shape (a list for an object, a degree
list or a rows/cols header that does not match the body, a term without its
exponent vector, a number with a fractional part) into a ValueError.
"""

from __future__ import annotations

import json

from .harness import VerificationReport
from .hilbert import HilbertProfile, IdealPresentation
from .matforms import FormMatrix
from .ring import Form, PolyRing, _integer


def _int(value, kind: str) -> int:
    """ring._integer(value); a value it refuses is a malformed document of
    that kind."""
    try:
        return _integer(value)
    except ValueError as exc:
        raise ValueError(f"malformed {kind} document: {exc}") from exc


def form_to_pairs(f: Form) -> list:
    return [[c, list(m)] for m, c in sorted(f.terms.items())]


def form_from_pairs(ring: PolyRing, degree: int, pairs, kind: str = "form") -> Form:
    return ring.form(degree, [(tuple(_int(v, kind) for v in e), _int(c, kind)) for c, e in pairs])


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
    try:
        ring = PolyRing(_int(doc["p"], "matrix"), _int(doc["nvars"], "matrix"))
        deg = doc.get("degreeMatrix")
        entries = []
        for i, row in enumerate(doc["entries"]):
            out_row = []
            for j, pairs in enumerate(row):
                if pairs:
                    degree = sum(_int(v, "matrix") for v in pairs[0][1])
                elif deg is not None:
                    degree = _int(deg[i][j], "matrix")
                else:
                    degree = 0
                out_row.append(form_from_pairs(ring, degree, pairs, "matrix"))
            entries.append(out_row)
        dm = [[_int(v, "matrix") for v in row] for row in deg] if deg is not None else None
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc
    try:
        m = FormMatrix(ring, entries, dm)
    except ValueError as exc:  # ragged rows, a degree slot or shape that does not fit
        raise ValueError(f"malformed matrix document: {exc}") from exc
    header = doc.get("rows", m.rows), doc.get("cols", m.cols)
    if header != (m.rows, m.cols):
        raise ValueError(f"malformed matrix document: the header says {header[0]} x {header[1]}, "
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
    try:
        ring = PolyRing(_int(doc["p"], "ideal"), _int(doc["nvars"], "ideal"))
        gens = []
        degrees = doc.get("degrees")
        if degrees is not None and len(degrees) != len(doc["generators"]):
            raise ValueError(f"malformed ideal document: {len(degrees)} degrees for "
                             f"{len(doc['generators'])} generators")
        for k, pairs in enumerate(doc["generators"]):
            if not pairs:
                raise ValueError("ideal documents may not contain zero generators")
            degree = (_int(degrees[k], "ideal") if degrees is not None
                      else sum(_int(v, "ideal") for v in pairs[0][1]))
            gens.append(form_from_pairs(ring, degree, pairs, "ideal"))
        return IdealPresentation(ring=ring, generators=tuple(gens))
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed ideal document: {exc}") from exc


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
