import json
import random

import pytest

from acmcurves import jsonio
from acmcurves.construct import build_linear_pair, gorenstein_generators, skew_matrix_G
from acmcurves.matforms import FormMatrix
from acmcurves.ring import PolyRing, random_form


@pytest.fixture
def ring():
    return PolyRing()


def test_form_round_trip(ring):
    f = random_form(3, ring, random.Random(0))
    pairs = jsonio.form_to_pairs(f)
    assert jsonio.form_from_pairs(ring, 3, json.loads(json.dumps(pairs))) == f


def test_form_pairs_sorted_for_determinism(ring):
    f = random_form(2, ring, random.Random(1))
    pairs = jsonio.form_to_pairs(f)
    assert pairs == sorted(pairs, key=lambda p: p[1])


def test_matrix_round_trip_bit_exact(ring):
    rng = random.Random(2)
    ent = [[random_form(d, ring, rng) for d in (3, 2, 1)] for _ in range(2)]
    m = FormMatrix(ring, ent, [[3, 2, 1], [3, 2, 1]])
    doc = m_doc = jsonio.matrix_to_doc(m)
    back = jsonio.matrix_from_doc(json.loads(jsonio.dumps(doc)))
    assert back == m
    assert jsonio.dumps(jsonio.matrix_to_doc(back)) == jsonio.dumps(m_doc)


def test_matrix_zero_entries_keep_degree_slots():
    pair = build_linear_pair(4, 2, random.Random(3))
    doc = jsonio.matrix_to_doc(pair.m_big)
    back = jsonio.matrix_from_doc(doc)
    assert back == pair.m_big
    assert back.degree_matrix == pair.m_big.degree_matrix


def test_skew_matrix_serializes_as_plain_matrix():
    pair = build_linear_pair(3, 1, random.Random(4))
    doc = jsonio.matrix_to_doc(skew_matrix_G(pair))
    assert doc["rows"] == doc["cols"] == 5
    back = jsonio.matrix_from_doc(doc)
    assert back.entry(1, 0) == -back.entry(0, 1)


def test_ideal_round_trip():
    pair = build_linear_pair(3, 2, random.Random(5))
    gens = gorenstein_generators(pair)
    back = jsonio.ideal_from_doc(jsonio.ideal_to_doc(gens))
    assert back.generators == gens.generators


def test_ideal_doc_rejects_zero_generator(ring):
    doc = {"p": ring.p, "nvars": 4, "generators": [[]]}
    with pytest.raises(ValueError):
        jsonio.ideal_from_doc(doc)


def test_matrix_doc_contradicting_its_degree_slots_refused(ring):
    doc = jsonio.matrix_to_doc(FormMatrix(ring, [[ring.variable(0), ring.variable(1)]]))
    doc["degreeMatrix"] = [[1, 2]]
    with pytest.raises(ValueError, match="malformed matrix document: entry \\(0,1\\) has degree 1"):
        jsonio.matrix_from_doc(doc)


def test_empty_entry_without_degree_matrix_is_a_zero_of_degree_0(ring):
    doc = jsonio.matrix_to_doc(FormMatrix(ring, [[ring.variable(0), ring.variable(1)]]))
    del doc["degreeMatrix"]
    doc["entries"][0][1] = []
    m = jsonio.matrix_from_doc(doc)
    assert m.entry(0, 1).is_zero and m.degree_matrix == ((1, 0),)


@pytest.mark.parametrize("value", [1.5, float("nan"), "x", True, "3"])
def test_non_integral_coefficient_refused(ring, value):
    with pytest.raises(ValueError, match="malformed ideal document"):
        jsonio.ideal_from_doc({"p": ring.p, "nvars": 4, "generators": [[[value, [1, 0, 0, 0]]]]})
    assert jsonio.form_from_pairs(ring, 1, [[2.0, [1.0, 0, 0, 0]]]) == ring.variable(0) * 2


@pytest.mark.parametrize("doc", [
    {"p": "32003", "nvars": 4, "generators": [[[1, [1, 0, 0, 0]]]]},
    {"p": 32003, "nvars": 4, "generators": [[[1, ["1", 0, 0, 0]]]]},
    {"p": 32003, "nvars": 4, "generators": [[[1, [1, "0", 0, 0]]]]},
    {"p": 32003, "nvars": 4, "generators": [[[1, [True, 0, 0, 0]]]]},
    {"p": "32003", "nvars": 4, "generators": [[[True, ["1", 0, 0, 0]]]]},
], ids=["string-modulus", "string-exponent", "string-later-exponent", "bool-exponent",
        "strings-and-bool"])
def test_strings_and_booleans_refused(doc):
    # each once decoded to x0 over F_32003, int() reading "1" and True as 1
    with pytest.raises(ValueError, match="malformed ideal document"):
        jsonio.ideal_from_doc(doc)


@pytest.mark.parametrize("kind,wrap,read", [
    ("matrix", lambda pairs: {"entries": [[pairs]]}, lambda m: m.entry(0, 0)),
    ("ideal", lambda pairs: {"generators": [pairs]}, lambda ideal: ideal.generators[0]),
])
def test_degree_read_off_integral_exponents(ring, kind, wrap, read):
    # with no degree given, an entry's or a generator's degree is the sum of
    # the exponents of its first term, each read as an integer
    decode = getattr(jsonio, f"{kind}_from_doc")
    doc = lambda e0: {"p": ring.p, "nvars": 4, **wrap([[1, [e0, 0, 0, 0]]])}
    assert read(decode(doc(1.0))) == ring.variable(0)
    with pytest.raises(ValueError, match=f"malformed {kind} document: 1.5 is not an integer"):
        decode(doc(1.5))
    # an exponent that sets the degree is read by the same rule, and named
    with pytest.raises(ValueError, match=rf"{kind} document: '1' is not an integer \(exponent\)$"):
        decode(doc("1"))


def test_canonical_dumps_is_stable():
    doc = {"b": 1, "a": [3, 2], "c": {"y": None, "x": True}}
    assert jsonio.dumps(doc) == jsonio.dumps(json.loads(jsonio.dumps(doc)))
