import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import acmcurves
from acmcurves import cli
from acmcurves.cli import build_parser, main
from acmcurves.ring import PolyRing


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--t", "4", "--r", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == 11
        assert doc["hVector"] == [1, 3, 3, 3, 1]

    def test_uniform_degree(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--t", "2", "--r", "1", "--d", "3")
        assert json.loads(out)["bound"] == 54

    def test_byte_identical_output(self, capsys):
        _, out1, _ = run_cli(capsys, "bound", "--t", "5", "--r", "2")
        _, out2, _ = run_cli(capsys, "bound", "--t", "5", "--r", "2")
        assert out1 == out2

    def test_range_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--t", "4", "--r", "9")
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize("flags,message", [
    (("--t", "3", "--r", "0"), "error: r = 0 has no intersection construction\n"),
    (("--t", "3", "--r", "1", "--d", "0"), "error: need d >= 1, got d=0\n"),
])
def test_construct_and_verify_refuse_with_one_message(capsys, flags, message):
    for command in ("construct", "verify"):
        assert run_cli(capsys, command, *flags) == (2, "", message)


class TestConstructRoundTrip:
    def test_construct_then_intersect_and_hilbert(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "construct", "--t", "4", "--r", "2",
                               "--seed", "3", "--out-dir", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["mBig"]["rows"] == 4 and doc["mBig"]["cols"] == 5
        assert len(doc["generators"]["generators"]) == 5

        code, out, _ = run_cli(capsys, "intersect",
                               "--a", str(tmp_path / "mSmall.json"),
                               "--b", str(tmp_path / "mBig.json"))
        assert code == 0
        assert json.loads(out)["degree"] == 11

        code, out, _ = run_cli(capsys, "hilbert",
                               "--input", str(tmp_path / "generators.json"),
                               "--codim", "3")
        assert code == 0
        hdoc = json.loads(out)
        assert hdoc["stabilizedValue"] == 11
        assert hdoc["hVector"] == [1, 3, 3, 3, 1]

    def test_construct_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "construct", "--t", "3", "--r", "1", "--seed", "5")
        _, out2, _ = run_cli(capsys, "construct", "--t", "3", "--r", "1", "--seed", "5")
        assert out1 == out2

    def test_skew_matrix_emitted(self, capsys):
        _, out, _ = run_cli(capsys, "construct", "--t", "3", "--r", "1", "--seed", "5")
        doc = json.loads(out)
        assert doc["skewMatrix"]["rows"] == 5
        assert doc["unionMatrix"]["rows"] == 1


class TestIntersect:
    def test_shared_component_exit_3(self, capsys, tmp_path):
        run_cli(capsys, "construct", "--t", "3", "--r", "1",
                "--seed", "1", "--out-dir", str(tmp_path))
        code, out, err = run_cli(capsys, "intersect",
                                 "--a", str(tmp_path / "mBig.json"),
                                 "--b", str(tmp_path / "mBig.json"))
        assert code == 3
        assert json.loads(out)["degree"] is None
        assert "stabilize" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "intersect",
                             "--a", str(tmp_path / "nope.json"),
                             "--b", str(tmp_path / "nope.json"))
        assert code == 2

    @staticmethod
    def _write_pair(tmp_path, exponent):
        small = {"p": 32003, "nvars": 4, "rows": 1, "cols": 2, "degreeMatrix": [[1, 1]],
                 "entries": [[[[1, [1, 0, 0, 0]]], [[1, [0, 1, 0, 0]]]]]}
        big = {"p": 32003, "nvars": 4, "rows": 1, "cols": 1, "degreeMatrix": [[exponent]],
               "entries": [[[[1, [exponent, 0, 0, 0]]]]]}
        (tmp_path / "m.json").write_text(json.dumps(small))
        (tmp_path / "mBig.json").write_text(json.dumps(big))
        return "--a", str(tmp_path / "m.json"), "--b", str(tmp_path / "mBig.json")

    @pytest.mark.parametrize("degree", [3000, 40000])
    def test_huge_degree_exit_2_before_building_the_basis(self, capsys, tmp_path, degree):
        # one term x0^degree: the degree-3000 basis has 4.5e9 monomials
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "intersect", *self._write_pair(tmp_path, degree))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"degree {degree} too large" in err

    def test_out_of_memory_exit_2(self, capsys, tmp_path, monkeypatch):
        def refuse(self, degree, terms=()):
            raise MemoryError("cannot allocate the form")
        monkeypatch.setattr(PolyRing, "form", refuse)
        code, _, err = run_cli(capsys, "intersect", *self._write_pair(tmp_path, 2))
        assert code == 2
        assert "cannot allocate" in err

    def test_blank_error_prints_its_type(self, capsys, tmp_path, monkeypatch):
        def refuse(self, degree, terms=()):
            raise MemoryError()
        monkeypatch.setattr(PolyRing, "form", refuse)
        code, _, err = run_cli(capsys, "intersect", *self._write_pair(tmp_path, 2))
        assert code == 2
        assert err == "error: MemoryError\n"

    @pytest.mark.parametrize("cutoff", ["100001", "1000000000"])
    def test_cutoff_above_the_degree_cap_exit_2(self, capsys, tmp_path, cutoff):
        line = self._write_pair(tmp_path, 2)[1]  # the line x0 = x1 = 0, cut with itself
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "intersect", "--a", line, "--b", line,
                                 "--cutoff", cutoff)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (f"error: cutoff {cutoff} too large: no form has degree above "
                       f"MAX_FORM_DIM = 100000\n")

    def test_short_degree_matrix_exit_2(self, capsys, tmp_path):
        args = self._write_pair(tmp_path, 2)
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["degreeMatrix"] = []
        (tmp_path / "m.json").write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "intersect", *args)
        assert code == 2
        assert "error: malformed matrix document" in err

    def test_non_graded_matrix_exit_2(self, capsys, tmp_path):
        x = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        rows = [[x[0], [0, 2, 0, 0], x[2]], [x[1], x[2], x[3]]]  # x1^2 in a linear slot
        doc = {"p": 32003, "nvars": 4, "rows": 2, "cols": 3,
               "entries": [[[[1, v]] for v in row] for row in rows]}
        (tmp_path / "ng.json").write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "intersect", "--a", str(tmp_path / "ng.json"),
                                 "--b", str(tmp_path / "ng.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: degree mismatch")

    def test_self_intersection_not_certified(self, capsys, tmp_path):
        x = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        rows = [[x[0], x[1], x[2]], [x[1], x[2], x[3]]]  # the twisted cubic's matrix
        doc = {"p": 32003, "nvars": 4, "rows": 2, "cols": 3,
               "entries": [[[[1, v]] for v in row] for row in rows]}
        (tmp_path / "tc.json").write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "intersect", "--a", str(tmp_path / "tc.json"),
                                 "--b", str(tmp_path / "tc.json"))
        assert code == 3
        assert json.loads(out)["profile"]["certificate"] is None
        assert "not certified by degree 8: shared component or cutoff too small" in err
        # recorded before the profile derived its stabilization fields: the
        # uncertified profile prints null stabilizedAt and stabilizedValue
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "cd69348d5c45ec7e40db58d141568c42c747667c8b715f5d404b2ea29e3eed80")

    def test_fractional_coefficient_exit_2(self, capsys, tmp_path):
        # truncated by int(), 1.5*x0 would be read as x0: a wrong answer, not exit 2
        args = self._write_pair(tmp_path, 2)
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["entries"][0][0][0][0] = 1.5
        (tmp_path / "m.json").write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "intersect", *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed matrix document: 1.5 is not an integer")

    @pytest.mark.parametrize("header", [{"rows": 5, "cols": 1}, {"rows": 3}, {"cols": 2},
                                        {"degreeMatrix": [["z", 1, 1], [1, 1, 1]]}])
    def test_header_contradicting_the_entries_exit_2(self, capsys, tmp_path, header):
        # mSmall of construct --t 3 --r 1 is 2 x 3; the pair meets in length 8
        run_cli(capsys, "construct", "--t", "3", "--r", "1", "--out-dir", str(tmp_path))
        small = tmp_path / "mSmall.json"
        small.write_text(json.dumps({**json.loads(small.read_text()), **header}))
        code, out, err = run_cli(capsys, "intersect", "--a", str(small),
                                 "--b", str(tmp_path / "mBig.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed matrix document")


    @pytest.mark.parametrize("rows", ["1", True, 1.5])
    def test_header_not_an_integer_exit_2(self, capsys, tmp_path, rows):
        # m.json is 1 x 2: "rows": true once read as 1, and "rows": "1" exited
        # with "the header says 1 x 2, the entries are 1 x 2"
        args = self._write_pair(tmp_path, 2)
        doc = json.loads((tmp_path / "m.json").read_text())
        (tmp_path / "m.json").write_text(json.dumps({**doc, "rows": rows}))
        code, out, err = run_cli(capsys, "intersect", *args)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: malformed matrix document: {rows!r} is not an integer")


class TestHilbertInput:
    @staticmethod
    def _hilbert(capsys, tmp_path, generators, *extra, nvars=4):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"p": 32003, "nvars": nvars, "generators": generators}))
        code, out, err = run_cli(capsys, "hilbert", "--input", str(path), *extra)
        return code, json.loads(out) if out else None, err

    @staticmethod
    def _twisted_cubic():
        x = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        plus = lambda a, b: [a[k] + b[k] for k in range(4)]
        return [[[1, plus(x[i], x[j + 1])], [32002, plus(x[j], x[i + 1])]]
                for i, j in [(0, 1), (0, 2), (1, 2)]]

    @pytest.mark.parametrize("doc", [
        pytest.param([], id="top-level-list"),
        pytest.param({"p": 32003, "nvars": 4, "degrees": [1],
                      "generators": [[[1, [1, 0, 0, 0]]], [[1, [0, 1, 0, 0]]]]},
                     id="short-degrees"),
        pytest.param({"p": 32003, "nvars": 4, "generators": [[[1]]]}, id="term-without-exponents"),
        pytest.param({"p": 32003, "nvars": 4, "degrees": [1, 1, 2, 3],
                      "generators": [[[1, [1, 0, 0, 0]]], [[1, [0, 1, 0, 0]]]]},
                     id="extra-degrees"),
        pytest.param({"p": 32003, "nvars": 4, "degrees": ["a"],
                      "generators": [[[1, [1, 0, 0, 0]]]]}, id="non-numeric-degree"),
        pytest.param({"p": "x", "nvars": 4, "generators": [[[1, [1, 0, 0, 0]]]]},
                     id="non-numeric-modulus"),
        pytest.param({"p": 32003, "nvars": 4, "generators": [[["x", [1, 0, 0, 0]]]]},
                     id="non-numeric-coefficient"),
        pytest.param({"p": 32003, "nvars": 4, "generators": [[[1.5, [1, 0, 0, 0]]]]},
                     id="fractional-coefficient"),
        pytest.param({"p": 32003.5, "nvars": 4, "generators": [[[1, [1, 0, 0, 0]]]]},
                     id="fractional-modulus"),
        pytest.param({"p": 32003, "nvars": 4, "degrees": [2.5],
                      "generators": [[[1, [1, 0, 0, 0]]]]}, id="fractional-degree"),
        pytest.param({"p": 32003, "nvars": 4, "generators": [[[True, [1, 0, 0, 0]]]]},
                     id="boolean-coefficient"),
        pytest.param({"p": 32003, "nvars": 4, "generators": [[["3", [1, 0, 0, 0]]]]},
                     id="string-coefficient"),
        pytest.param({"p": "32003", "nvars": 4, "generators": [[[1, [1, 0, 0, 0]]]]},
                     id="string-modulus"),
        pytest.param({"p": 32003, "nvars": 4, "generators": [[[1, ["1", 0, 0, 0]]]]},
                     id="string-exponent"),
        pytest.param({"p": 32003, "generators": {"p": 32003, "nvars": 4, "degrees": [1],
                                                 "generators": [[[1, [1, 0, 0, 0]]]]}},
                     id="construct-stdout-nesting"),
        pytest.param({"p": 32003, "nvars": 4, "generators": [[[1, [1, "0", 0, 0]]]]},
                     id="string-exponent-setting-the-degree"),
    ])
    def test_malformed_document_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "hilbert", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "error: malformed ideal document" in err

    def test_fault_is_not_bad_input(self, capsys, tmp_path, monkeypatch):
        # a missing key in a document is bad input; a KeyError from the
        # library is a fault, and main lets it through
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"nvars": 4, "generators": [[[1, [1, 0, 0, 0]]]]}))
        code, out, err = run_cli(capsys, "hilbert", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: malformed ideal document")

        def fault(*args, **kwargs):
            raise KeyError("fault")
        monkeypatch.setattr(cli, "verify_construction", fault)
        with pytest.raises(KeyError, match="fault"):
            main(["verify", "--t", "2", "--r", "1"])

    @pytest.mark.parametrize("doc,reason", [
        ({"p": "32003", "nvars": 4, "generators": [[[1, [1, 0, 0, 0]]]]},
         "'32003' is not an integer (modulus)"),
        ({"p": 32003, "nvars": 4, "generators": [[["32003", [1, 0, 0, 0]]]]},
         "'32003' is not an integer (coefficient)"),
    ], ids=["modulus", "coefficient"])
    def test_refused_number_names_its_field(self, capsys, tmp_path, doc, reason):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "hilbert", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: malformed ideal document: {reason}\n"

    def test_false_plateau_refused(self, capsys, tmp_path):
        gens = [[[1, [1, 0, 0, 0]]], [[1, [0, 1, 0, 0]]], [[1, [0, 0, 2, 0]]],
                [[1, [0, 0, 1, 4]]]]
        code, doc, _ = self._hilbert(capsys, tmp_path, gens)
        assert code == 0
        assert doc["values"] == [1, 2, 2, 2, 2] + [1] * 7
        assert doc["stabilizedValue"] == 1 and doc["stabilizedAt"] == 5
        assert doc["certificate"] == {"regularity": 6, "linearForm": "x3"}
        assert "degree" not in doc and "hVector" not in doc

    def test_empty_ideal_exit_0(self, capsys, tmp_path):
        code, doc, err = self._hilbert(capsys, tmp_path, [])
        assert code == 0, err
        assert doc["values"] == [1, 4, 10, 20, 35] and doc["cutoff"] == 4
        assert doc["stabilized"] is False and doc["certificate"] is None

    def test_six_variables(self, capsys, tmp_path):
        # R/(x0, x1, x2, x3) is a polynomial ring in x4, x5: H(d) = d + 1
        gens = [[[1, [int(v == i) for v in range(6)]]] for i in range(4)]
        code, doc, err = self._hilbert(capsys, tmp_path, gens, "--cutoff", "6", nvars=6)
        assert code == 0, err
        assert doc["values"] == [1, 2, 3, 4, 5, 6, 7]

    def test_many_variables_exit_2(self, capsys, tmp_path):
        # the degree-2 basis in 1200 variables has 720,600 monomials
        gens = [[[1, [int(v == i) for v in range(1200)]]] for i in range(4)]
        start = time.perf_counter()
        code, out, err = self._hilbert(capsys, tmp_path, gens, "--cutoff", "2", nvars=1200)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out is None
        assert err.startswith("error: degree 2 too large")

    def test_lift_above_the_entry_cap_exit_2(self, capsys, tmp_path):
        # the empty ideal: Psi_e is square and would reach 98,770^2 entries
        # by degree 80; the lift to degree 25 (3276 x 3276) is refused
        start = time.perf_counter()
        code, out, err = self._hilbert(capsys, tmp_path, [], "--cutoff", "80")
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out is None
        assert err.startswith("error: degree 25 too large for the Hilbert lift")

    def test_cutoff_above_the_degree_cap_exit_2(self, capsys, tmp_path):
        # the values up to the cutoff were stored and printed: 20 MB at 10^7
        start = time.perf_counter()
        code, out, err = self._hilbert(capsys, tmp_path, self._twisted_cubic(), "--codim", "2",
                                       "--cutoff", "10000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out is None
        assert err.startswith("error: cutoff 10000000 too large")

    def test_twisted_cubic_uncertified(self, capsys, tmp_path):
        code, doc, _ = self._hilbert(capsys, tmp_path, self._twisted_cubic())
        assert code == 0
        assert doc["values"] == [1, 4, 7, 10, 13, 16, 19, 22, 25]
        assert doc["stabilizedValue"] is None and doc["certificate"] is None

    def test_codim_on_uncertified_profile_exit_3(self, capsys, tmp_path):
        # the differences (1, 2, 0, ...) look like an h-vector, but no
        # certificate backs them: the profile is printed without one
        code, doc, err = self._hilbert(capsys, tmp_path, self._twisted_cubic(), "--codim", "2")
        assert code == 3
        assert doc["values"] == [1, 4, 7, 10, 13, 16, 19, 22, 25]
        assert doc["certificate"] is None
        assert "hVector" not in doc and "hVectorSum" not in doc
        assert "not certified" in err
        assert "positive-dimensional, shared component or cutoff too small" in err

    @pytest.mark.parametrize("codim", ["2", "4", "5"])
    def test_codim_other_than_the_certificates_exit_2(self, capsys, tmp_path, codim):
        # the (3, 1) scheme has length 8 > 0, so its certificate fixes codimension 3
        run_cli(capsys, "construct", "--t", "3", "--r", "1", "--out-dir", str(tmp_path))
        code, out, err = run_cli(capsys, "hilbert", "--input", str(tmp_path / "generators.json"),
                                 "--codim", codim)
        assert code == 2
        assert out == ""
        assert err == (f"error: codimension {codim} does not match the profile: its certificate "
                       "makes H constant at 8, so the codimension is 3\n")

    def test_flat_uncertified_profile_names_the_witness(self, capsys, tmp_path):
        # the twisted cubic cut by x2 = 0: length 3 at [1:0:0:0] (double) and
        # [0:0:0:1], so every coordinate hyperplane meets the scheme and no
        # coordinate variable certifies the flat values
        gens = self._twisted_cubic() + [[[1, [0, 0, 1, 0]]]]
        code, doc, err = self._hilbert(capsys, tmp_path, gens, "--codim", "3", "--cutoff", "12")
        assert code == 3
        assert doc["values"] == [1] + [3] * 12
        assert doc["certificate"] is None and "hVector" not in doc
        assert "not certified by degree 12" in err
        assert "no coordinate variable is a regularity witness" in err
        assert "shared component" not in err


class TestVerify:
    def test_pass_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--t", "4", "--r", "2", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["observedDegree"] == 11

    def test_5_2_reports_26(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--t", "5", "--r", "2", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True and doc["observedDegree"] == 26

    def test_prime_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--t", "3", "--r", "1",
                               "--seed", "2", "--prime", "65537")
        assert code == 0
        assert json.loads(out)["parameters"]["p"] == 65537

    @staticmethod
    def _verify_capped(*argv):
        """verify in a child whose address space is capped at 2 GiB, so an
        array that grows instead of being refused fails the test, not the host."""
        def cap_memory():
            limit = 2 * 1024**3
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(Path(acmcurves.__file__).parents[1]),
                                              os.environ.get("PYTHONPATH", "")])}
        return subprocess.run([sys.executable, "-m", "acmcurves.cli", "verify", *argv],
                              env=env, preexec_fn=cap_memory, capture_output=True,
                              text=True, timeout=60)

    def test_huge_t_exits_2_before_the_subset_tables_grow(self):
        # the minors of the 39 x 40 M_small are Pfaffians of a bordered
        # 79 x 79 skew matrix, wider than an int64 mask, so the walk refuses
        # the table before it lists a level
        started = time.monotonic()
        proc = self._verify_capped("--t", "40", "--r", "1")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: subset tables index at most 63")
        assert time.monotonic() - started < 20

    def test_huge_d_exits_2_before_a_product_matrix_grows(self):
        # the minors of degree-30 entries would multiply by a 5456 x 39711
        # matrix, above MAX_ARRAY_ENTRIES; Form.mul_matrix refuses it
        started = time.monotonic()
        proc = self._verify_capped("--t", "2", "--r", "1", "--d", "30")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: product of degrees 30 and 30 too large: "
                                      "its matrix would be 5456 x 39711")
        assert time.monotonic() - started < 20


class TestScenario:
    def test_ex_11_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "--id", "ex-11")
        assert code == 0
        assert json.loads(out)["observedDegree"] == 11

    def test_ex_2d3_with_d(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "--id", "ex-2d3", "--d", "2")
        assert code == 0
        assert json.loads(out)["observedDegree"] == 16

    def test_ex_mixed_reports_both_cases(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "--id", "ex-mixed")
        doc = json.loads(out)
        assert doc["caseB"] == 33
        assert doc["caseA"] == 27  # pinned expectation 17 is not attainable
        assert code == 1

    def test_ex_2d3_at_10_is_measured_by_structure(self, capsys):
        # the Hilbert lift in four variables refused this at degree 29
        code, out, err = run_cli(capsys, "scenario", "--id", "ex-2d3", "--d", "10")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["pass"] is True and doc["observedDegree"] == 2000

    def test_blocked_sample_exits_1_with_no_length(self, capsys):
        # every coordinate plane meets this sample's scheme, so no lift could
        # certify its length; the four-variable lift refused it at degree 29
        code, out, err = run_cli(capsys, "scenario", "--id", "ex-2d3", "--d", "10",
                                 "--prime", "3", "--seed", "7")
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["observedDegree"] is None and doc["pass"] is False
        assert doc["failure"] == ("every coordinate hyperplane meets the scheme: no x_v "
                                  "with (I + x_v) = R in degree 38")

    def test_ex_2d3_at_18_exits_2_before_a_product_matrix_grows(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "scenario", "--id", "ex-2d3", "--d", "18")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: product of degrees 18 and 18 too large")

    def test_unknown_id_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "--id", "ex-nope")
        assert code == 2

    def test_pretty_flag(self, capsys):
        _, out, _ = run_cli(capsys, "--pretty", "scenario", "--id", "ex-11")
        assert "\n  " in out
        json.loads(out)


class TestParserReuse:
    """main builds its parser once per process; consecutive calls print what
    calls on a freshly built parser print."""

    CALLS = [
        ("--pretty", "bound", "--t", "4", "--r", "2"),
        ("bound", "--t", "4", "--r", "2"),
        ("bound", "--t", "4"),  # missing --r: argparse usage error, exit 2
        ("bound", "--t", "4", "--r", "9"),  # range error, exit 2
        ("bound", "--t", "3", "--r", "1", "--d", "2"),
        ("scenario", "--id", "ex-11"),
        ("bound", "--t", "5", "--r", "2"),
    ]

    @staticmethod
    def _call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_consecutive_calls_print_what_fresh_calls_print(self, capsys):
        fresh = []
        for argv in self.CALLS:
            build_parser.cache_clear()
            fresh.append(self._call(capsys, argv))
        build_parser.cache_clear()
        reused = [self._call(capsys, argv) for argv in self.CALLS]
        assert build_parser.cache_info().misses == 1
        assert reused == fresh
        assert [c for c, _, _ in fresh] == [0, 0, 2, 2, 0, 0, 0]
        assert "\n  " in fresh[0][1] and "\n  " not in fresh[1][1]
        assert json.loads(fresh[0][1]) == json.loads(fresh[1][1])
        assert json.loads(fresh[4][1])["d"] == 2 and json.loads(fresh[6][1])["d"] == 1


# sha256 of stdout, recorded before forms became dense coefficient vectors
# (first three) and before graded pieces came only from Macaulay matrices
# with one elimination kernel for every modulus (last three); neither change
# may alter a single output byte.
GOLDEN_STDOUT = [
    pytest.param(("construct", "--t", "4", "--r", "2", "--seed", "3"),
                 "91d9fe1878abb67d993565e7ca3048500e9e14cd46a6a53c53a7c05f376ec02b", id="construct"),
    pytest.param(("verify", "--t", "5", "--r", "2", "--seed", "1"),
                 "4f63af0ce5befd2f3f61b5217f494708c709dde0949f41dfdd4cac101380517d", id="verify"),
    pytest.param(("scenario", "--id", "ex-2d3", "--d", "3"),
                 "baa98a5b9d17f83f1d6347358bf84855365d98b864514cc604dfe3675347da97", id="scenario"),
    pytest.param(("verify", "--t", "6", "--r", "3", "--prime", "2147483629"),
                 "5019d408778782dae4c84e80ca1089ddbb227d1a8b6ea709aab995f94226daf7", id="verify-large-prime"),
    pytest.param(("verify", "--t", "4", "--r", "1", "--d", "2", "--seed", "3"),
                 "7f06d411ff705c0b1d6d649d459658b241b769d57c3a42822e09ce9041191733", id="verify-uniform"),
    pytest.param(("verify", "--t", "4", "--r", "2", "--prime", "2147483629", "--seed", "2"),
                 "0452f6eca4a2196b9ccd81159dcb9454178ff41c25927cb7769aed06f89cab05", id="verify-large-prime-seed"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT)
def test_golden_stdout(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout and the exit code, recorded before the report derived its
# verdict from the recorded checks; ex-mixed exits 1 on case A (observed 27,
# pinned 17).
GOLDEN_SCENARIO = [
    pytest.param("ex-11", 0, "0ceaf0c45fc4d7b4c052e5fbc62b202c84c1b566d7665118d5ad21d0de59fa5f",
                 id="ex-11"),
    pytest.param("ex-26", 0, "ffa2891c016b754bf8c50b36b9beb054be6005f1220070593c76c2a38af3cd1a",
                 id="ex-26"),
    pytest.param("ex-mixed", 1, "bf676592a5de5636e129f30cf8c76d8009d749042eb24eb8387ce3f2f543e49b",
                 id="ex-mixed"),
]


@pytest.mark.parametrize("scenario,exit_code,digest", GOLDEN_SCENARIO)
def test_golden_scenario_stdout(capsys, scenario, exit_code, digest):
    code, out, _ = run_cli(capsys, "scenario", "--id", scenario)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout of a command reading the files of `construct --t 4 --r 2
# --prime P --out-dir DIR`, recorded before the document decoders learned to
# refuse malformed shapes; "{dir}" stands for DIR.
INTERSECT = ("intersect", "--a", "{dir}/mSmall.json", "--b", "{dir}/mBig.json")
HILBERT = ("hilbert", "--input", "{dir}/generators.json", "--codim", "3")
GOLDEN_FILE_STDOUT = [
    pytest.param(32003, INTERSECT,
                 "10b6bab58bd875fcef9ad8095ce3716b9277660d3b0f14c8bf9f2d7faf7a91e9", id="intersect"),
    pytest.param(32003, HILBERT,
                 "3686cafcc5137519a82b5c23ed26473502453ab65009bec301382b8890779902", id="hilbert"),
    pytest.param(2147483629, INTERSECT,
                 "10b6bab58bd875fcef9ad8095ce3716b9277660d3b0f14c8bf9f2d7faf7a91e9",
                 id="intersect-large-prime"),
    pytest.param(2147483629, HILBERT,
                 "3686cafcc5137519a82b5c23ed26473502453ab65009bec301382b8890779902",
                 id="hilbert-large-prime"),
]


@pytest.mark.parametrize("prime,argv,digest", GOLDEN_FILE_STDOUT)
def test_golden_file_stdout(capsys, tmp_path, prime, argv, digest):
    code, _, _ = run_cli(capsys, "construct", "--t", "4", "--r", "2", "--prime", str(prime),
                         "--out-dir", str(tmp_path))
    assert code == 0
    code, out, _ = run_cli(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
