import hashlib
import json

import pytest

from acmcurves.cli import main


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

    def test_env_var_prime_flag_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("ACMCURVES_PRIME", "101")
        _, out, _ = run_cli(capsys, "verify", "--t", "2", "--r", "1", "--seed", "1")
        assert json.loads(out)["parameters"]["p"] == 101
        _, out, _ = run_cli(capsys, "verify", "--t", "2", "--r", "1", "--seed", "1",
                            "--prime", "32003")
        assert json.loads(out)["parameters"]["p"] == 32003


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

    def test_unknown_id_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "--id", "ex-nope")
        assert code == 2

    def test_pretty_flag(self, capsys):
        _, out, _ = run_cli(capsys, "--pretty", "scenario", "--id", "ex-11")
        assert "\n  " in out
        json.loads(out)


# sha256 of stdout, recorded before forms became dense coefficient vectors;
# the representation must not change a single output byte.
GOLDEN_STDOUT = [
    (("construct", "--t", "4", "--r", "2", "--seed", "3"),
     "91d9fe1878abb67d993565e7ca3048500e9e14cd46a6a53c53a7c05f376ec02b"),
    (("verify", "--t", "5", "--r", "2", "--seed", "1"),
     "4f63af0ce5befd2f3f61b5217f494708c709dde0949f41dfdd4cac101380517d"),
    (("scenario", "--id", "ex-2d3", "--d", "3"),
     "baa98a5b9d17f83f1d6347358bf84855365d98b864514cc604dfe3675347da97"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT, ids=[a[0] for a, _ in GOLDEN_STDOUT])
def test_golden_stdout(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("ACMCURVES_PRIME", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
