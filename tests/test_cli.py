"""The command-line surface and its result documents."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aqlab
from aqlab import cli, gxg
from aqlab import liealg as la
from aqlab import piaq as pq
from aqlab import errors
from aqlab import scalars as sk
from aqlab.cli import main
from conftest import standard_pair

SU2_FILE = {
    "dim": 3,
    "name": "custom-su2",
    "brackets": [
        {"i": 1, "j": 2, "k": 3, "value": 1.0},
        [2, 3, 1, 1.0],
        [3, 1, 2, 1.0],
    ],
}


FLAT_MODEL = {
    "dim": 4,
    "alpha": 1,
    "name": "flat",
    "brackets": [],
    "I": np.diag([1.0, 1.0, -1.0, -1.0]).tolist(),
    "J": np.block([[np.zeros((2, 2)), np.eye(2)],
                   [np.eye(2), np.zeros((2, 2))]]).tolist(),
}


#: a twistor pair whose bracket fails the Jacobi identity by 1
NON_LIE_MODEL = {
    "dim": 4,
    "alpha": -1,
    "brackets": [[1, 2, 3, 1], [1, 3, 1, 1]],
    "I": standard_pair(4, -1)[0].tolist(),
    "J": standard_pair(4, -1)[1].tolist(),
}


def doubled_su2_file() -> dict:
    """Model file of the doubled su(2), a twistor pair with torsion."""
    M = la.doubled(la.su2()).as_piaq()
    recs = [[int(i) + 1, int(j) + 1, int(k) + 1, float(M.c[i, j, k])]
            for i, j, k in zip(*np.nonzero(M.c)) if i < j]
    return {"dim": M.dim, "alpha": M.alpha, "brackets": recs,
            "I": M.I.tolist(), "J": M.J.tolist()}


def _no_constant(name):
    raise AssertionError(f"document holds the non-JSON constant {name}")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    doc = (json.loads(out.out, parse_constant=_no_constant)
           if out.out.strip() else None)
    return code, doc, out.err


def one_typed_error(err: str) -> str:
    """The name of the AqlabError on the only stderr line."""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    name = lines[0].split(":")[1].strip()
    assert issubclass(getattr(errors, name), errors.AqlabError), lines[0]
    return name


class TestPauli:
    def test_classical_entries(self, capsys):
        code, doc, _ = run(capsys, "pauli", "--alpha", "-1")
        assert code == 0
        o = doc["outputs"]
        assert o["sigma1"] == [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]
        assert o["sigma2"] == [[[0.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        assert o["sigma3"] == [[[0.0, 0.0], [0.0, -1.0]], [[0.0, -1.0], [0.0, 0.0]]]

    def test_split_entries(self, capsys):
        code, doc, _ = run(capsys, "pauli", "--alpha", "1")
        assert code == 0
        assert doc["outputs"]["sigma2"] == [[[0.0, 0.0], [1.0, 0.0]],
                                            [[1.0, 0.0], [0.0, 0.0]]]

    def test_bad_alpha_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["pauli", "--alpha", "0"])
        assert err.value.code == 2


class TestSpinBasis:
    def test_standard_triple(self, capsys):
        code, doc, _ = run(capsys, "spinbasis", "--alpha", "-1",
                           "--j1", "1,0,0", "--j2", "0,1,0", "--j3", "0,0,1")
        assert code == 0
        assert doc["outputs"]["orientation_sign"] == 1
        assert doc["outputs"]["change_matrix"] == [
            [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

    def test_reversed_triple(self, capsys):
        code, doc, _ = run(capsys, "spinbasis", "--alpha", "1",
                           "--j1", "1,0,0", "--j2", "0,1,0", "--j3", "0,0,-1")
        assert code == 0
        assert doc["outputs"]["orientation_sign"] == -1

    def test_gram_violation_fails(self, capsys):
        code, doc, err = run(capsys, "spinbasis", "--alpha", "-1",
                             "--j1", "1,0,0", "--j2", "1,0,0", "--j3", "0,0,1")
        assert code == 1 and doc is None
        assert "Gram" in err


class TestSelfDual:
    def test_elementary_form(self, capsys):
        code, doc, _ = run(capsys, "selfdual", "--alpha", "-1",
                           "--omega", "1,0,0,0,0,0")
        assert code == 0
        o = doc["outputs"]
        assert o["omega_plus"] == [0.5, 0, 0, 0, 0, 0.5]
        assert o["omega_minus"] == [0.5, 0, 0, 0, 0, -0.5]
        assert o["lambda_sq"]["value"] == pytest.approx(0.25)

    def test_selfdual_input_passes_through(self, capsys):
        code, doc, _ = run(capsys, "selfdual", "--alpha", "1",
                           "--omega", "1,2,3,3,2,-1")
        assert code == 0
        assert doc["outputs"]["omega_plus"] == [1, 2, 3, 3, 2, -1]
        assert max(abs(v) for v in doc["outputs"]["omega_minus"]) < 1e-12
        J = np.array(doc["outputs"]["endomorphism"])
        l2 = doc["outputs"]["lambda_sq"]["value"]
        assert np.abs(J @ J + l2 * np.eye(4)).max() < 1e-12


class TestEinstein:
    def test_single_point(self, capsys):
        code, doc, _ = run(capsys, "einstein", "--catalog", "su2",
                           "--lambda", "0", "--mu", "-0.5")
        assert code == 0
        assert doc["outputs"]["einstein"] is True
        assert doc["outputs"]["epsilon"]["exact"] == [5, 18]

    def test_non_einstein_point(self, capsys):
        code, doc, _ = run(capsys, "einstein", "--catalog", "su2",
                           "--lambda", "0.2", "--mu", "0.3")
        assert code == 0
        assert doc["outputs"]["einstein"] is False
        assert doc["outputs"]["epsilon"] is None

    def test_degenerate_point(self, capsys):
        code, doc, err = run(capsys, "einstein", "--catalog", "su2",
                             "--lambda", "0.6", "--mu", "0.8")
        assert code == 1 and doc is None
        assert "Degenerate" in err

    def test_classification(self, capsys):
        code, doc, _ = run(capsys, "einstein", "--catalog", "su2", "--classify")
        assert code == 0
        rows = doc["outputs"]["einstein_points"]
        assert [r["epsilon"]["exact"] for r in rows] == [
            [1, 4], [5, 18], [3, 8], [3, 8]]
        assert rows[2]["lambda"]["exact"] == [1, 3]

    def test_algebra_file(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(SU2_FILE))
        code, doc, _ = run(capsys, "einstein", "--algebra", str(path),
                           "--classify")
        assert code == 0
        assert doc["outputs"]["count"] == 4

    def test_bad_algebra_file(self, capsys, tmp_path):
        bad = dict(SU2_FILE, brackets=SU2_FILE["brackets"] + [[1, 2, 1, 0.3]])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, doc, err = run(capsys, "einstein", "--algebra", str(path),
                             "--classify")
        assert code == 1 and doc is None
        assert "Jacobi" in err

    def test_sweep_with_csv(self, capsys, tmp_path):
        csv = tmp_path / "sweep.csv"
        code, doc, _ = run(capsys, "einstein", "--catalog", "su2",
                           "--sweep", "0.2", "--csv", str(csv))
        assert code == 0
        assert doc["outputs"]["points_scanned"] > 50
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "lambda,mu,ricci_off_diagonal,ricci_anisotropy"
        assert len(lines) == doc["outputs"]["points_scanned"] + 1
        points = doc["outputs"]["einstein_points"]
        assert points[0]["lambda"]["value"] == 0.0
        assert points[0]["epsilon"]["exact"] == [1, 4]
        assert points[1]["mu"]["value"] == pytest.approx(-0.5, abs=1e-9)

    def test_fine_sweep_discovers_all_four(self, capsys):
        code, doc, _ = run(capsys, "einstein", "--catalog", "su2",
                           "--sweep", "0.05")
        assert code == 0
        points = doc["outputs"]["einstein_points"]
        assert len(points) == 4
        got = [(p["lambda"]["value"], p["mu"]["value"], p["epsilon"]["value"])
               for p in points]
        want = [(0, 0, 0.25), (0, -0.5, 5 / 18), (1 / 3, -2 / 3, 0.375),
                (-1 / 3, -2 / 3, 0.375)]
        for (gl, gm, ge), (wl, wm, we) in zip(got, want):
            assert abs(gl - wl) < 1e-8 and abs(gm - wm) < 1e-8
            assert abs(ge - we) < 1e-8

    @pytest.mark.parametrize("res", ["0", "-0.1", "nan", "inf", "1e-4"])
    def test_bad_sweep_resolution(self, capsys, res):
        code, doc, err = run(capsys, "einstein", "--catalog", "su2",
                             "--sweep", res)
        assert code == 1 and doc is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "InvalidResolution" in lines[0]

    def test_missing_mode_is_error(self, capsys):
        code, doc, err = run(capsys, "einstein", "--catalog", "su2")
        assert code == 1
        assert "required" in err


class TestPiaq:
    def test_doubled_predicates(self, capsys):
        code, doc, _ = run(capsys, "piaq", "--doubled", "su2",
                           "--predicate", "three_web")
        assert code == 0
        assert doc["outputs"]["verdict"] is True

    def test_false_verdict_has_witness_and_exit_zero(self, capsys):
        code, doc, _ = run(capsys, "piaq", "--doubled", "su2",
                           "--predicate", "integrable")
        assert code == 0
        assert doc["outputs"]["verdict"] is False
        assert len(doc["outputs"]["witness"]) == 2

    def test_involutive_with_operator(self, capsys):
        code, doc, _ = run(capsys, "piaq", "--doubled", "su2",
                           "--predicate", "involutive",
                           "--operator", "J", "--eigenvalue", "1")
        assert code == 0 and doc["outputs"]["verdict"] is True

    def test_isoclinic_needs_valid_mu(self, capsys):
        code, doc, err = run(capsys, "piaq", "--doubled", "su2",
                             "--predicate", "isoclinic_geodesic", "--mu", "1")
        assert code == 1
        assert "InvalidMu" in err

    def test_mu_is_recorded(self, capsys):
        code, doc, _ = run(capsys, "piaq", "--doubled", "su2", "--predicate",
                           "isoclinic_geodesic", "--mu", "0.5")
        assert code == 0 and doc["inputs"]["mu"] == 0.5
        assert doc["outputs"] == pq.predicate_report(
            la.doubled(la.su2()).as_piaq(), "isoclinic_geodesic", mu=0.5)

    def test_unrecognized_eigenvalue(self, capsys):
        code, doc, err = run(capsys, "piaq", "--doubled", "su2", "--predicate",
                             "involutive", "--operator", "I",
                             "--eigenvalue", "2i")
        assert code == 1 and doc is None
        assert one_typed_error(err) == "NotEigenvalue"

    def test_model_bracket_need_not_be_lie(self, capsys, tmp_path):
        """PiAQModel accepts a non-Lie bracket, and so does --model."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps(NON_LIE_MODEL))
        M = pq.PiAQModel(4, la.bracket_tensor(4, NON_LIE_MODEL["brackets"]),
                         *standard_pair(4, -1), -1)
        assert not M.is_lie
        for predicate in ("semiholonomic", "integrable"):
            code, doc, err = run(capsys, "piaq", "--model", str(path),
                                 "--predicate", predicate)
            assert code == 0 and err == ""
            assert doc["outputs"] == pq.predicate_report(M, predicate)
        assert doc["inputs"]["dim"] == 4

    def test_model_file(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(FLAT_MODEL))
        code, doc, _ = run(capsys, "piaq", "--model", str(path),
                           "--predicate", "integrable")
        assert code == 0 and doc["outputs"]["verdict"] is True


def _without(data: dict, key: str) -> dict:
    return {k: v for k, v in data.items() if k != key}


MALFORMED = [
    ("einstein", "not json"),
    ("einstein", [SU2_FILE]),
    ("einstein", _without(SU2_FILE, "dim")),
    ("einstein", _without(SU2_FILE, "brackets")),
    ("einstein", dict(SU2_FILE, brackets=[[1, 2, 3]])),
    ("einstein", dict(SU2_FILE, brackets=[{"i": 1, "j": 2, "k": 3}])),
    ("einstein", dict(SU2_FILE, brackets=7)),
    ("einstein", dict(SU2_FILE, dim=[3])),
    ("piaq", _without(FLAT_MODEL, "I")),
    ("piaq", _without(FLAT_MODEL, "J")),
    ("piaq", _without(FLAT_MODEL, "alpha")),
    ("piaq", _without(FLAT_MODEL, "dim")),
    ("piaq", dict(FLAT_MODEL, alpha=[1])),
    ("piaq", dict(FLAT_MODEL, I=[[1, 0], [0]])),
    ("piaq", dict(FLAT_MODEL, brackets=[[1, 2, 3, 1.0, 5]])),
    # dims outside 1..MAX_DIM, or not integers, fail before any allocation
    *((command, dict(data, dim=dim)) for dim in (10**6, 0, -3, True, 2.5)
      for command, data in (("einstein", SU2_FILE), ("piaq", FLAT_MODEL))),
    # non-finite numbers, written as the NaN and Infinity literals json reads
    ("einstein", dict(SU2_FILE, brackets=[[1, 2, 3, float("nan")]])),
    ("piaq", dict(FLAT_MODEL, brackets=[[1, 2, 3, float("inf")]])),
    ("piaq", dict(FLAT_MODEL, I=np.full((4, 4), np.nan).tolist())),
]


@pytest.mark.parametrize("command,data", MALFORMED)
def test_malformed_file_is_one_error_line(capsys, tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    if command == "einstein":
        argv = ("einstein", "--algebra", str(path), "--classify")
    else:
        argv = ("piaq", "--model", str(path), "--predicate", "integrable")
    code, doc, err = run(capsys, *argv)
    assert code == 1 and doc is None
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestVerify:
    @pytest.mark.parametrize("argv", [
        ("pauli", "--alpha", "1"),
        ("spinbasis", "--alpha", "-1", "--j1", "1,0,0", "--j2", "0,1,0",
         "--j3", "0,0,1"),
        ("selfdual", "--alpha", "1", "--omega", "1,2,3,4,5,6"),
        ("einstein", "--catalog", "su2", "--lambda", "0", "--mu", "-0.5"),
        ("einstein", "--catalog", "sl2r", "--classify"),
        ("einstein", "--catalog", "su2", "--sweep", "0.25"),
        ("piaq", "--doubled", "su2", "--predicate", "semiholonomic"),
        ("check", "--seed", "3", "--samples", "5"),
        ("einstein", "--algebra", "{algebra}", "--classify"),
        ("piaq", "--model", "{model}", "--predicate", "integrable"),
    ])
    def test_roundtrip(self, capsys, tmp_path, argv):
        files = {"algebra": SU2_FILE, "model": doubled_su2_file()}
        for name, data in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        argv = [a.format(**{k: str(tmp_path / f"{k}.json") for k in files})
                for a in argv]
        code, doc, _ = run(capsys, *argv)
        assert code == 0
        assert doc["inputs"]["argv"] == argv
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, vdoc, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert vdoc["outputs"]["match"] is True

    def test_tampered_document_fails(self, capsys, tmp_path):
        code, doc, _ = run(capsys, "einstein", "--catalog", "su2",
                           "--lambda", "0", "--mu", "0")
        doc["outputs"]["epsilon"]["value"] = 0.5
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, vdoc, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert vdoc["outputs"]["match"] is False

    def test_csv_is_not_rewritten(self, capsys, tmp_path):
        csv = tmp_path / "sweep.csv"
        code, doc, _ = run(capsys, "einstein", "--catalog", "su2",
                           "--sweep", "0.25", "--csv", str(csv))
        assert code == 0
        csv.write_text("kept\n")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, vdoc, _ = run(capsys, "verify", str(path))
        assert code == 0 and vdoc["outputs"]["match"] is True
        assert csv.read_text() == "kept\n"

    @pytest.mark.parametrize("case", ["no_argv", "verify_doc", "bad_choice",
                                      "bad_float", "help"])
    def test_unverifiable_document(self, capsys, tmp_path, case):
        code, doc, _ = run(capsys, "pauli", "--alpha", "1")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        if case == "verify_doc":
            code, doc, _ = run(capsys, "verify", str(path))
        else:
            doc["inputs"]["argv"] = {
                "no_argv": None,
                "bad_choice": ["einstein", "--catalog", "nope", "--classify"],
                "bad_float": ["einstein", "--catalog", "su2", "--sweep", "x"],
                "help": ["pauli", "--help"],
            }[case]
        path.write_text(json.dumps(doc))
        code, vdoc, err = run(capsys, "verify", str(path))
        assert code == 1 and vdoc is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


    def test_document_on_stdin(self, capsys, monkeypatch):
        code, doc, _ = run(capsys, "selfdual", "--alpha", "1",
                           "--omega", "1,2,3,4,5,6")
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, vdoc, _ = run(capsys, "verify", "-")
        assert code == 0 and vdoc["outputs"]["match"] is True
        assert vdoc["inputs"] == {"document": "-", "verified_command": "selfdual",
                                  "argv": ["verify", "-"]}


class TestCheck:
    @pytest.mark.parametrize("argv", [("--samples", "0"), ("--samples", "-5"),
                                      ("--seed", "-1")])
    def test_needs_samples_and_a_nonnegative_seed(self, capsys, argv):
        code, doc, err = run(capsys, "check", *argv)
        assert code == 1 and doc is None
        assert one_typed_error(err) == "AqlabError"

    def test_deterministic_for_seed(self, capsys):
        code1, doc1, _ = run(capsys, "check", "--seed", "7", "--samples", "10")
        code2, doc2, _ = run(capsys, "check", "--seed", "7", "--samples", "10")
        assert code1 == code2 == 0
        assert doc1["outputs"] == doc2["outputs"]
        assert doc1["outputs"]["passed"] is True

    def test_tolerance_override(self, capsys, monkeypatch, tmp_path):
        """AQLAB_TOL sets check's bound and verify's comparison only; the
        verdicts of spinbasis, einstein and piaq keep the library constants."""
        decisions = {
            ("spinbasis", "--alpha", "1", "--j1", "1,0,0", "--j2", "0,1,0",
             "--j3", "0,0,1"): {"isotropy": sk.ISOTROPY_TOL},
            ("einstein", "--catalog", "su2", "--classify"):
                {"einstein": gxg.EINSTEIN_TOL},
            ("piaq", "--doubled", "su2", "--predicate", "integrable"):
                {"predicate": pq.PRED_TOL},
        }
        plain = {argv: run(capsys, *argv)[1] for argv in decisions}
        _, doc, _ = run(capsys, "pauli", "--alpha", "1")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("AQLAB_TOL", "1e-2")
        code, doc, _ = run(capsys, "check", "--seed", "1", "--samples", "5")
        assert code == 0
        assert doc["tolerances"]["bound"] == 1e-2
        code, doc, _ = run(capsys, "verify", str(path))
        assert code == 0 and doc["tolerances"] == {"comparison": 1e-2}
        for argv, tolerances in decisions.items():
            code, doc, _ = run(capsys, *argv)
            assert code == 0
            assert doc["tolerances"] == plain[argv]["tolerances"] == tolerances
            assert doc["outputs"] == plain[argv]["outputs"]


class TestNumbers:
    """No document holds NaN or an infinity; every bad number is one typed
    error line with nothing on stdout."""

    @pytest.mark.parametrize("argv,error", [
        (("einstein", "--catalog", "su2", "--lambda", "nan", "--mu", "0"),
         "Degenerate"),
        (("einstein", "--catalog", "su2", "--lambda", "0", "--mu", "inf"),
         "Degenerate"),
        (("einstein", "--catalog", "su2", "--lambda", "1e200", "--mu", "0"),
         "AqlabError"),
        (("einstein", "--catalog", "su2", "--lambda", "1e150", "--mu", "1e150"),
         "AqlabError"),
        (("selfdual", "--alpha", "1", "--omega", "1e308,1e308,0,0,0,0"),
         "AqlabError"),
        (("selfdual", "--alpha", "-1", "--omega", "nan,0,0,0,0,0"),
         "AqlabError"),
        (("selfdual", "--alpha", "-1", "--omega", "1,2,3"), "AqlabError"),
        (("spinbasis", "--alpha", "-1", "--j1", "nan,0,0", "--j2", "0,1,0",
          "--j3", "0,0,1"), "OrthonormalityViolated"),
        (("piaq", "--doubled", "su2", "--predicate", "isoclinic_geodesic",
          "--mu", "nan"), "AqlabError"),
        (("piaq", "--doubled", "su2", "--predicate", "isoclinic_geodesic",
          "--mu=-inf"), "AqlabError"),
    ])
    def test_bad_number_is_one_typed_error_line(self, capsys, argv, error):
        code, doc, err = run(capsys, *argv)
        assert code == 1 and doc is None
        assert one_typed_error(err) == error

    def test_main_raises_numpy_warnings_itself(self, capsys):
        """Not only under this suite's filterwarnings setting: a plain
        process prints no warning lines before the error."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, doc, err = run(capsys, "einstein", "--catalog", "su2",
                                 "--lambda", "1e150", "--mu", "1e150")
        assert code == 1 and doc is None
        assert one_typed_error(err) == "AqlabError" and "invalid value" in err

    NUMBERS = st.one_of(
        st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "-1e308",
                         "1e200", "5e-324", "-2.2e-308", "0", "-0.0", "1",
                         "-1", "0.5", "-0.5"]),
        st.floats(allow_nan=True, allow_infinity=True).map(repr))
    SAMPLES = st.sampled_from(["-5", "-1", "0", "1", "2"])
    SEEDS = st.sampled_from(["-5", "-1", "0", "1", str(2 ** 64)])

    @st.composite
    def argvs(draw):
        kind = draw(st.sampled_from(["einstein", "selfdual", "spinbasis",
                                     "piaq", "check"]))
        num = TestNumbers.NUMBERS
        alpha = draw(st.sampled_from(["-1", "1"]))
        # --name=value, so that argparse takes "-inf" for a value
        if kind == "einstein":
            return ["einstein", "--catalog", draw(st.sampled_from(["su2", "sl2r"])),
                    f"--lambda={draw(num)}", f"--mu={draw(num)}"]
        if kind == "selfdual":
            return ["selfdual", "--alpha", alpha,
                    "--omega=" + ",".join(draw(num) for _ in range(6))]
        if kind == "spinbasis":
            return ["spinbasis", "--alpha", alpha,
                    *(f"--{name}=" + ",".join(draw(num) for _ in range(3))
                      for name in ("j1", "j2", "j3"))]
        if kind == "piaq":
            return ["piaq", "--doubled", "su2", "--predicate",
                    "isoclinic_geodesic", f"--mu={draw(num)}"]
        return ["check", f"--samples={draw(TestNumbers.SAMPLES)}",
                f"--seed={draw(TestNumbers.SEEDS)}"]

    @settings(max_examples=300, deadline=None)
    @given(argvs())
    def test_numeric_argv_is_strict_json_or_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            doc = json.loads(out.getvalue(), parse_constant=_no_constant)
            assert doc["inputs"]["argv"] == argv and err.getvalue() == ""
        else:
            assert code == 1 and out.getvalue() == ""
            one_typed_error(err.getvalue())


class TestLazyStartup:
    """Each subcommand imports only the layers it runs."""

    PROBE = """if True:
        import contextlib, io, json, sys
        from aqlab.cli import main
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        print(json.dumps(sorted(m for m in sys.modules
                                if m == "numpy" or m.startswith("aqlab"))))
    """

    @staticmethod
    def fresh(code: str, *args: str) -> str:
        """Stdout of ``code`` run in a new interpreter that imports this aqlab."""
        src = str(pathlib.Path(aqlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def loaded(self, *argvs) -> set:
        out = self.fresh(self.PROBE, json.dumps(argvs))
        return set(json.loads(out)) - {"aqlab", "aqlab.cli", "aqlab.errors"}

    @pytest.mark.parametrize("argv,layers", [
        (("pauli", "--alpha", "1"), {"quat", "scalars"}),
        (("spinbasis", "--alpha", "-1", "--j1", "1,0,0", "--j2", "0,1,0",
          "--j3", "0,0,1"), {"quat", "scalars", "spinor"}),
        (("selfdual", "--alpha", "1", "--omega", "1,2,3,4,5,6"),
         {"numpy", "fourdim"}),
        (("einstein", "--catalog", "su2", "--lambda", "0", "--mu", "-0.5"),
         {"numpy", "liealg", "tensors", "gxg"}),
        (("piaq", "--doubled", "su2", "--predicate", "three_web"),
         {"numpy", "liealg", "tensors", "piaq"}),
        (("check", "--seed", "1", "--samples", "2"),
         {"numpy", "quat", "scalars", "liealg", "tensors", "gxg"}),
    ])
    def test_subcommand_loads_only_its_layers(self, argv, layers):
        want = {m if m == "numpy" else f"aqlab.{m}" for m in layers}
        assert self.loaded(argv) == want

    def test_spin_commands_and_their_verify_never_load_numpy(self, capsys,
                                                              tmp_path):
        argv = ("spinbasis", "--alpha", "1", "--j1", "1,0,0", "--j2", "0,1,0",
                "--j3", "0,0,-1")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(run(capsys, *argv)[1]))
        loaded = self.loaded(("pauli", "--alpha", "1"), argv,
                             ("verify", str(path)))
        assert "numpy" not in loaded

    def test_import_aqlab_is_lazy(self):
        self.fresh("""if True:
            import sys, aqlab
            assert not [m for m in sys.modules
                        if m == "numpy" or m.startswith("aqlab.")]
            assert aqlab.gxg is sys.modules["aqlab.gxg"]
            from aqlab import liealg as la
            assert la is sys.modules["aqlab.liealg"]
            from aqlab import *
            assert all(globals()[name] is sys.modules[f"aqlab.{name}"]
                       for name in aqlab.__all__)
        """)
        with pytest.raises(AttributeError, match="nope"):
            aqlab.nope

    def test_parser_choices_match_the_layers(self):
        assert cli.CATALOG_NAMES == tuple(sorted(la.CATALOG))
        assert cli.PREDICATE_NAMES == tuple(sorted(pq.PREDICATES))
