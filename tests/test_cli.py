"""The command-line surface and its result documents."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aqlab
from aqlab import cli
from aqlab import liealg as la
from aqlab import piaq as pq
from aqlab import errors
from aqlab.cli import main
from conftest import so_algebra, standard_pair

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


def bracket_records(c) -> list:
    """The [i, j, k, value] records, i < j counted from 1, of a bracket."""
    return [[int(i) + 1, int(j) + 1, int(k) + 1, float(c[i, j, k])]
            for i, j, k in zip(*np.nonzero(c)) if i < j]


def doubled_file(base) -> dict:
    """Model file of a doubled algebra, a twistor pair with torsion."""
    M = la.doubled(base).as_piaq()
    return {"dim": M.dim, "alpha": M.alpha, "brackets": bracket_records(M.c),
            "I": M.I.tolist(), "J": M.J.tolist()}


def _no_constant(name):
    raise AssertionError(f"document holds the non-JSON constant {name}")


def negative_zeros(value) -> int:
    """The number of -0.0 entries anywhere in a parsed document."""
    if isinstance(value, float):
        return int(value == 0.0 and math.copysign(1.0, value) < 0)
    if isinstance(value, dict):
        value = list(value.values())
    return sum(map(negative_zeros, value)) if isinstance(value, list) else 0


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    doc = (json.loads(out.out, parse_constant=_no_constant)
           if out.out.strip() else None)
    return code, doc, out.err


def child_env() -> dict:
    """The environment of a child interpreter that imports this aqlab."""
    src = str(pathlib.Path(aqlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


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

    def test_names_every_tolerance_that_decides_it(self, capsys):
        """The Gram check of the triple and the conjugation check of the
        change matrix decide the document, beside the isotropy of seeds."""
        from aqlab import scalars as sk
        from aqlab import spinor as sp
        code, doc, _ = run(capsys, "spinbasis", "--alpha", "1",
                           "--j1", "1,0,0", "--j2", "0,1,0", "--j3", "0,0,-1")
        assert code == 0 and doc["tolerances"] == {
            "isotropy": sk.ISOTROPY_TOL, "gram": sp.GRAM_TOL,
            "conjugation": sp.CONJ_TOL}

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

    def test_classify_prints_the_rounded_constants(self, capsys, tmp_path):
        """Each Ricci constant is the float nearest its rational, bit for
        bit, on every catalog algebra and on an --algebra file."""
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(SU2_FILE))
        want = [float(Fraction(1, 4)), float(Fraction(5, 18)), 0.375, 0.375]
        for source in ([("--catalog", name) for name in cli.CATALOG_NAMES]
                       + [("--algebra", str(path))]):
            code, doc, _ = run(capsys, "einstein", *source, "--classify")
            got = [r["epsilon"]["value"]
                   for r in doc["outputs"]["einstein_points"]]
            assert code == 0 and [x.hex() for x in got] == [
                x.hex() for x in want], source

    def test_algebra_file(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(SU2_FILE))
        code, doc, _ = run(capsys, "einstein", "--algebra", str(path),
                           "--classify")
        assert code == 0
        assert doc["outputs"]["count"] == 4

    @pytest.mark.parametrize("scale", [1e-5, 1e-3, 1e4])
    def test_rescaled_algebra_file(self, capsys, tmp_path, scale):
        """su(2) with its brackets scaled: the same semisimple algebra, so
        the same four exact Einstein points as the catalog's."""
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"dim": 3, "brackets": [
            [1, 2, 3, scale], [2, 3, 1, scale], [3, 1, 2, scale]]}))
        code, doc, _ = run(capsys, "einstein", "--algebra", str(path),
                           "--classify")
        _, want, _ = run(capsys, "einstein", "--catalog", "su2", "--classify")

        def exact(d):
            return [[row[k]["exact"] for k in ("lambda", "mu", "epsilon")]
                    for row in d["outputs"]["einstein_points"]]
        assert code == 0 and doc["outputs"]["count"] == 4
        assert exact(doc) == exact(want)

    def test_bad_algebra_file(self, capsys, tmp_path):
        bad = dict(SU2_FILE, brackets=SU2_FILE["brackets"] + [[1, 2, 1, 0.3]])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, doc, err = run(capsys, "einstein", "--algebra", str(path),
                             "--classify")
        assert code == 1 and doc is None
        assert "Jacobi" in err

    @pytest.mark.parametrize("data", [
        {"dim": 3, "brackets": []},
        {"dim": 3, "brackets": [[1, 2, 3, 1.0]]},
        dict(SU2_FILE, dim=4)], ids=["abelian", "heisenberg", "u2"])
    def test_non_semisimple_algebra_file(self, capsys, tmp_path, data):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(data))
        code, doc, err = run(capsys, "einstein", "--algebra", str(path),
                             "--classify")
        assert code == 1 and doc is None
        assert one_typed_error(err) == "NotSemisimple"

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

    @pytest.mark.parametrize("mode", [("--classify",),
                                      ("--lambda", "0", "--mu", "0")])
    def test_csv_without_sweep_is_refused(self, capsys, tmp_path, mode):
        csv = tmp_path / "out.csv"
        code, doc, err = run(capsys, "einstein", "--catalog", "su2", *mode,
                             "--csv", str(csv))
        assert code == 1 and doc is None
        assert one_typed_error(err) == "AqlabError" and "--sweep" in err
        assert not csv.exists()

    def test_bad_csv_path_fails_before_the_sweep(self, capsys, tmp_path,
                                                 monkeypatch):
        from aqlab import gxg

        def no_sweep(*args, **kwargs):
            raise AssertionError("einstein_sweep ran")
        monkeypatch.setattr(gxg, "einstein_sweep", no_sweep)
        code, doc, err = run(capsys, "einstein", "--catalog", "su2",
                             "--sweep", "0.25", "--csv", str(tmp_path))
        assert code == 1 and doc is None
        assert one_typed_error(err) == "AqlabError"

    def test_bad_resolution_writes_no_csv(self, capsys, tmp_path):
        csv = tmp_path / "out.csv"
        code, doc, err = run(capsys, "einstein", "--catalog", "su2",
                             "--sweep", "0", "--csv", str(csv))
        assert code == 1 and doc is None
        assert one_typed_error(err) == "InvalidResolution"
        assert not csv.exists()

    @pytest.mark.parametrize("modes", [
        ("--classify", "--sweep", "0.25"),
        ("--classify", "--lambda", "0.3", "--mu", "0.1"),
        ("--sweep", "0.25", "--mu", "0.1"),
    ], ids=["classify-sweep", "classify-point", "sweep-point"])
    def test_modes_are_exclusive(self, capsys, modes):
        code, doc, err = run(capsys, "einstein", "--catalog", "su2", *modes)
        assert code == 1 and doc is None
        assert one_typed_error(err) == "AqlabError" and "exclusive" in err

    @pytest.mark.parametrize("res", ["0.5", "0.01"])
    def test_sweep_rows_are_exact(self, capsys, res):
        """Every resolution up to 0.3, and here also 0.5, finds the four
        points on the nose, so each row carries its rational."""
        code, doc, _ = run(capsys, "einstein", "--catalog", "su2",
                           "--sweep", res)
        assert code == 0
        rows = doc["outputs"]["einstein_points"]
        assert [[r[k]["exact"] for k in ("lambda", "mu", "epsilon")]
                for r in rows] == [[[0, 1], [0, 1], [1, 4]],
                                   [[0, 1], [-1, 2], [5, 18]],
                                   [[1, 3], [-2, 3], [3, 8]],
                                   [[-1, 3], [-2, 3], [3, 8]]]

    def test_sweep_prints_the_classify_constants(self, capsys):
        """The sweep's epsilon values are --classify's, bit for bit: both
        are ``family.einstein_constant``'s."""
        def eps(*mode):
            code, doc, _ = run(capsys, "einstein", "--catalog", "su2", *mode)
            assert code == 0
            return [r["epsilon"]["value"].hex()
                    for r in doc["outputs"]["einstein_points"]]
        assert eps("--sweep", "0.05") == eps("--classify")

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

    def test_isoclinic_without_mu_asks_for_it(self, capsys):
        code, doc, err = run(capsys, "piaq", "--doubled", "su2",
                             "--predicate", "isoclinic_geodesic")
        assert code == 1 and doc is None
        assert one_typed_error(err) == "InvalidMu"
        assert "slope (--mu)" in err and "+1 and -1" not in err

    def test_mu_is_recorded(self, capsys):
        code, doc, _ = run(capsys, "piaq", "--doubled", "su2", "--predicate",
                           "isoclinic_geodesic", "--mu", "0.5")
        assert code == 0 and doc["inputs"]["mu"] == 0.5
        assert doc["outputs"] == pq.predicate_report(
            la.doubled(la.su2()).as_piaq(), "isoclinic_geodesic", mu=0.5)

    @pytest.mark.parametrize("argv,stray", [
        (("--predicate", "three_web", "--mu", "2"), "--mu"),
        (("--predicate", "integrable", "--operator", "K", "--eigenvalue", "i"),
         "--operator or --eigenvalue"),
        (("--predicate", "semiholonomic", "--eigenvalue", "1"), "--eigenvalue"),
        (("--predicate", "isoclinic_geodesic", "--mu", "0.5", "--operator", "I"),
         "--operator"),
        (("--predicate", "involutive", "--operator", "J", "--eigenvalue", "1",
          "--mu", "0.5"), "--mu"),
    ])
    def test_flag_of_another_predicate_is_refused(self, capsys, argv, stray):
        """A flag the predicate does not read is one typed error line, not
        an input the document records and the verdict ignores."""
        code, doc, err = run(capsys, "piaq", "--doubled", "su2", *argv)
        assert code == 1 and doc is None
        assert one_typed_error(err) == "AqlabError"
        assert err.endswith(f"takes no {stray}\n")

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


BIG = 10 ** 400  #: an integer that json reads and no float holds

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
    # alpha is not coerced: a non-integral number, a bool or a string fails
    *(("piaq", dict(FLAT_MODEL, alpha=alpha)) for alpha in (1.5, True, "1")),
    # nor are bracket records and operator entries: a non-integral, bool or
    # string index, a value that is not a number, or a nonzero [e_i, e_i]
    *(("einstein", dict(SU2_FILE, brackets=[rec, *SU2_FILE["brackets"][1:]]))
      for rec in ([1.5, 2, 3, 1.0], ["1", 2, 3, 1.0], [True, 2, 3, 1.0],
                  [1, 2, 3, True], [1, 2, 3, "1e0"], [1, 1, 3, 1.0],
                  {"i": 1, "j": 2.0, "k": "3", "value": 1.0})),
    ("piaq", dict(FLAT_MODEL, I=[["1", 0, 0, 0], *FLAT_MODEL["I"][1:]])),
    ("piaq", dict(FLAT_MODEL, J=[[0, 0, True, 0], *FLAT_MODEL["J"][1:]])),
    # an integer too large for a float is no number: a 400-digit dim,
    # bracket value or operator entry
    *((command, dict(data, dim=BIG)) for command, data in (
        ("einstein", SU2_FILE), ("piaq", FLAT_MODEL))),
    ("einstein", dict(SU2_FILE, brackets=[[1, 2, 3, BIG],
                                          *SU2_FILE["brackets"][1:]])),
    ("piaq", dict(FLAT_MODEL, I=[[BIG, 0, 0, 0], *FLAT_MODEL["I"][1:]])),
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
    assert len(lines) == 1
    assert lines[0].startswith(f"error: InvalidModel: {path}: "), lines[0]


def test_model_error_names_the_file(capsys, tmp_path):
    """A fault that PiAQModel finds is named with the file, as a schema
    fault is."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(FLAT_MODEL, alpha=[1])))
    code, doc, err = run(capsys, "piaq", "--model", str(path),
                         "--predicate", "integrable")
    assert code == 1 and doc is None
    assert err == (f"error: InvalidModel: {path}: alpha must be -1 or +1, "
                   "got [1]\n")


@pytest.mark.parametrize("alpha,verdict", [(0.9999999, None), (1.0, True)])
def test_model_alpha_is_taken_as_given(capsys, tmp_path, alpha, verdict):
    """An integral float is the integer; any other alpha is named as given,
    not as the integer it truncates to."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(FLAT_MODEL, alpha=alpha)))
    code, doc, err = run(capsys, "piaq", "--model", str(path),
                         "--predicate", "integrable")
    if verdict is None:
        assert code == 1 and one_typed_error(err) == "InvalidModel"
        assert "got 0.9999999" in err
    else:
        assert code == 0 and doc["outputs"]["verdict"] is verdict
        assert doc["inputs"]["alpha"] == 1


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
        files = {"algebra": SU2_FILE, "model": doubled_file(la.su2())}
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

    def test_mismatch_names_the_first_difference(self, capsys, tmp_path):
        """A check document without one residual, as one written before
        that residual existed: verify names the key, with the rerun's
        value; the document has none there."""
        code, doc, _ = run(capsys, "check", "--seed", "1", "--samples", "2")
        rerun = doc["outputs"]["worst_residuals"].pop(
            "einstein_verdict_scalar_vs_model")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, vdoc, _ = run(capsys, "verify", str(path))
        assert code == 1 and vdoc["outputs"] == {
            "match": False, "first_difference": {
                "path": "outputs.worst_residuals."
                        "einstein_verdict_scalar_vs_model",
                "rerun": rerun}}

    def test_first_difference_holds_both_values(self, capsys, tmp_path):
        code, doc, _ = run(capsys, "einstein", "--catalog", "su2",
                           "--classify")
        doc["outputs"]["einstein_points"][2]["mu"]["value"] = 0.5
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, vdoc, _ = run(capsys, "verify", str(path))
        assert code == 1 and vdoc["outputs"]["first_difference"] == {
            "path": "outputs.einstein_points[2].mu.value",
            "document": 0.5, "rerun": -2.0 / 3.0}

    def test_document_without_outputs_is_a_mismatch(self, capsys, tmp_path):
        code, doc, _ = run(capsys, "pauli", "--alpha", "1")
        rerun = doc.pop("outputs")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, vdoc, err = run(capsys, "verify", str(path))
        assert (code, err) == (1, "") and vdoc["outputs"] == {
            "match": False, "first_difference": {
                "path": "outputs", "rerun": rerun}}

    def test_stored_nan_is_a_mismatch_without_its_value(self, capsys,
                                                         tmp_path):
        code, doc, _ = run(capsys, "pauli", "--alpha", "1")
        doc["outputs"]["sigma1"][0][0][1] = math.nan
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, vdoc, err = run(capsys, "verify", str(path))
        assert (code, err) == (1, "") and vdoc["outputs"] == {
            "match": False, "first_difference": {
                "path": "outputs.sigma1[0][0][1]", "rerun": 1.0}}

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


    def test_number_beyond_float_range_is_a_mismatch(self, capsys, tmp_path):
        code, doc, _ = run(capsys, "pauli", "--alpha", "1")
        doc["outputs"]["sigma1"][0][0][0] = 10**400
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, vdoc, err = run(capsys, "verify", str(path))
        assert code == 1 and err == ""
        assert vdoc["outputs"]["match"] is False

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

    def test_seed_beyond_float_range_is_a_document(self, capsys, tmp_path):
        """An integer too large for a float is finite: it is printed as
        given, and verify of the document matches."""
        seed = str(10 ** 400)
        code, doc, err = run(capsys, "check", "--seed", seed, "--samples", "1")
        assert (code, err) == (0, "") and doc["inputs"]["seed"] == int(seed)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, doc, _ = run(capsys, "verify", str(path))
        assert code == 0 and doc["outputs"]["match"] is True

    def test_environment_does_not_change_tolerances(self, capsys, monkeypatch,
                                                    tmp_path):
        """check and verify compare at fixed constants, whatever the
        environment holds."""
        _, doc, _ = run(capsys, "pauli", "--alpha", "1")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("AQLAB_TOL", "1e-2")
        code, doc, _ = run(capsys, "check", "--seed", "1", "--samples", "5")
        assert code == 0 and doc["tolerances"] == {"bound": cli.CHECK_TOL}
        code, doc, _ = run(capsys, "verify", str(path))
        assert code == 0 and doc["tolerances"] == {"comparison": cli.VERIFY_TOL}


class TestNumbers:
    """No document holds NaN or an infinity; every bad number is one typed
    error line with nothing on stdout."""

    @pytest.mark.parametrize("argv,error", [
        (("einstein", "--catalog", "su2", "--lambda", "nan", "--mu", "0"),
         "Degenerate"),
        (("einstein", "--catalog", "su2", "--lambda", "0", "--mu", "inf"),
         "Degenerate"),
        (("einstein", "--catalog", "su2", "--lambda", "1e200", "--mu", "0"),
         "Overflow"),
        (("einstein", "--catalog", "su2", "--lambda", "1e150", "--mu", "1e150"),
         "AqlabError"),
        (("selfdual", "--alpha", "1", "--omega", "1e308,1e308,0,0,0,0"),
         "Overflow"),
        (("selfdual", "--alpha", "-1", "--omega", "nan,0,0,0,0,0"),
         "AqlabError"),
        (("selfdual", "--alpha", "-1", "--omega", "1,2,3"), "AqlabError"),
        (("spinbasis", "--alpha", "-1", "--j1", "nan,0,0", "--j2", "0,1,0",
          "--j3", "0,0,1"), "OrthonormalityViolated"),
        (("piaq", "--doubled", "su2", "--predicate", "isoclinic_geodesic",
          "--mu", "nan"), "InvalidMu"),
        (("piaq", "--doubled", "su2", "--predicate", "isoclinic_geodesic",
          "--mu=-inf"), "InvalidMu"),
        (("selfdual", "--alpha", "1", "--omega", "1,2,3,4,5,x"), "AqlabError"),
        (("spinbasis", "--alpha", "1", "--j1", "a,0,0", "--j2", "0,1,0",
          "--j3", "0,0,-1"), "AqlabError"),
    ])
    def test_bad_number_is_one_typed_error_line(self, capsys, argv, error):
        code, doc, err = run(capsys, *argv)
        assert code == 1 and doc is None
        assert one_typed_error(err) == error

    @pytest.mark.parametrize("omega", ["nan,0,0,0,0,0", "inf,0,0,0,0,0"])
    def test_non_finite_document_error_line(self, capsys, omega):
        code = main(["selfdual", "--alpha", "-1", "--omega", omega])
        out = capsys.readouterr()
        assert (code, out.out) == (1, "")
        assert out.err == ("error: AqlabError: result is not finite: "
                           "the document holds NaN or inf\n")

    def test_main_raises_numpy_warnings_itself(self, capsys, tmp_path):
        """Not only under this suite's filterwarnings setting: a plain
        process prints no warning lines before the error.  su(2) with its
        brackets at 1e155 overflows numpy's Jacobi check of the file."""
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"dim": 3, "brackets": [
            [1, 2, 3, 1e155], [2, 3, 1, 1e155], [3, 1, 2, 1e155]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, doc, err = run(capsys, "einstein", "--algebra", str(path),
                                 "--classify")
        assert code == 1 and doc is None
        assert one_typed_error(err) == "AqlabError" and "overflow" in err

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
    @example(["selfdual", "--alpha", "1", "--omega=0,0,0,0,0,0"])
    @example(["selfdual", "--alpha", "-1", "--omega=-0.0,-1,-0.0,0,1,-0.0"])
    def test_numeric_argv_is_strict_json_or_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            doc = json.loads(out.getvalue(), parse_constant=_no_constant)
            assert doc["inputs"]["argv"] == argv and err.getvalue() == ""
            assert negative_zeros(doc["outputs"]) == 0
        else:
            assert code == 1 and out.getvalue() == ""
            one_typed_error(err.getvalue())


class TestFaults:
    """A file that cannot be read, parsed or written is one typed error line
    naming it, with nothing on stdout."""

    @pytest.mark.parametrize("argv,error", [
        (("einstein", "--algebra", "{missing}", "--classify"), "InvalidModel"),
        (("piaq", "--model", "{missing}", "--predicate", "integrable"),
         "InvalidModel"),
        (("verify", "{missing}"), "InvalidModel"),
        (("verify", "{text}"), "InvalidModel"),
        (("verify", "{binary}"), "InvalidModel"),
        (("verify", "{folder}"), "InvalidModel"),
        (("einstein", "--catalog", "su2", "--sweep", "0.25", "--csv",
          "{folder}"), "AqlabError"),
        # nested too deep for json to parse
        (("einstein", "--algebra", "{deep}", "--classify"), "InvalidModel"),
        (("piaq", "--model", "{deep}", "--predicate", "integrable"),
         "InvalidModel"),
        (("verify", "{deep}"), "InvalidModel"),
    ])
    def test_one_typed_error_line(self, capsys, tmp_path, argv, error):
        paths = {"missing": tmp_path / "nope.json", "text": tmp_path / "t.json",
                 "binary": tmp_path / "b.json", "deep": tmp_path / "d.json",
                 "folder": tmp_path}
        paths["text"].write_text("not json")
        paths["binary"].write_bytes(b"\xff\xfe{")
        paths["deep"].write_text("[" * 100000)
        argv = [a.format(**paths) for a in argv]
        code, doc, err = run(capsys, *argv)
        assert code == 1 and doc is None
        assert one_typed_error(err) == error
        path = next(str(v) for v in paths.values() if str(v) in argv)
        assert f" {path}: " in err


class TestFileFuzz:
    """Any field of a valid ``--algebra`` or ``--model`` document replaced by
    any JSON value (nested, huge, NaN or Infinity, of the wrong type, or
    nested too deep to parse): the run is one document and exit 0, or one
    typed error line, exit 1 and nothing on stdout."""

    HOLE = "\x00hole"
    DEEP = "[" * 100000 + "]" * 100000
    VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=4)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([BIG, -BIG, 1e308, 1e-308, 5e-324, -0.0, 0, 1, 3]),
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=3), inner,
                                         max_size=3)),
        max_leaves=12)
    PREDICATES = {"integrable": (), "semiholonomic": (), "three_web": (),
                  "involutive": ("--operator", "J", "--eigenvalue", "1"),
                  "isoclinic_geodesic": ("--mu", "0.5")}
    DOCUMENTS = {"algebra": SU2_FILE, "model": doubled_file(la.su2())}

    @staticmethod
    def fields(value, path=()):
        """The path of every field of a JSON document, the document's own
        path () first."""
        yield path
        items = (value.items() if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, list) else ())
        for key, item in items:
            yield from TestFileFuzz.fields(item, (*path, key))

    @st.composite
    def cases(draw):
        """(document kind, path of the replaced field, the JSON text that
        replaces it, the predicate a model is asked)."""
        kind = draw(st.sampled_from(sorted(TestFileFuzz.DOCUMENTS)))
        doc = TestFileFuzz.DOCUMENTS[kind]
        path = draw(st.sampled_from(list(TestFileFuzz.fields(doc))))
        text = draw(TestFileFuzz.VALUES.map(json.dumps)
                    | st.just(TestFileFuzz.DEEP))
        return kind, path, text, draw(st.sampled_from(
            sorted(TestFileFuzz.PREDICATES)))

    def document(self, kind, path, text) -> str:
        """The document of ``kind`` as JSON, its field at ``path`` written as
        ``text``."""
        if not path:
            return text
        doc = json.loads(json.dumps(self.DOCUMENTS[kind]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = self.HOLE
        return json.dumps(doc).replace(json.dumps(self.HOLE), text)

    @settings(max_examples=150, deadline=None)
    @given(cases())
    @example(("algebra", ("dim",), "1" + "0" * 400, "integrable"))
    @example(("algebra", ("brackets", 1, 3), "1" + "0" * 400, "integrable"))
    @example(("model", ("I", 0, 0), "-1" + "0" * 400, "integrable"))
    @example(("model", ("dim",), "1" + "0" * 400, "integrable"))
    @example(("algebra", ("brackets",), DEEP, "integrable"))
    @example(("model", (), DEEP, "semiholonomic"))
    def test_is_one_document_or_one_typed_error_line(self, case):
        kind, path, text, predicate = case
        with tempfile.TemporaryDirectory() as folder:
            file = os.path.join(folder, "input.json")
            with open(file, "w") as fh:
                fh.write(self.document(kind, path, text))
            argv = (["einstein", "--algebra", file, "--classify"]
                    if kind == "algebra" else
                    ["piaq", "--model", file, "--predicate", predicate,
                     *self.PREDICATES[predicate]])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_no_constant)
            assert err.getvalue() == ""
        else:
            assert code == 1 and out.getvalue() == ""
            one_typed_error(err.getvalue())


class TestLazyStartup:
    """Each subcommand imports only the layers it runs, and ``fractions``
    only where it prints an exact value (selfdual and einstein)."""

    PROBE = """if True:
        import contextlib, io, json, sys
        from aqlab.cli import main
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        print(json.dumps(sorted(m for m in sys.modules
                                if m in ("numpy", "fractions")
                                or m.startswith("aqlab"))))
    """

    @staticmethod
    def fresh(code: str, *args: str) -> str:
        """Stdout of ``code`` run in a new interpreter that imports this aqlab."""
        proc = subprocess.run([sys.executable, "-c", code, *args],
                              env=child_env(), capture_output=True, text=True)
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
         {"fourdim", "scalars", "fractions"}),
        (("einstein", "--catalog", "su2", "--lambda", "0", "--mu", "-0.5"),
         {"family", "scalars", "fractions"}),
        (("piaq", "--doubled", "su2", "--predicate", "three_web"),
         {"numpy", "liealg", "tensors", "scalars", "piaq"}),
        (("check", "--seed", "1", "--samples", "2"),
         {"numpy", "quat", "scalars", "liealg", "tensors", "family", "gxg"}),
    ])
    def test_subcommand_loads_only_its_layers(self, argv, layers):
        want = {m if m in ("numpy", "fractions") else f"aqlab.{m}"
                for m in layers}
        assert self.loaded(argv) == want

    @pytest.mark.parametrize("argv,layers", [
        (("einstein", "--algebra", "{algebra}", "--classify"),
         {"numpy", "liealg", "tensors", "scalars", "family", "fractions"}),
        (("piaq", "--model", "{model}", "--predicate", "integrable"),
         {"numpy", "liealg", "tensors", "scalars", "piaq"}),
    ])
    def test_file_subcommand_loads_only_its_layers(self, tmp_path, argv,
                                                   layers):
        """A model file is judged by liealg and piaq alone: an algebra file
        loads no piaq or gxg, a model file no gxg or family."""
        files = {"algebra": SU2_FILE, "model": doubled_file(la.su2())}
        for name, data in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        argv = [a.format(**{k: str(tmp_path / f"{k}.json") for k in files})
                for a in argv]
        want = {m if m in ("numpy", "fractions") else f"aqlab.{m}"
                for m in layers}
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

    def test_selfdual_and_its_verify_never_load_numpy(self, capsys,
                                                      tmp_path):
        argv = ("selfdual", "--alpha", "-1", "--omega", "1,2,3,4,5,6")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(run(capsys, *argv)[1]))
        loaded = self.loaded(argv, ("verify", str(path)))
        assert loaded == {"aqlab.fourdim", "aqlab.scalars", "fractions"}

    def test_catalog_einstein_and_its_verify_never_load_numpy(
            self, capsys, tmp_path):
        """The six numpy-free einstein processes of the benchmark's cli-mix:
        a point, an off-point, three classifications and a verify."""
        classify = ("einstein", "--catalog", "so4", "--classify")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(run(capsys, *classify)[1]))
        loaded = self.loaded(
            ("einstein", "--catalog", "su2", "--lambda", "0", "--mu=-0.5"),
            ("einstein", "--catalog", "sl2r", "--lambda=-0.5762015812938446",
             "--mu=0.18523463330625067"),
            ("einstein", "--catalog", "su2", "--classify"),
            ("einstein", "--catalog", "sl2r", "--classify"),
            classify, ("verify", str(path)))
        assert loaded == {"aqlab.family", "aqlab.scalars", "fractions"}

    def stdlib_loaded(self, *argvs) -> set:
        """Which of ``dataclasses`` and ``inspect`` the argvs load."""
        out = self.fresh("""if True:
            import contextlib, io, json, sys
            from aqlab.cli import main
            for argv in json.loads(sys.argv[1]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0, argv
            print(json.dumps([m for m in ("dataclasses", "inspect")
                              if m in sys.modules]))
        """, json.dumps(argvs))
        return set(json.loads(out))

    def test_no_subcommand_loads_dataclasses(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(run(capsys, "pauli", "--alpha", "1")[1]))
        assert "dataclasses" not in self.stdlib_loaded(
            ("pauli", "--alpha", "-1"),
            ("spinbasis", "--alpha", "1", "--j1", "1,0,0", "--j2", "0,1,0",
             "--j3", "0,0,-1"),
            ("selfdual", "--alpha", "1", "--omega", "1,2,3,4,5,6"),
            ("einstein", "--catalog", "su2", "--classify"),
            ("einstein", "--catalog", "su2", "--sweep", "0.05"),
            ("piaq", "--doubled", "su2", "--predicate", "three_web"),
            ("check", "--seed", "1", "--samples", "2"),
            ("verify", str(path)))

    def test_numpy_free_commands_and_their_verify_load_no_inspect(
            self, capsys, tmp_path):
        argvs = (("pauli", "--alpha", "1"),
                 ("spinbasis", "--alpha", "1", "--j1", "1,0,0", "--j2",
                  "0,1,0", "--j3", "0,0,-1"),
                 ("selfdual", "--alpha", "-1", "--omega", "1,2,3,4,5,6"))
        verifies = []
        for k, argv in enumerate(argvs):
            path = tmp_path / f"doc{k}.json"
            path.write_text(json.dumps(run(capsys, *argv)[1]))
            verifies.append(("verify", str(path)))
        assert self.stdlib_loaded(*argvs, *verifies) == set()

    def test_one_parser_per_process(self, capsys, tmp_path):
        """Three ``main`` calls and a ``verify``, which parses its stored
        argv again, build the top-level parser once."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(run(capsys, "pauli", "--alpha", "1")[1]))
        argvs = [["pauli", "--alpha", "1"], ["pauli", "--alpha", "-1"],
                 ["selfdual", "--alpha", "1", "--omega", "1,2,3,4,5,6"],
                 ["verify", str(path)]]
        out = self.fresh("""if True:
            import argparse, contextlib, io, json, sys
            built, init = [], argparse.ArgumentParser.__init__
            def counted(parser, *args, **kwargs):
                init(parser, *args, **kwargs)
                built.append(parser.prog)
            argparse.ArgumentParser.__init__ = counted
            from aqlab.cli import main
            for argv in json.loads(sys.argv[1]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0, argv
            print(built.count("aqlab"))
        """, json.dumps(argvs))
        assert out.strip() == "1"

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

    def test_catalog_dims_match_the_layers(self):
        assert cli.CATALOG_DIMS == {name: make().dim
                                    for name, make in la.CATALOG.items()}


class TestProcess:
    """``python -m aqlab.cli`` writes what in-process ``main`` writes, then
    ends the process at once; an unwritable stdout, for a document or for a
    help text, is one typed error."""

    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    @staticmethod
    def child(argv, stdout=subprocess.PIPE, **env):
        return subprocess.run([sys.executable, "-m", "aqlab.cli", *argv],
                              env={**child_env(), **env}, stdout=stdout,
                              stderr=subprocess.PIPE)

    @classmethod
    def env_without_threads(cls, **env) -> dict:
        """:func:`child_env` without the BLAS thread variables, then env."""
        return {**{k: v for k, v in child_env().items()
                   if k not in cls.BLAS_VARS}, **env}

    @pytest.mark.parametrize("env,want", [
        ({}, "1"), ({"OMP_NUM_THREADS": "2"}, "None"),
        ({"GOTO_NUM_THREADS": "2"}, "None"), ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
    ], ids=["default", "omp", "goto", "kept"])
    def test_console_entry_gives_blas_one_thread(self, env, want):
        """``run`` sets one OpenBLAS thread before ``main`` unless the user
        chose a count; ``main`` is stubbed to print what it sees."""
        code = ("import os, aqlab.cli as cli\n"
                "cli.main = lambda: print(os.environ.get("
                "'OPENBLAS_NUM_THREADS'), flush=True) or 0\n"
                "cli.run()\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=self.env_without_threads(**env),
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, want + "\n"), proc.stderr

    def test_in_process_main_keeps_blas_defaults(self, capsys, monkeypatch):
        for name in self.BLAS_VARS:
            monkeypatch.delenv(name, raising=False)
        assert main(["pauli", "--alpha", "1"]) == 0
        assert not any(name in os.environ for name in self.BLAS_VARS)

    def test_thread_count_changes_no_byte(self, tmp_path):
        """A dim-32 model's curvature slabs and the classification of a
        doubled dim-16 algebra are GEMMs; one BLAS thread (the default) and
        two write the same bytes."""
        base = la.direct_sum(so_algebra(5), so_algebra(4))
        algebra, model = tmp_path / "algebra.json", tmp_path / "model.json"
        algebra.write_text(json.dumps(
            {"dim": base.dim, "brackets": bracket_records(base.c)}))
        model.write_text(json.dumps(doubled_file(base)))
        for dim, argv in (
                (32, ("piaq", "--model", str(model), "--predicate", "integrable")),
                (16, ("einstein", "--algebra", str(algebra), "--classify"))):
            outs = []
            for env in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
                proc = subprocess.run(
                    [sys.executable, "-m", "aqlab.cli", *argv],
                    env=self.env_without_threads(**env), capture_output=True)
                assert proc.returncode == 0, proc.stderr
                outs.append(proc.stdout)
            assert json.loads(outs[0])["inputs"]["dim"] == dim
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv,status", [
        (("pauli", "--alpha", "1"), 0),
        (("selfdual", "--alpha", "1", "--omega", "1,2,3,4,5,6"), 0),
        (("einstein", "--catalog", "su2", "--classify"), 0),
        (("verify", "{tampered}"), 1),
        (("selfdual", "--alpha", "1", "--omega", "1e308,1e308,0,0,0,0"), 1),
        (("pauli", "--alpha", "0"), 2),
    ], ids=["pauli", "selfdual", "classify", "verify_mismatch", "bad_number",
            "usage"])
    def test_same_bytes_and_status_as_main(self, capsys, tmp_path, argv,
                                           status):
        _, doc, _ = run(capsys, "pauli", "--alpha", "1")
        doc["outputs"]["sigma1"][0][1][0] = 2.0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        argv = [a.format(tampered=tampered) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        want = capsys.readouterr().out.encode()
        proc = self.child(argv)
        assert code == status
        assert (proc.returncode, proc.stdout) == (code, want), proc.stderr

    @pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
    @pytest.mark.parametrize("argv", [
        ("pauli", "--alpha", "1"),
        ("selfdual", "--alpha", "1", "--omega", "1,2,3,4,5,6"),
        ("pauli", "--help"),
        ("--help",),
    ], ids=["pauli", "selfdual", "pauli_help", "help"])
    def test_unwritable_stdout_is_one_typed_error(self, argv, sink):
        """With stdout buffered (the write fails at the flush) and
        unbuffered (it fails at the write itself)."""
        if sink == "closed pipe":
            read_end, out = os.pipe()
            os.close(read_end)
        elif os.path.exists(sink):
            out = os.open(sink, os.O_WRONLY)
        else:
            pytest.skip(f"needs {sink}")
        try:
            procs = [self.child(argv, stdout=out, PYTHONUNBUFFERED=mode)
                     for mode in ("", "1")]
        finally:
            os.close(out)
        for proc in procs:
            assert proc.returncode == 1
            assert one_typed_error(proc.stderr.decode()) == "AqlabError"
