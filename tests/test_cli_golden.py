"""CLI output, byte for byte, against a committed snapshot.

``cli_golden.json`` holds, for every argv in ``ARGVS``, the exit status
and stdout of ``main`` (and the CSV text the one ``--csv`` call writes).
The argvs are every file-free argv of ``test_cli.py`` and the catalog and
``--doubled`` argvs of the benchmark's cli-mix workload at seed 1.  Stderr
is left out: argparse and numpy word their messages differently from
version to version.  The rows of commands that load no numpy (``pauli``,
``spinbasis``, ``selfdual`` and ``einstein --catalog`` outside
``--sweep``) compare byte for byte under every numpy, and a test pins that
they load none.  The residuals that ``check`` and ``piaq`` print sit at
rounding level, so their last bits belong to one numpy and BLAS build: the
snapshot records the numpy version it was made with, and under another one
the other rows skip the byte comparison.  Every row, under every numpy, is
also compared as ``verify`` compares documents: the exit status, argv,
every key, the CSV header and ``points_scanned`` exactly, and the outputs
and the CSV values through ``cli._compare`` at ``VERIFY_TOL``.  A change
that means to move an output regenerates the snapshot with

    PYTHONPATH=src python tests/test_cli_golden.py

and says which rows moved.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from aqlab.cli import VERIFY_TOL, _compare, main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
CSV = "sweep.csv"

_SPLIT_TRIPLE = ("--j1=0.8591289238196639,0.5285424951686359,0.13213507082762121",
                 "--j2=-0.5153798001978431,0.924349182895916,0.346464645198202",
                 "--j3=-0.060982343309368206,0.3657575441729601,1.066535244291035")
_CLASSICAL_TRIPLE = (
    "--j1=-0.034895039488881105,-0.9005873222144442,-0.43327221383985276",
    "--j2=0.9465158451972487,0.10936643407808345,-0.3035568116310087",
    "--j3=0.32076485313950637,-0.4206916426120938,0.8486038244238182")
_UNIT_TRIPLE = ("--j1=1.0,0.0,0.0", "--j2=0.0,1.0,0.0", "--j3=0.0,0.0,1.0")

ARGVS = [
    # test_cli.py
    ("pauli", "--alpha", "-1"),
    ("pauli", "--alpha", "1"),
    ("pauli", "--alpha", "0"),
    ("spinbasis", "--alpha", "-1", "--j1", "1,0,0", "--j2", "0,1,0",
     "--j3", "0,0,1"),
    ("spinbasis", "--alpha", "1", "--j1", "1,0,0", "--j2", "0,1,0",
     "--j3", "0,0,-1"),
    ("spinbasis", "--alpha", "-1", "--j1", "1,0,0", "--j2", "1,0,0",
     "--j3", "0,0,1"),
    ("spinbasis", "--alpha", "-1", "--j1", "nan,0,0", "--j2", "0,1,0",
     "--j3", "0,0,1"),
    ("selfdual", "--alpha", "-1", "--omega", "1,0,0,0,0,0"),
    ("selfdual", "--alpha", "1", "--omega", "1,2,3,3,2,-1"),
    ("selfdual", "--alpha", "1", "--omega", "1,2,3,4,5,6"),
    ("selfdual", "--alpha", "1", "--omega=0,0,0,0,0,0"),
    ("selfdual", "--alpha", "-1", "--omega=-0.0,-1,-0.0,0,1,-0.0"),
    ("selfdual", "--alpha", "1", "--omega", "1e308,1e308,0,0,0,0"),
    ("selfdual", "--alpha", "-1", "--omega", "nan,0,0,0,0,0"),
    ("selfdual", "--alpha", "-1", "--omega", "1,2,3"),
    ("einstein", "--catalog", "su2", "--lambda", "0", "--mu", "-0.5"),
    ("einstein", "--catalog", "su2", "--lambda", "0.2", "--mu", "0.3"),
    ("einstein", "--catalog", "su2", "--lambda", "0.6", "--mu", "0.8"),
    ("einstein", "--catalog", "su2", "--lambda", "0", "--mu", "0"),
    ("einstein", "--catalog", "su2", "--lambda", "nan", "--mu", "0"),
    ("einstein", "--catalog", "su2", "--lambda", "0", "--mu", "inf"),
    ("einstein", "--catalog", "su2", "--lambda", "1e200", "--mu", "0"),
    ("einstein", "--catalog", "su2", "--lambda", "1e150", "--mu", "1e150"),
    ("einstein", "--catalog", "su2", "--classify"),
    ("einstein", "--catalog", "sl2r", "--classify"),
    ("einstein", "--catalog", "su2", "--sweep", "0.2", "--csv", CSV),
    ("einstein", "--catalog", "su2", "--sweep", "0.25"),
    ("einstein", "--catalog", "su2", "--sweep", "0.05"),
    *(("einstein", "--catalog", "su2", "--sweep", res)
      for res in ("0", "-0.1", "nan", "inf", "1e-4")),
    ("einstein", "--catalog", "su2"),
    ("piaq", "--doubled", "su2", "--predicate", "three_web"),
    ("piaq", "--doubled", "su2", "--predicate", "integrable"),
    ("piaq", "--doubled", "su2", "--predicate", "semiholonomic"),
    ("piaq", "--doubled", "su2", "--predicate", "involutive",
     "--operator", "J", "--eigenvalue", "1"),
    ("piaq", "--doubled", "su2", "--predicate", "involutive",
     "--operator", "I", "--eigenvalue", "2i"),
    ("piaq", "--doubled", "su2", "--predicate", "isoclinic_geodesic",
     "--mu", "1"),
    ("piaq", "--doubled", "su2", "--predicate", "isoclinic_geodesic"),
    ("piaq", "--doubled", "su2", "--predicate", "isoclinic_geodesic",
     "--mu", "0.5"),
    ("piaq", "--doubled", "su2", "--predicate", "isoclinic_geodesic",
     "--mu", "nan"),
    ("piaq", "--doubled", "su2", "--predicate", "isoclinic_geodesic",
     "--mu=-inf"),
    ("check", "--samples", "0"),
    ("check", "--samples", "-5"),
    ("check", "--seed", "-1"),
    ("check", "--seed", "1", "--samples", "2"),
    ("check", "--seed", "1", "--samples", "5"),
    ("check", "--seed", "3", "--samples", "5"),
    ("check", "--seed", "7", "--samples", "10"),
    # the cli-mix workload, seed 1
    ("spinbasis", "--alpha", "1", *_UNIT_TRIPLE),
    ("spinbasis", "--alpha", "-1", *_UNIT_TRIPLE),
    ("spinbasis", "--alpha", "1", *_SPLIT_TRIPLE),
    ("spinbasis", "--alpha", "-1", *_CLASSICAL_TRIPLE),
    ("selfdual", "--alpha", "-1",
     "--omega=-0.7819084623568421,-0.2571922406188707,0.008142180518343508,"
     "-0.2756029052993704,1.2940638143982073,1.0067243153057943"),
    ("selfdual", "--alpha", "1",
     "--omega=-2.7111624789659685,-1.8890132459676727,-0.17477209205516195,"
     "-0.42219041157635356,0.2136429974986111,0.21732193102256359"),
    ("einstein", "--catalog", "su2", "--lambda", "0", "--mu=-0.5"),
    ("einstein", "--catalog", "sl2r", "--lambda=-0.5762015812938446",
     "--mu=0.18523463330625067"),
    ("einstein", "--catalog", "so4", "--classify"),
    ("einstein", "--catalog", "su2", "--sweep", "0.01"),
    ("piaq", "--doubled", "su2", "--predicate", "isoclinic_geodesic",
     "--mu=0.090572853061335"),
    ("piaq", "--doubled", "sl2r", "--predicate", "three_web"),
    ("check", "--seed", "1", "--samples", "20"),
]


def numpy_free(argv) -> bool:
    """Whether ``argv``'s command loads no numpy, so that its row compares
    under every numpy."""
    return argv[0] in ("pauli", "spinbasis", "selfdual") or (
        argv[:2] == ("einstein", "--catalog") and "--sweep" not in argv)


def record(argv, workdir) -> dict:
    """Exit status and stdout of ``main(argv)`` run in ``workdir``, with the
    text of the CSV file it writes there, if any."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        csv = pathlib.Path(CSV)
        row = {"argv": list(argv), "code": code, "stdout": out.getvalue()}
        if csv.exists():
            row["csv"] = csv.read_text()
            csv.unlink()
        return row
    finally:
        os.chdir(cwd)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_snapshot_covers_every_argv():
    assert [row["argv"] for row in _golden()["rows"]] == [list(a)
                                                         for a in ARGVS]


@pytest.mark.parametrize("n", range(len(ARGVS)),
                         ids=[" ".join(a)[:60] for a in ARGVS])
def test_output_is_byte_identical(tmp_path, n):
    golden = _golden()
    if golden["numpy"] != np.__version__ and not numpy_free(ARGVS[n]):
        pytest.skip(f"snapshot made with numpy {golden['numpy']}")
    assert record(ARGVS[n], tmp_path) == golden["rows"][n]


@pytest.mark.parametrize("n", range(len(ARGVS)),
                         ids=[" ".join(a)[:60] for a in ARGVS])
def test_output_matches_within_verify_tolerance(tmp_path, n):
    want, got = _golden()["rows"][n], record(ARGVS[n], tmp_path)
    assert ((got["code"], got["argv"], got.keys())
            == (want["code"], want["argv"], want.keys()))
    if "csv" in want:
        rows = [[line.split(",") for line in row["csv"].splitlines()]
                for row in (want, got)]
        assert rows[1][0] == rows[0][0]  # the header
        values = [[list(map(float, r)) for r in table[1:]] for table in rows]
        assert _compare(*values, VERIFY_TOL) is None
    if not want["stdout"]:
        assert got["stdout"] == ""
        return
    docs = [json.loads(row["stdout"]) for row in (want, got)]
    outputs = [doc.pop("outputs") for doc in docs]
    assert docs[1] == docs[0]  # command, inputs with argv, tolerances
    assert (outputs[1].get("points_scanned")
            == outputs[0].get("points_scanned"))
    assert _compare(*outputs, VERIFY_TOL) is None


def test_numpy_free_rows_load_no_numpy():
    """Every row that compares under any numpy runs, in a fresh
    interpreter, without loading it."""
    argvs = [list(a) for a in ARGVS if numpy_free(a)]
    assert {a[0] for a in argvs} == {"pauli", "spinbasis", "selfdual",
                                     "einstein"}
    code = """if True:
        import contextlib, io, json, sys
        from aqlab.cli import VERIFY_TOL, _compare, main
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    main(argv)
                except SystemExit:
                    pass
        print("numpy" in sys.modules)
    """
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        rows = [record(argv, tmp) for argv in ARGVS]
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "rows": rows},
                                 indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")
