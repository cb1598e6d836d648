"""cli-mix: sequential ``python -m aqlab.cli`` processes, spawn to exit.

This is how users meet the system, and interpreter and import start-up
dominate it: an import or start-up change shows here, a kernel change
should not.  The argv list is fixed per seed and covers every subcommand:
both Pauli signatures, spin bases of standard and random triples, self-dual
splits, einstein in all three modes on catalog algebras and on generated
``--algebra`` files, all five piaq predicates, verify on documents made
during set-up, and check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from time import perf_counter

import numpy as np

import gen
import oracles as orc
from common import SRC, median, tail
from aqlab import cli

PROBES = 3  # interpreter-floor and import probes per traced pass


def _spawn(args: list[str], workdir: str):
    """Run ``python args`` in ``workdir``; (seconds, exit code, stdout,
    child rusage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    with open(os.path.join(workdir, "child.out"), "w+b") as out, \
            open(os.path.join(workdir, "child.err"), "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=err, cwd=workdir, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        dt = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return dt, proc.returncode, out.read(), usage


def _in_process(argv: list[str]):
    """``aqlab.cli.main(argv)`` with stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(
            io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _outputs(doc):
    return doc.get("outputs", {}) if isinstance(doc, dict) else {}


def _einstein_rows_ok(rows) -> bool:
    return orc.einstein_points_ok(
        [(r["lambda"]["value"], r["mu"]["value"], r["epsilon"]["value"])
         for r in rows])


class CliMix:
    name = "cli-mix"
    op_unit = "call"

    def __init__(self):
        self.maxrss_kb: list[int] = []
        self.cpu_ms: list[float] = []

    # -- set-up ------------------------------------------------------------

    def setup(self, seed: int, workdir: str) -> list[dict]:
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        ops: list[dict] = []

        def add(argv, check, label=None):
            ops.append({"kind": argv[0], "label": label or " ".join(argv[:2]),
                        "argv": argv, "check": check})

        for alpha in (-1, 1):
            paulis = orc.pauli_entries(alpha)
            add(["pauli", "--alpha", str(alpha)],
                lambda o, p=paulis: all(
                    np.allclose(o[f"sigma{m + 1}"], p[m], atol=0, rtol=0)
                    for m in range(3)))
        for alpha in (-1, 1):
            for triple, label in ((np.eye(3), "standard"),
                                  (gen.spin_triple(rng, alpha, 0.7), "random")):
                add(self._spin_argv(alpha, triple), self._spin_check(alpha, triple),
                    f"spinbasis {label}")
        for alpha in (-1, 1):
            omega = rng.normal(size=6)
            add(["selfdual", "--alpha", str(alpha), f"--omega={gen.join_floats(omega)}"],
                lambda o, a=alpha, w=omega: (
                    orc.selfdual_split_ok(a, w, o["omega_plus"], o["omega_minus"])
                    and orc.endo_ok(a, o["omega_plus"], o["endomorphism"],
                                    o["lambda_sq"]["value"])))

        add(["einstein", "--catalog", "su2", "--lambda", "0", "--mu=-0.5"],
            lambda o: o["einstein"] is True
            and abs(o["epsilon"]["value"] - 5 / 18) <= 1e-9, "einstein point")
        lam, mu = gen.off_point(rng)
        add(["einstein", "--catalog", "sl2r", f"--lambda={lam!r}", f"--mu={mu!r}"],
            lambda o: o["einstein"] is False and o["epsilon"] is None,
            "einstein off-point")
        for name in ("su2", "sl2r", "so4"):
            add(["einstein", "--catalog", name, "--classify"],
                lambda o: _einstein_rows_ok(o["einstein_points"]),
                "einstein classify")
        add(["einstein", "--catalog", "su2", "--sweep", "0.01"],
            lambda o: _einstein_rows_ok(o["einstein_points"])
            and o["points_scanned"] == orc.disc_grid_size(0.01), "einstein sweep")
        files = {}
        for name, basis in (("so5", gen.so_basis(5)), ("sl3r", gen.sl_basis(3))):
            c = gen.rebased(rng, gen.structure_constants(basis))
            files[name] = self._write(f"{name}.json", {
                "dim": c.shape[0], "name": name,
                "brackets": gen.bracket_records(c)})
            add(["einstein", "--algebra", files[name], "--classify"],
                lambda o: _einstein_rows_ok(o["einstein_points"]),
                "einstein algebra-file")

        slope = float(rng.uniform(-0.9, 0.9))
        verdicts = (("integrable", [], False), ("semiholonomic", [], True),
                    ("three_web", [], True),
                    ("involutive", ["--operator", "J", "--eigenvalue", "1"], True),
                    ("isoclinic_geodesic", [f"--mu={slope!r}"], False))
        for pred, extra, want in verdicts:
            add(["piaq", "--doubled", "su2", "--predicate", pred, *extra],
                lambda o, w=want: o["verdict"] is w, f"piaq doubled {pred}")
        # A doubled sl(2,R) in a random basis: verdicts are basis independent.
        c2, I, J = gen.doubled_structure(gen.structure_constants(gen.sl_basis(2)))
        c2, I, J = gen.conjugated_model(rng, c2, I, J)
        model = self._write("model.json", {
            "dim": 6, "alpha": 1, "name": "doubled-sl2r-rebased",
            "brackets": gen.bracket_records(c2), "I": I.tolist(),
            "J": J.tolist()})
        for pred, extra, want in verdicts[:3]:
            add(["piaq", "--model", model, "--predicate", pred, *extra],
                lambda o, w=want: o["verdict"] is w, f"piaq model {pred}")

        for argv in (["einstein", "--catalog", "so4", "--classify"],
                     ["einstein", "--algebra", files["so5"], "--classify"],
                     ["piaq", "--doubled", "sl2r", "--predicate", "three_web"],
                     ["piaq", "--model", model, "--predicate", "semiholonomic"],
                     self._spin_argv(1, gen.spin_triple(rng, 1, 0.7)),
                     ["selfdual", "--alpha", "-1",
                      f"--omega={gen.join_floats(rng.normal(size=6))}"]):
            code, text = _in_process(argv)
            if code != 0:
                raise RuntimeError(f"set-up document {argv} exited {code}")
            doc = self._write(f"doc{len(ops)}.json", json.loads(text))
            add(["verify", doc], lambda o: o["match"] is True,
                f"verify {argv[0]}")
        add(["check", "--seed", str(int(rng.integers(1 << 31))), "--samples",
             "20"], lambda o: o["passed"] is True, "check")

        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _write(self, name: str, data) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    @staticmethod
    def _spin_argv(alpha: int, triple) -> list[str]:
        return ["spinbasis", "--alpha", str(alpha),
                *(f"--j{m + 1}={gen.join_floats(triple[m])}" for m in range(3))]

    @staticmethod
    def _spin_check(alpha: int, triple):
        def check(o):
            return orc.spinbasis_ok(np.asarray(triple, float),
                                    o["change_matrix"], o["orientation_sign"],
                                    alpha, 1)
        return check

    # -- measurement -------------------------------------------------------

    def warmup_ops(self, ops):
        return ops[:1]

    def _verdict(self, op, code: int, text, book, layer="cli") -> None:
        if code != 0:
            book.fail(layer, f"{op['label']}: exit status {code}")
            return
        label = op["label"]
        try:
            ok = bool(op["check"](_outputs(json.loads(text))))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            ok = False
            label += f" ({type(exc).__name__}: {exc})"
        book.expect(layer, ok, label)

    def run_op(self, op: dict, tr, book) -> None:
        dt, code, out, usage = _spawn(["-m", "aqlab.cli", *op["argv"]],
                                      self.workdir)
        end = perf_counter()
        tr.record(f"cli.process_ms.{op['kind']}", end - dt, end, code != 0)
        self.maxrss_kb.append(usage.ru_maxrss)
        self.cpu_ms.append(1e3 * (usage.ru_utime + usage.ru_stime))
        self._verdict(op, code, out, book)

    def probe(self, ops, tr, book) -> None:
        """Start-up split, on traced passes only: interpreter plus numpy,
        the aqlab import, and each call's compute in process."""
        for _ in range(PROBES):
            for name, code in (("cli.interp_numpy_ms", "import numpy"),
                               ("cli.import_total_ms", "import aqlab.cli")):
                dt, status, _, _ = _spawn(["-c", code], self.workdir)
                end = perf_counter()
                tr.record(name, end - dt, end, status != 0)
        for op in ops:
            t0 = perf_counter()
            code, text = _in_process(op["argv"])
            tr.record(f"cli.compute_ms.{op['kind']}", t0, perf_counter(),
                      code != 0)
            self._verdict(op, code, text, book)

    # -- metrics -----------------------------------------------------------

    def peak_rss_mb(self) -> float:
        """Largest child process, from its rusage."""
        return max(self.maxrss_kb) / 1024.0

    def summary(self, op_times, by_kind, pass_times, book) -> dict:
        ms = [1e3 * t for t in op_times]
        out = {"cli_ms.p50": (median(ms), "ms", len(ms)),
               "cli_mix_pass_s": (median(pass_times), "s", len(pass_times))}
        top = tail(ms)
        if top:
            out[f"cli_ms.p{top[0]:g}"] = (top[1], "ms", len(ms))
        for kind, times in sorted(by_kind.items()):
            out[f"cli_ms.p50.{kind}"] = (1e3 * median(times), "ms", len(times))
        return out

    def report(self, ops, tr, book) -> dict:
        spans = tr.by_name()
        floor = median(spans["cli.interp_numpy_ms"])
        total = median(spans["cli.import_total_ms"])
        return {
            "cli.interp_numpy_ms": (1e3 * floor, "ms", PROBES),
            "cli.import_aqlab_ms": (1e3 * (total - floor), "ms", PROBES),
            "cli.child_cpu_ms": (median(self.cpu_ms), "ms", len(self.cpu_ms)),
            "cli.child_maxrss_mb": (self.peak_rss_mb(), "MB",
                                    len(self.maxrss_kb)),
        }
