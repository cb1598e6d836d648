"""ladder: the tensor kernels over a dimension ladder, in process.

Each rung is a classical algebra from gen.LADDER in a seeded random basis.
A rung runs model build -> doubled -> classify_einstein, one off-point
MetricFamily through its oracle pairs and Hermitian checks, and the doubled
model as a twistor pair through all five predicates.  Fresh objects per
rung, so no cached tensor survives from one pass to the next.

A timed pass climbs the ladder up to so(6) (doubled dimension 30), about
4 s on a 2-CPU x86-64 VM, so a run holds many passes.  The top rung,
so(7), takes 9-13 s on its own; it runs once per traced run, after the
first traced pass, and gives ``ladder_top_s`` and its per-kernel spans
there.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

import gen
import oracles as orc
from common import layer_of, median
from aqlab import liealg as la
from aqlab import piaq as pq
from aqlab.gxg import MetricFamily, classify_einstein

# Verdicts on every doubled model (alpha = +1, bracket -[X, Y] as torsion):
# I splits it into two ideals and J swaps two copies of one Lie algebra, so
# it is semiholonomic and a three-web; J is an automorphism (involutive for
# eigenvalue +1); J(X*Y) = JX*JY on the I-eigenspace rules out every slope
# mu != 1; torsion is nonzero, so it is not integrable.
PREDICATES = (
    ("integrable", {}, False),
    ("semiholonomic", {}, True),
    ("three_web", {}, True),
    ("involutive", {"f_name": "J", "lam": "1"}, True),
    ("isoclinic_geodesic", {}, False),
)


class Ladder:
    name = "ladder"
    op_unit = "rung"

    def __init__(self):
        self.top_times: list[float] = []

    def setup(self, seed: int, workdir: str) -> list[dict]:
        """The timed rungs; the top rung is kept aside in ``self.top``."""
        rng = np.random.default_rng(seed)
        rungs = []
        for name, basis in gen.LADDER:
            c = gen.rebased(rng, gen.structure_constants(basis()))
            d = c.shape[0]
            lam, mu = gen.off_point(rng)
            rungs.append({
                "kind": name, "name": name, "c": c, "x": rng.normal(size=d),
                "lam": lam, "mu": mu, "xyz": rng.normal(size=(3, 2 * d)),
                "slope": float(rng.uniform(-0.9, 0.9)),
            })
        self.top = rungs.pop()
        return rungs

    def warmup_ops(self, ops):
        return ops[:1]

    def run_op(self, rung: dict, tr, book) -> str:
        r = rung["name"]
        c = rung["c"]
        d = c.shape[0]

        A = tr.call(f"liealg.model_build_ms.{r}", la.LieAlgebraModel, d, c, r)
        K = tr.call(f"liealg.killing_form_ms.{r}", la.killing_form, A)
        book.expect("liealg", orc.close(orc.trace_form(c), K), f"{r} trace form")
        x = rung["x"]
        book.expect("liealg", orc.close(-x, tr.call(
            f"liealg.lemma2_ms.{r}", la.lemma2_check, A, x)),
            f"{r} contraction identity")
        dm = tr.call(f"liealg.doubled_ms.{r}", la.doubled, A)
        book.expect("liealg", orc.close(np.diag(dm.eps),
                                        orc.trace_form(dm.obase.c)),
                    f"{r} pseudo-orthonormal basis")

        pts = tr.call(f"gxg.classify_ms.{r}", classify_einstein, dm)
        book.expect("gxg", orc.einstein_points_ok(pts), f"{r} Einstein points")

        fam = MetricFamily(dm, rung["lam"], rung["mu"])
        nab = tr.call(f"gxg.nabla_ms.{r}", getattr, fam, "nabla")
        kos = tr.call(f"gxg.nabla_koszul_ms.{r}", getattr, fam, "nabla_koszul")
        book.expect("gxg", orc.close(kos, nab), f"{r} Levi-Civita vs Koszul")
        curv = tr.call(f"gxg.curvature_tensor_ms.{r}", getattr, fam,
                       "curvature_tensor")
        X, Y, Z = rung["xyz"]
        closed = tr.call(f"gxg.curvature_closed_ms.{r}", fam.curvature_closed,
                         X, Y, Z)
        book.expect("gxg", orc.close(
            np.einsum("a,b,c,abcl->l", X, Y, Z, curv), closed),
            f"{r} closed vs compositional curvature")
        ric_c = tr.call(f"gxg.ricci_matrix_closed_ms.{r}", fam.ricci_matrix,
                        True)
        ric_k = tr.call(f"gxg.ricci_matrix_contracted_ms.{r}",
                        fam.ricci_matrix, False)
        book.expect("gxg", orc.close(ric_k, ric_c), f"{r} closed vs contracted Ricci")
        eps = tr.call(f"gxg.einstein_check_ms.{r}", fam.einstein_check)
        book.expect("gxg", eps is None, f"{r} off-point is not Einstein")
        herm = tr.call(f"gxg.hermitian_checks_ms.{r}", fam.hermitian_class_checks)
        book.expect("gxg", herm == {"nearly_kahler": False,
                                    "quasi_kahler": False, "g1": True},
                    f"{r} off-point is G1 only")
        defect = tr.call(f"gxg.nearly_kahler_defect_ms.{r}",
                         fam.nearly_kahler_defect)
        book.expect("gxg", defect > 1e-6, f"{r} nearly Kaehler defect")

        M = tr.call(f"piaq.model_ms.{r}", dm.as_piaq)
        scale = 1.0 + np.abs(M.c).max()
        nab = tr.call(f"piaq.nabla_ms.{r}", getattr, M, "nabla")
        book.expect("piaq", np.abs(nab).max() <= 1e-9 * scale,
                    f"{r} canonical connection vanishes")
        tor = tr.call(f"piaq.torsion_ms.{r}", getattr, M, "torsion_tensor")
        book.expect("piaq", orc.close(-M.c, tor), f"{r} torsion is -[X, Y]")
        curv = tr.call(f"piaq.curvature_ms.{r}", getattr, M, "curvature_tensor")
        book.expect("piaq", np.abs(curv).max() <= 1e-9 * scale ** 2,
                    f"{r} canonical curvature vanishes")
        for pred, kw, want in PREDICATES:
            if pred == "isoclinic_geodesic":
                kw = {"mu": rung["slope"]}
            rep = tr.call(f"piaq.predicate_ms.{r}.{pred}", pq.predicate_report,
                          M, pred, **kw)
            book.expect("piaq", rep["verdict"] is want, f"{r} {pred}")
        return r

    def probe(self, ops, tr, book) -> None:
        """The top rung, once per run, on the first traced pass."""
        if self.top_times:
            return
        t0 = perf_counter()
        with tr.root(f"bench.{self.op_unit}", -1):
            try:
                self.run_op(self.top, tr, book)
            except Exception as exc:  # a raise on valid input is a failure
                book.fail(layer_of(exc), f"{self.top['name']}: "
                                         f"{type(exc).__name__}: {exc}")
        self.top_times.append(perf_counter() - t0)

    def summary(self, op_times, by_kind, pass_times, book) -> dict:
        return {"ladder_pass_s": (median(pass_times), "s", len(pass_times))}

    def report(self, ops, tr, book) -> dict:
        """The top rung's time, and the computed (not measured) size of
        the rank-4 curvature tensor of every rung."""
        out = {f"gxg.curvature_bytes.{o['name']}":
               (8.0 * (2 * o["c"].shape[0]) ** 4, "bytes(computed)", 1)
               for o in [*ops, self.top]}
        out["ladder_top_s"] = (median(self.top_times), "s",
                               len(self.top_times))
        return out
