"""small-calls: a seeded stream of tiny samples, in process.

Per-call Python and object overhead dominates here.  It is the half of
the ``kernels`` workload that runs scalars, quat, spinor and fourdim, and
it runs the gxg and piaq code at dimension 4 and 6, where fixed per-call
costs show.

Spin triples are drawn at pseudo-rotation scales 0.7 and 3.0, because the
spin basis's absolute Gram check depends on magnitude: at 3.0 it rejects
some valid split-signature triples (a known defect).  Those samples stay in
the stream and count as failures.
"""

from __future__ import annotations

import numpy as np

import gen
import oracles as orc
from common import median, percentile, tail
from aqlab import fourdim as fd
from aqlab import liealg as la
from aqlab import piaq as pq
from aqlab import quat as qt
from aqlab import scalars as sk
from aqlab import spinor as sp
from aqlab.errors import AqlabError, OrthonormalityViolated
from aqlab.gxg import MetricFamily, einstein_sweep

# Samples of each kind per pass (2000 in all); the sweep is rare because it
# is ~100x heavier than the rest.
MIX = (("scalars", 300), ("quat", 300), ("spin0.7", 200), ("spin3.0", 200),
       ("orbit4", 150), ("orbit8", 100), ("selfdual", 200), ("gxg", 200),
       ("piaq", 348), ("sweep", 2))
SWEEP_RES = 0.01
PIAQ_KINDS = ("abelian", "u2", "gl2")


def _predicates(alpha: int):
    """(name, keyword arguments) of the predicates run on 4-dim models."""
    out = [("integrable", {}), ("semiholonomic", {}),
           ("involutive", {"f_name": "I", "lam": "1" if alpha == 1 else "i"})]
    if alpha == 1:
        out.append(("three_web", {}))
    return out


def _scalar(rng, alpha):
    """(re, im) away from the zero divisors."""
    while True:
        re, im = rng.normal(size=2)
        if abs(re * re - alpha * im * im) > 1e-2:
            return float(re), float(im)


class SmallCalls:
    name = "small-calls"
    op_unit = "sample"

    def setup(self, seed: int, workdir: str) -> list[dict]:
        rng = np.random.default_rng(seed)
        su2 = gen.structure_constants(gen.su_basis(2))
        sl2r = gen.structure_constants(gen.sl_basis(2))
        bases = {k: gen.base_algebra_4(k) for k in PIAQ_KINDS}
        # Verdicts do not depend on the basis: the oracle for a conjugated
        # model is the verdict on the model it was conjugated from.
        self.expected = {}
        for kind in PIAQ_KINDS:
            for alpha in (-1, 1):
                M = pq.PiAQModel(4, bases[kind], *gen.standard_pair(4, alpha),
                                 alpha)
                for pred, kw in _predicates(alpha):
                    self.expected[kind, alpha, pred] = pq.predicate_report(
                        M, pred, **kw)["verdict"]
        # Discrete choices (signature, orientation, base algebra, predicate)
        # cycle through their values, so every seed runs the same mix; the
        # numbers and the order of the stream come from the seed.
        ops = []
        for kind, count in MIX:
            for k in range(count):
                ops.append(self._sample(rng, kind, k, su2, sl2r, bases))
        return [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def _sample(rng, kind: str, k: int, su2, sl2r, bases) -> dict:
        """The k-th sample of one kind."""
        alpha = (-1, 1)[k % 2]
        flip = (k // 2) % 2 == 1
        op = {"kind": kind, "alpha": alpha}
        if kind == "scalars":
            op["x"], op["y"] = _scalar(rng, alpha), _scalar(rng, alpha)
        elif kind == "quat":
            op["p"], op["q"] = rng.normal(size=(2, 4))
        elif kind.startswith("spin"):
            op.update(scale=kind[4:], reverse=flip, q=rng.normal(size=4),
                      triple=gen.spin_triple(rng, alpha, float(kind[4:]),
                                             flip))
        elif kind.startswith("orbit"):
            dim = int(kind[5:])
            I, J = gen.conjugated_pair(rng, dim, alpha)
            x = rng.normal(size=dim)
            # Half of the split samples lie in the kernel of the
            # isotropic 1 + I, where the orbit is 2-dimensional.
            kernel = alpha == 1 and flip
            if kernel:
                x = x - I @ x
            op.update(I=I, J=J, x=x, want=2 if kernel else 4)
        elif kind == "selfdual":
            op.update(omega=rng.normal(size=6), orientation=-1 if flip else 1)
        elif kind == "gxg":
            op["c"] = sl2r if flip else su2
            while True:
                lam, mu = rng.uniform(-0.85, 0.85, size=2)
                if lam * lam + mu * mu < 0.85 ** 2:
                    break
            op.update(lam=float(lam), mu=float(mu),
                      xyz=rng.normal(size=(3, 6)))
        elif kind == "piaq":
            base = PIAQ_KINDS[(k // 2) % len(PIAQ_KINDS)]
            c, I, J = gen.conjugated_model(
                rng, bases[base], *gen.standard_pair(4, alpha))
            preds = _predicates(alpha)
            pred, kw = preds[(k // (2 * len(PIAQ_KINDS))) % len(preds)]
            op.update(base=base, c=c, I=I, J=J, xy=rng.normal(size=(2, 4)),
                      pred=pred, kw=kw)
        return op

    def warmup_ops(self, ops):
        seen, out = set(), []
        for op in ops:
            if op["kind"] not in seen:
                seen.add(op["kind"])
                out.append(op)
        return out

    def run_op(self, op: dict, tr, book) -> None:
        getattr(self, "_" + op["kind"].rstrip("0123456789."))(op, tr, book)

    # -- sample kinds ------------------------------------------------------

    def _scalars(self, op, tr, book):
        a = op["alpha"]
        x = tr.call("scalars.make_us", sk.ScalarKA, *op["x"], a)
        y = tr.call("scalars.make_us", sk.ScalarKA, *op["y"], a)
        z = tr.call("scalars.mul_us", sk.mul, x, y)
        book.expect("scalars", orc.close(orc.scalar_mul(op["x"], op["y"], a),
                                         (z.re, z.im), 1e-12), "product")
        w = tr.call("scalars.inv_us", sk.inv, x)
        book.expect("scalars", orc.close(
            (1.0, 0.0), orc.scalar_mul(op["x"], (w.re, w.im), a), 1e-12),
            "inverse")

    def _quat(self, op, tr, book):
        a = op["alpha"]
        P = tr.call("quat.make_us", qt.from_coeffs, op["p"], a)
        Q = tr.call("quat.make_us", qt.from_coeffs, op["q"], a)
        PQ = tr.call("quat.qmul_us", qt.qmul, P, Q)
        book.expect("quat", orc.close(orc.quat_mul(op["p"], op["q"], a),
                                      PQ.coeffs(), 1e-12), "product table")
        SP = tr.call("quat.spin_matrix_us", qt.spin_matrix, P)
        SQ = tr.call("quat.spin_matrix_us", qt.spin_matrix, Q)
        rp, rq = orc.quat_spin_real(op["p"], a), orc.quat_spin_real(op["q"], a)
        book.expect("quat", orc.close(rp, orc.spin_real(orc.smat_entries(SP),
                                                        a), 1e-15),
                    "spin matrix")
        prod = tr.call("quat.smat_matmul_us", SP.__matmul__, SQ)
        book.expect("quat", orc.close(rp @ rq, orc.spin_real(
            orc.smat_entries(prod), a), 1e-12), "spin homomorphism")

    def _spin(self, op, tr, book):
        a, scale = op["alpha"], op["scale"]
        book.counts[f"spin.{scale}"] += 1
        js = [tr.call("quat.make_us", qt.from_coeffs, [0.0, *t], a)
              for t in op["triple"]]
        try:
            res = tr.call("spinor.spinbasis_us", sp.spinbasis, sp.IQBasis(*js))
        except AqlabError as exc:
            book.counts[f"spin_reject.{scale}"] += 1
            # The absolute Gram check rejects valid large-entry triples.
            known = isinstance(exc, OrthonormalityViolated)
            book.fail("spinor", f"{type(exc).__name__}: {exc}",
                      known=f"spinbasis Gram check rejects a valid triple at "
                            f"scale {scale}, alpha {a:+d}" if known else None)
            return
        entries = orc.smat_entries(res.matrix)
        book.expect("spinor", orc.spinbasis_ok(
            op["triple"], entries, res.sign, a, -1 if op["reverse"] else 1),
            f"spin basis conjugates to Pauli (scale {scale})")
        Q = tr.call("quat.make_us", qt.from_coeffs, op["q"], a)
        m = tr.call("spinor.matrix_in_spinbasis_us", sp.matrix_in_spinbasis,
                    Q, res)
        p = orc.spin_real(entries, a)
        pinv = np.linalg.inv(p)
        s = orc.quat_spin_real(op["q"], a)
        want = pinv @ s @ p
        size = np.abs(pinv).max() * np.abs(s).max() * np.abs(p).max()
        got = orc.spin_real(orc.smat_entries(m), a)
        book.expect("spinor", np.abs(got - want).max() <= 1e-9 * (1 + size),
                    "matrix in spin basis")

    def _orbit(self, op, tr, book):
        I, J, x = op["I"], op["J"], op["x"]
        d = tr.call("spinor.orbit_dimension_us", sp.orbit_dimension, I, J, x)
        rank = orc.svd_rank(np.column_stack([x, I @ x, J @ x, I @ (J @ x)]))
        book.expect("spinor", d == rank == op["want"], "orbit dimension")

    def _selfdual(self, op, tr, book):
        a = op["alpha"]
        g = tr.call("fourdim.make_us", fd.Metric4, a)
        w = tr.call("fourdim.make_us", fd.TwoForm4, tuple(op["omega"]))
        wp, wm = tr.call("fourdim.sd_decompose_us", fd.sd_decompose, g, w)
        book.expect("fourdim", orc.selfdual_split_ok(a, op["omega"], wp.comp,
                                                     wm.comp), "self-dual split")
        J = tr.call("fourdim.form_to_endo_us", fd.form_to_endo, g, wp)
        book.expect("fourdim", orc.endo_ok(a, wp.comp, J), "endomorphism")
        J1, J2, J3 = tr.call("fourdim.canonical_aq_basis_us",
                             fd.canonical_aq_basis, g, op["orientation"])
        book.expect("fourdim", orc.aq_triple_ok(a, J1, J2, J3),
                    "quaternion operator triple")

    def _gxg(self, op, tr, book):
        c = op["c"]
        A = tr.call("liealg.model_build_us", la.LieAlgebraModel, 3, c)
        dm = tr.call("liealg.doubled_us", la.doubled, A)
        fam = tr.call("gxg.family_us", MetricFamily, dm, op["lam"], op["mu"])
        X, Y, Z = op["xyz"]
        lc = tr.call("gxg.levi_civita_us", fam.levi_civita, X, Y)
        lk = tr.call("gxg.levi_civita_koszul_us", fam.levi_civita_koszul, X, Y)
        book.expect("gxg", orc.close(lk, lc), "Levi-Civita vs Koszul")
        cc = tr.call("gxg.curvature_closed_us", fam.curvature_closed, X, Y, Z)
        ct = tr.call("gxg.curvature_us", fam.curvature, X, Y, Z)
        book.expect("gxg", orc.close(ct, cc), "closed vs compositional curvature")
        rc = tr.call("gxg.ricci_closed_us", fam.ricci_closed, X)
        rk = tr.call("gxg.ricci_contracted_us", fam.ricci_contracted, X)
        book.expect("gxg", orc.close(rk, rc), "closed vs contracted Ricci")

    def _piaq(self, op, tr, book):
        a = op["alpha"]
        M = tr.call("piaq.model_us", pq.PiAQModel, 4, op["c"], op["I"], op["J"], a)
        X, Y = op["xy"]
        n8 = tr.call("piaq.connection_us", pq.canonical_connection, M, X, Y)
        ns = tr.call("piaq.connection_split_us", pq.canonical_connection_split,
                     M, X, Y)
        scale = 1.0 + np.abs(M.nabla).max() + np.abs(M.c).max()
        book.expect("piaq", np.abs(n8 - ns).max() <= 1e-10 * scale,
                    "eight-term vs projector connection")
        F = M.I
        nij = tr.call("piaq.nijenhuis_us", pq.nijenhuis, M, F, X, Y)
        S = M.torsion_tensor

        def tor(u, v):
            return np.einsum("a,b,abl->l", u, v, S)
        FX, FY = F @ X, F @ Y
        want = (-a * tor(X, Y) - tor(FX, FY) + F @ tor(FX, Y) + F @ tor(X, FY))
        book.expect("piaq", np.abs(nij - want).max()
                    <= 1e-10 * (1 + np.abs(want).max()), "Nijenhuis identity")
        rep = tr.call("piaq.predicate_us", pq.predicate_report, M, op["pred"],
                      **op["kw"])
        book.expect("piaq", rep["verdict"] == self.expected[
            op["base"], a, op["pred"]], f"{op['pred']} is basis independent")

    def _sweep(self, op, tr, book):
        out = tr.call("gxg.sweep_ms", einstein_sweep, SWEEP_RES)
        book.expect("gxg", orc.einstein_points_ok(out["einstein_points"]),
                    "sweep finds the four Einstein points")
        book.expect("gxg", out["lam"].size == orc.disc_grid_size(SWEEP_RES),
                    "sweep grid size")

    # -- metrics -----------------------------------------------------------

    def summary(self, op_times, by_kind, pass_times, book) -> dict:
        us = [1e6 * t for t in op_times]
        out = {"samples_per_s": (len(op_times) / sum(op_times), "1/s",
                                 len(op_times)),
               "sample_us.p50": (median(us), "us", len(us)),
               "sample_us.p99": (percentile(us, 99.0), "us", len(us))}
        top = tail(us)
        if top:
            out[f"sample_us.p{top[0]:g}"] = (top[1], "us", len(us))
        out.update(self.reject_fracs(book))
        return out

    def reject_fracs(self, book) -> dict:
        return {f"spinor.spinbasis_reject_frac.{s}":
                (book.counts[f"spin_reject.{s}"] / max(1, book.counts[f"spin.{s}"]),
                 "ratio", book.counts[f"spin.{s}"]) for s in ("0.7", "3.0")}

    def report(self, ops, tr, book) -> dict:
        return self.reject_fracs(book)
