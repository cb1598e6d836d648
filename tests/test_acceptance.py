"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Tolerances are pinned in the assertions below.
"""

import time

import numpy as np
import pytest

from aqlab import fourdim as fd
from aqlab import liealg as la
from aqlab import piaq as pq
from aqlab import quat as qt
from aqlab import scalars as sk
from aqlab import spinor as sp
from aqlab.gxg import MetricFamily, classify_einstein, einstein_sweep
from aqlab.tensors import apply
from conftest import (hodge_star_matrix, random_aq_pair, random_piaq_model,
                      random_pseudo_rotation, smat_close)

EXACT_POINTS = [(0.0, 0.0, 1.0 / 4.0), (0.0, -0.5, 5.0 / 18.0),
                (1.0 / 3.0, -2.0 / 3.0, 3.0 / 8.0),
                (-1.0 / 3.0, -2.0 / 3.0, 3.0 / 8.0)]


def report(num: int, ok: bool, text: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def _classification_criterion(num, base_name):
    t0 = time.perf_counter()
    model = la.doubled(la.CATALOG[base_name]())
    points = classify_einstein(model)
    ok = len(points) == 4
    for (gl, gm, ge), (wl, wm, we) in zip(points, EXACT_POINTS):
        ok = ok and abs(gl - wl) < 1e-10 and abs(gm - wm) < 1e-10
        ok = ok and abs(ge - we) < 1e-10

    grid = einstein_sweep(res=0.01)
    defect = grid["off"] + grid["aniso"]
    near_known = np.zeros(grid["lam"].shape, dtype=bool)
    for wl, wm, _ in EXACT_POINTS:
        near_known |= np.hypot(grid["lam"] - wl, grid["mu"] - wm) < 0.006
    ok = ok and bool(defect[~near_known].min() > 1e-6)
    refined = grid["einstein_points"]
    ok = ok and len(refined) == 4
    for (gl, gm, ge), (wl, wm, we) in zip(refined, EXACT_POINTS):
        ok = ok and np.hypot(gl - wl, gm - wm) < 1e-6 and abs(ge - we) < 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(num, ok,
           f"Einstein classification on doubled {base_name}: four points with "
           f"constants (1/4, 5/18, 3/8, 3/8) at 1e-10; 0.01 disc sweep of "
           f"{grid['lam'].size} points finds no fifth (defect floor "
           f"{defect[~near_known].min():.2e}); {elapsed:.2f}s")


def test_criterion_01_einstein_classification_su2():
    _classification_criterion(1, "su2")


def test_criterion_02_einstein_classification_sl2r():
    _classification_criterion(2, "sl2r")


def test_criterion_03_oracle_equivalences():
    rng = np.random.default_rng(3)
    model = la.doubled(la.su2())
    worst = {"connection": 0.0, "curvature": 0.0, "ricci": 0.0}
    for _ in range(200):
        while True:
            lam, mu = rng.uniform(-0.95, 0.95, size=2)
            if lam * lam + mu * mu < 0.9:
                break
        fam = MetricFamily(model, lam, mu)
        x, y, z = rng.normal(size=(3, 6))
        worst["connection"] = max(worst["connection"], float(np.abs(
            fam.levi_civita(x, y) - fam.levi_civita_koszul(x, y)).max()))
        worst["curvature"] = max(worst["curvature"], float(np.abs(
            fam.curvature(x, y, z) - fam.curvature_closed(x, y, z)).max()))
        worst["ricci"] = max(worst["ricci"], float(np.abs(
            fam.ricci_closed(x) - fam.ricci_contracted(x)).max()))
    ok = all(v < 1e-9 for v in worst.values())
    report(3, ok,
           "closed forms match their oracles over 200 random samples each "
           f"(connection {worst['connection']:.2e}, curvature "
           f"{worst['curvature']:.2e}, ricci {worst['ricci']:.2e}; tol 1e-9)")


def _disc_grid(res):
    k = int(np.floor((1.0 - 1e-9) / res))
    pts = []
    for a in range(-k, k + 1):
        for b in range(-k, k + 1):
            lam, mu = a * res, b * res
            if lam * lam + mu * mu < 1.0 - 1e-9:
                pts.append((lam, mu))
    return pts


def test_criterion_04_nearly_kahler_uniqueness():
    model = la.doubled(la.su2())
    at_point = MetricFamily(model, 0.0, -0.5).nearly_kahler_defect()
    ok = at_point <= 1e-10
    floor = np.inf
    for lam, mu in _disc_grid(0.05):
        if abs(lam) < 1e-12 and abs(mu + 0.5) < 1e-12:
            continue
        floor = min(floor, MetricFamily(model, lam, mu).nearly_kahler_defect())
    ok = ok and floor > 1e-4
    report(4, ok,
           f"nearly Kaehler identity vanishes only at (0, -1/2): defect there "
           f"{at_point:.2e} (tol 1e-10), minimum elsewhere on the 0.05 grid "
           f"{floor:.2e} (> 1e-4)")


def test_criterion_05_g1_membership_and_quasi_kahler():
    rng = np.random.default_rng(5)
    model = la.doubled(la.su2())
    g1_ok = True
    for _ in range(100):
        while True:
            lam, mu = rng.uniform(-0.95, 0.95, size=2)
            if lam * lam + mu * mu < 0.9:
                break
        checks = MetricFamily(model, lam, mu).hermitian_class_checks()
        g1_ok = g1_ok and checks["g1"]
    qk_ok = True
    for lam, mu in _disc_grid(0.05):
        is_point = abs(lam) < 1e-12 and abs(mu + 0.5) < 1e-12
        got = MetricFamily(model, lam, mu).hermitian_class_checks()["quasi_kahler"]
        qk_ok = qk_ok and (got == is_point)
    report(5, g1_ok and qk_ok,
           "composition tensor antisymmetric at 100 random points (tol 1e-9); "
           "quasi Kaehler identity holds exactly at (0, -1/2) on the 0.05 grid")


def test_criterion_06_contraction_identity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for name in ("su2", "sl2r", "so4"):
        model = la.CATALOG[name]()
        for _ in range(100):
            x = rng.normal(size=model.dim)
            worst = max(worst, float(np.abs(
                la.lemma2_check(model, x) + x).max() / (1 + np.abs(x).max())))
    ok = worst < 1e-10
    report(6, ok,
           "trace-form contraction g^{ij}[[X, e_i], e_j] = -X on su2, sl2r, "
           f"so4, 100 random X each (worst {worst:.2e}, tol 1e-10)")


def test_criterion_07_pauli_matrices_and_spin_homomorphism():
    ok = True
    for alpha in (-1, 1):
        s1, s2, s3 = qt.pauli_matrices(alpha)
        i = sk.imag_unit(alpha)
        ok = ok and s1[0, 0] == i and s1[1, 1] == sk.neg(i)
        ok = ok and s1[0, 1].re == 0.0 and s1[0, 1].im == 0.0
        ok = ok and s1[1, 0].re == 0.0 and s1[1, 0].im == 0.0
        ok = ok and s2[0, 1] == sk.from_real(alpha, alpha)
        ok = ok and s2[1, 0] == sk.one(alpha)
        ok = ok and s2[0, 0].re == 0.0 and s2[1, 1].re == 0.0
        ok = ok and s3[0, 1] == sk.scale(float(alpha), i)
        ok = ok and s3[1, 0] == sk.neg(i)
    rng = np.random.default_rng(7)
    worst = 0.0
    for alpha in (-1, 1):
        for _ in range(500):
            p = qt.from_coeffs(rng.normal(size=4), alpha)
            q = qt.from_coeffs(rng.normal(size=4), alpha)
            hom = (qt.spin_matrix(qt.qmul(p, q))
                   - qt.spin_matrix(p) @ qt.spin_matrix(q)).max_abs()
            det = qt.spin_matrix(q).det()
            dd = abs(det.re - qt.qnormsq(q)) + abs(det.im)
            scale = 1 + abs(qt.qnormsq(p) * qt.qnormsq(q))
            worst = max(worst, hom / scale, dd / (1 + abs(qt.qnormsq(q))))
    ok = ok and worst < 1e-10
    report(7, ok,
           "generalized Pauli entries exact for both signatures; spin matrix "
           f"is a homomorphism with det = |q|^2 on 1000 random pairs "
           f"(worst {worst:.2e}, tol 1e-10)")


def test_criterion_08_imaginary_norm_traces():
    rng = np.random.default_rng(8)
    worst = 0.0
    for alpha in (-1, 1):
        for _ in range(500):
            q = qt.QuaternionA(0, *rng.normal(size=3), alpha)
            n8 = 8.0 * qt.qnormsq(q)
            ad = qt.ad_matrix(q)
            m = qt.spin_matrix(q)
            scale = max(1.0, abs(n8))
            worst = max(worst,
                        abs(-np.trace(ad @ ad) - n8) / scale,
                        abs(-4.0 * (m @ m).real_trace() - n8) / scale)
    ok = worst < 1e-10
    report(8, ok,
           "-tr(ad q ad q) = 8 q qbar and -4 tr((q)(q)) = 8 q qbar on 1000 "
           f"random imaginary quaternions, both signatures (worst {worst:.2e}, "
           "rel tol 1e-10)")


def test_criterion_09_spinbasis_construction():
    rng = np.random.default_rng(9)
    ok = True
    for alpha in (-1, 1):
        gram = np.diag([-float(alpha), -float(alpha), 1.0])
        paulis = qt.pauli_matrices(alpha)
        neg3 = qt.smat((((0, 0), (0, -alpha)), ((0, 1), (0, 0))), alpha)
        for _ in range(100):
            rot = random_pseudo_rotation(gram, rng)
            js = [qt.from_coeffs([0.0, *rot[:, m]], alpha) for m in range(3)]
            res = sp.spinbasis(sp.IQBasis(*js))
            ok = ok and res.sign == 1
            for m in range(3):
                got = sp.matrix_in_spinbasis(js[m], res)
                ok = ok and smat_close(got, paulis[m], tol=1e-9)
            rev = sp.spinbasis(sp.IQBasis(js[0], js[1], -js[2]))
            ok = ok and rev.sign == -1
            got3 = sp.matrix_in_spinbasis(-js[2], rev)
            ok = ok and smat_close(got3, neg3, tol=1e-9)
    report(9, ok,
           "100 random orthonormal imaginary triples per signature conjugate "
           "to the Pauli triple within 1e-9; reversed orientation flips the "
           "third sign")


def test_criterion_10_selfdual_calculus():
    rng = np.random.default_rng(10)
    ok = True
    for alpha in (-1, 1):
        g = fd.Metric4(alpha)
        s = hodge_star_matrix(g)
        ok = ok and np.abs(s @ s - np.eye(6)).max() == 0.0
        for sign in (1, -1):
            ok = ok and np.linalg.matrix_rank(0.5 * (np.eye(6) + sign * s)) == 3
        for _ in range(50):
            wp, _ = fd.sd_decompose(g, fd.TwoForm4(tuple(rng.normal(size=6))))
            _, vm = fd.sd_decompose(g, fd.TwoForm4(tuple(rng.normal(size=6))))
            ok = ok and abs(fd.inner_lambda2(g, wp, vm)) < 1e-12
        for _ in range(250):
            x, y, z = rng.normal(size=3)
            w = fd.selfdual_form(alpha, x, y, z)
            J = fd.form_to_endo(g, w)
            l2 = z * z - alpha * x * x - alpha * y * y
            ok = ok and np.abs(J @ J + l2 * np.eye(4)).max() < 1e-12 * (1 + abs(l2))
            w2 = fd.selfdual_form(alpha, *rng.normal(size=3))
            J2 = fd.form_to_endo(g, w2)
            ip = fd.inner_lambda2(g, w, w2)
            anti = np.abs(J @ J2 + J2 @ J + ip * np.eye(4)).max()
            ok = ok and anti < 1e-10 * (1 + abs(ip))
        J1, J2, J3 = fd.canonical_aq_basis(g, 1)
        mats = [np.eye(4), J1, J2, J3]
        quats = [qt.one(alpha), qt.i_(alpha), qt.j_(alpha), qt.k_(alpha)]
        for a in range(4):
            for b in range(4):
                coeff = qt.qmul(quats[a], quats[b]).coeffs()
                want = sum(coeff[m] * mats[m] for m in range(4))
                ok = ok and np.abs(mats[a] @ mats[b] - want).max() < 1e-12
    report(10, ok,
           "star involution, three-dimensional orthogonal halves, 500 random "
           "self-dual roundtrips at 1e-12, orthogonality = anticommutation, "
           "and the sixteen-entry product table")


def test_criterion_11_canonical_connection():
    rng = np.random.default_rng(11)
    models = [la.doubled(la.CATALOG[n]()).as_piaq()
              for n in ("su2", "sl2r", "so4")]
    from conftest import standard_pair
    models += [pq.PiAQModel(4, np.zeros((4, 4, 4)), *standard_pair(4, a), a)
               for a in (-1, 1)]
    models += [random_piaq_model(rng, alpha, kind)
               for alpha in (-1, 1) for kind in ("abelian", "u2", "gl2")
               for _ in range(9)][:50]
    ok = True
    worst = 0.0
    for m in models:
        n = m.nabla
        scale = 1 + np.abs(n).max() + np.abs(m.c).max()
        for f in (m.I, m.J):
            d = np.abs(np.einsum("abk,lk->abl", n, f)
                       - np.einsum("jb,ajl->abl", f, n)).max()
            worst = max(worst, d / scale)
        st = m.torsion_tensor
        d = np.abs(np.einsum("ia,ijk->ajk", m.I, st)
                   - np.einsum("jb,ajk->abk", m.I, st)).max()
        worst = max(worst, d / scale)
        for _ in range(4):
            x, y = rng.normal(size=(2, m.dim))
            d = np.abs(pq.canonical_connection(m, x, y)
                       - pq.canonical_connection_split(m, x, y)).max()
            worst = max(worst, d / scale)
    ok = ok and worst < 1e-10
    dm = la.doubled(la.su2()).as_piaq()
    ok = ok and np.abs(dm.nabla).max() == 0.0
    ok = ok and np.abs(dm.torsion_tensor + dm.c).max() == 0.0
    ok = ok and not pq.predicate_report(dm, "integrable")["verdict"]
    flat = pq.PiAQModel(4, np.zeros((4, 4, 4)), *standard_pair(4, 1), 1)
    ok = ok and pq.predicate_report(flat, "integrable")["verdict"]
    report(11, ok,
           "parallelism, torsion symmetry and the two connection evaluations "
           f"agree on catalog + 50 random models (worst {worst:.2e}, tol "
           "1e-10); doubled model has exactly zero connection and torsion "
           "-[X, Y]; flat model integrable, doubled su2 not")


def test_criterion_12_integrability_and_orbits():
    rng = np.random.default_rng(12)
    dm = la.doubled(la.su2())
    mp = dm.as_piaq()
    ok = (pq.predicate_report(mp, "semiholonomic")["verdict"]
          and pq.predicate_report(mp, "three_web")["verdict"])
    worst = 0.0
    for _ in range(100):
        x, y = rng.normal(size=(2, 6))
        bxy = dm.bracket2(x, y)
        worst = max(worst,
                    float(np.abs(dm.bracket2(dm.I @ x, y) - dm.I @ bxy).max()),
                    float(np.abs(dm.bracket2(x, dm.I @ y) - dm.I @ bxy).max()),
                    float(np.abs(dm.bracket2(dm.J @ x, dm.J @ y)
                                 - dm.J @ bxy).max()))
    for alpha in (-1, 1):
        for _ in range(10):
            m = random_piaq_model(rng, alpha)
            for f, s in ((m.I, alpha), (m.J, alpha), (m.K, -1.0)):
                for _ in range(3):
                    x, y = rng.normal(size=(2, 4))
                    fx, fy = f @ x, f @ y
                    S = m.torsion_tensor
                    want = (-s * apply(S, x, y) - apply(S, fx, fy)
                            + f @ apply(S, fx, y) + f @ apply(S, x, fy))
                    got = pq.nijenhuis(m, f, x, y)
                    worst = max(worst, float(np.abs(got - want).max()
                                             / (1 + np.abs(want).max())))
    ok = ok and worst < 1e-10
    dims_ok = True
    for alpha in (-1, 1):
        for dim in (4, 8):
            for _ in range(250):
                I, J = random_aq_pair(rng, dim, alpha)
                x = rng.normal(size=dim)
                d = sp.orbit_dimension(I, J, x)
                cols = np.column_stack([x, I @ x, J @ x, I @ (J @ x)])
                sv = np.linalg.svd(cols, compute_uv=False)
                oracle = int(np.sum(sv > 1e-8 * sv[0]))
                dims_ok = dims_ok and d == oracle and d in (2, 4)
    ok = ok and dims_ok
    report(12, ok,
           "doubled model is semiholonomic and a three-web; torsion identity "
           f"for the Nijenhuis tensor and the doubled bracket identities hold "
           f"(worst {worst:.2e}, tol 1e-10); 1000 random orbit dimensions in "
           "dims 4 and 8 are 2 or 4 and match the rank oracle")
