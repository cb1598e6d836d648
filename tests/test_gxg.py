"""The metric family on a doubled group: connection, curvature, Ricci."""

import numpy as np
import pytest

from aqlab import liealg as la
from aqlab.errors import Degenerate, InvalidModel, InvalidResolution, NotSemisimple
from aqlab.gxg import (
    MIN_SWEEP_RES,
    MetricFamily,
    classify_einstein,
    einstein_residuals,
    einstein_sweep,
    ricci_coefficients,
)

EXACT_POINTS = [(0.0, 0.0, 0.25), (0.0, -0.5, 5.0 / 18.0),
                (1.0 / 3.0, -2.0 / 3.0, 0.375),
                (-1.0 / 3.0, -2.0 / 3.0, 0.375)]


@pytest.fixture(scope="module")
def dsu2():
    return la.doubled(la.su2())


@pytest.fixture(scope="module")
def dsl2r():
    return la.doubled(la.sl2r())


def ricci_loop(fam, X):
    """The closed-form Ricci operator as a literal sum over both basis
    families; the reference for the one-contraction ``ricci_matrix``."""
    m = fam.model
    A, Bc, C, D = fam.ricci_coefficients()
    X = np.asarray(X, float)
    JX = m.J @ X
    total = np.zeros(m.dim2)
    for a in range(m.n):
        for e_a, jfam in ((np.eye(m.dim2)[a], False),
                          (np.eye(m.dim2)[m.n + a], True)):
            t1 = m.bracket2(m.bracket2(X, e_a), e_a)
            t2 = m.bracket2(m.bracket2(JX, e_a), e_a)
            if not jfam:
                total += m.eps[a] * (A * t1 + C * t2)
            else:
                total += m.eps[a] * (Bc * t1 + D * t2)
    return total / fam.d0


def nearly_kahler_loop(fam, sign=1):
    """max |nabla_X(calJ) X| as a literal sweep over e_i and e_i + e_j;
    the reference for the array expression in ``nearly_kahler_defect``."""
    dt = fam.nabla_calJ_tensor(sign)
    es = np.eye(fam.model.dim2)
    vecs = list(es) + [es[i] + es[j] for i in range(len(es))
                       for j in range(i + 1, len(es))]
    return max(float(np.abs(np.einsum("a,b,abl->l", v, v, dt)).max())
               for v in vecs)


def curvature_expanded(fam, X, Y, Z):
    """R(X, Y)Z as the closed form written out term by term, one bracket
    call each; the reference for the term table in ``curvature_closed``."""
    m = fam.model
    B = m.bracket2
    X, Y, Z = (np.asarray(v, float) for v in (X, Y, Z))
    JX, JY, JZ = m.J @ X, m.J @ Y, m.J @ Z
    KX, KY, KZ = m.K @ X, m.K @ Y, m.K @ Z
    p, q = fam._p, fam._q

    def asym(u1, v1, w1, u2, v2, w2):
        # [u1, [v1, w1]] - [u2, [v2, w2]], the X <-> Y swapped pair
        return B(u1, B(v1, w1)) - B(u2, B(v2, w2))

    r = -0.25 * B(B(X, Y), Z)
    r = r + 0.5 * p * asym(X, Y, JZ, Y, X, JZ)
    r = r - 0.5 * p * asym(X, JY, Z, Y, JX, Z)
    r = r + 0.5 * q * asym(X, KY, Z, Y, KX, Z)
    r = r - 0.5 * q * asym(X, Y, KZ, Y, X, KZ)
    r = r + 0.5 * p * asym(X, JY, JZ, Y, JX, JZ)
    r = r - p * p * asym(X, Y, JZ, Y, X, JZ)
    r = r + p * p * asym(X, JY, Z, Y, JX, Z)
    r = r - 0.5 * p * asym(JX, Y, Z, JY, X, Z)
    r = r - p * p * asym(JX, Y, JZ, JY, X, JZ)
    r = r + p * p * asym(JX, JY, Z, JY, JX, Z)
    r = r - p * q * asym(JX, KY, Z, JY, KX, Z)
    r = r + p * q * asym(JX, Y, KZ, JY, X, KZ)
    r = r + 0.5 * q * asym(KX, Y, Z, KY, X, Z)
    r = r + p * q * asym(KX, Y, JZ, KY, X, JZ)
    r = r - p * q * asym(KX, JY, Z, KY, JX, Z)
    r = r + q * q * asym(KX, KY, Z, KY, KX, Z)
    r = r - q * q * asym(KX, Y, KZ, KY, X, KZ)
    r = r - 0.5 * q * asym(X, KY, JZ, Y, KX, JZ)
    r = r + q * q * asym(X, Y, JZ, Y, X, JZ)
    r = r - q * q * asym(X, JY, Z, Y, JX, Z)
    r = r - p * (B(B(X, Y), JZ) - B(B(JX, JY), Z))
    r = r + q * (B(B(X, Y), KZ) - B(B(KX, JY), Z))
    return r


def sample_disc(rng, bound=0.9):
    while True:
        lam, mu = rng.uniform(-bound, bound, size=2)
        if lam * lam + mu * mu < bound * bound:
            return lam, mu


class TestSheafMetric:
    def test_degenerate_circle_rejected(self, dsu2):
        with pytest.raises(Degenerate):
            MetricFamily(dsu2, 0.6, 0.8)

    @pytest.mark.parametrize("lam,mu", [(float("nan"), 0.0), (0.0, float("inf")),
                                        (-float("inf"), 0.1)])
    def test_non_finite_parameters_rejected(self, dsu2, lam, mu):
        with pytest.raises(Degenerate, match="finite"):
            MetricFamily(dsu2, lam, mu)

    def test_block_matrix_form(self, dsu2, dsl2r):
        for model in (dsu2, dsl2r):
            lam, mu = 0.3, -0.2
            fam = MetricFamily(model, lam, mu)
            e = np.diag(model.eps)
            want = np.block([[(1 + lam) * e, mu * e], [mu * e, (1 - lam) * e]])
            assert np.allclose(fam.sheaf_matrix, want)
            assert np.allclose(fam.sheaf_inverse, fam.sheaf_inverse_blocks())

    def test_base_point_doubles_nothing(self, dsu2):
        """At (0, 0) the Gram matrix is the orthonormalized block metric."""
        fam = MetricFamily(dsu2, 0.0, 0.0)
        assert np.allclose(fam.sheaf_matrix, np.eye(6))

    def test_compatibilities(self, dsu2, rng):
        """g(FX, FY) = g(X, Y) for F in (I, J, K); the adjointness signs are
        +, +, - respectively."""
        m = dsu2
        g0 = m.g0
        for _ in range(100):
            x, y = rng.normal(size=(2, 6))
            for f in (m.I, m.J, m.K):
                assert abs((f @ x) @ g0 @ (f @ y) - x @ g0 @ y) < 1e-11
            assert abs((m.I @ x) @ g0 @ y - x @ g0 @ (m.I @ y)) < 1e-11
            assert abs((m.J @ x) @ g0 @ y - x @ g0 @ (m.J @ y)) < 1e-11
            assert abs((m.K @ x) @ g0 @ y + x @ g0 @ (m.K @ y)) < 1e-11

    def test_boundary_determinant_vanishes(self, dsu2):
        m = dsu2
        for t in np.linspace(0.0, 2 * np.pi, 100, endpoint=False):
            lam, mu = np.cos(t), np.sin(t)
            gram = m.g0 + lam * m.g0 @ m.I + mu * m.g0 @ m.J
            assert abs(np.linalg.det(gram)) < 1e-10

    def test_metric_values(self, dsu2, rng):
        fam = MetricFamily(dsu2, 0.25, -0.4)
        x, y = rng.normal(size=(2, 6))
        assert fam.sheaf_metric(x, y) == pytest.approx(x @ fam.sheaf_matrix @ y)


class TestHermitianStructure:
    def test_collapse_to_third_operator(self, dsu2):
        hs = MetricFamily(dsu2, 0.0, 0.0).hermitian_structure(1)
        assert np.allclose(hs.calJ, dsu2.K)
        hs = MetricFamily(dsu2, 0.0, 0.0).hermitian_structure(-1)
        assert np.allclose(hs.calJ, -dsu2.K)

    def test_nearly_kahler_point_formula(self, dsu2):
        hs = MetricFamily(dsu2, 0.0, -0.5).hermitian_structure(1)
        want = (-0.5 * dsu2.I + dsu2.K) / np.sqrt(0.75)
        assert np.allclose(hs.calJ, want)
        # equivalently (I - 2K)/sqrt(3) up to overall sign
        assert np.allclose(hs.calJ, -(dsu2.I - 2 * dsu2.K) / np.sqrt(3.0))

    def test_elliptic_square_and_isometry(self, dsu2, rng):
        for _ in range(50):
            lam, mu = sample_disc(rng)
            fam = MetricFamily(dsu2, lam, mu)
            hs = fam.hermitian_structure(1)
            assert hs.elliptic
            assert np.abs(hs.calJ @ hs.calJ + np.eye(6)).max() < 1e-12
            gs = fam.sheaf_matrix
            assert np.abs(hs.calJ.T @ gs @ hs.calJ - gs).max() < 1e-11

    def test_hyperbolic_square(self, dsu2, rng):
        for _ in range(20):
            lam, mu = rng.uniform(1.0, 2.0, size=2)
            fam = MetricFamily(dsu2, lam, mu)
            hs = fam.hermitian_structure(1)
            assert not hs.elliptic
            assert np.abs(hs.calJ @ hs.calJ - np.eye(6)).max() < 1e-12


class TestLeviCivita:
    def test_bi_invariant_point(self, dsu2, rng):
        fam = MetricFamily(dsu2, 0.0, 0.0)
        for _ in range(20):
            x, y = rng.normal(size=(2, 6))
            want = 0.5 * dsu2.bracket2(x, y)
            assert np.abs(fam.levi_civita(x, y) - want).max() < 1e-14

    def test_koszul_agreement(self, dsu2, dsl2r, rng):
        for model in (dsu2, dsl2r):
            for _ in range(20):
                lam, mu = sample_disc(rng)
                fam = MetricFamily(model, lam, mu)
                assert np.abs(fam.nabla - fam.nabla_koszul).max() < 1e-10

    def test_pure_first_parameter_has_no_swap_terms(self, dsu2, rng):
        """With mu = 0 both correction coefficients vanish."""
        fam = MetricFamily(dsu2, 0.45, 0.0)
        for _ in range(20):
            x, y = rng.normal(size=(2, 6))
            want = 0.5 * dsu2.bracket2(x, y)
            assert np.abs(fam.levi_civita(x, y) - want).max() < 1e-14

    def test_torsion_free_and_metric(self, dsu2, rng):
        lam, mu = 0.2, -0.35
        fam = MetricFamily(dsu2, lam, mu)
        gs = fam.sheaf_matrix
        for _ in range(30):
            x, y, z = rng.normal(size=(3, 6))
            t = fam.levi_civita(x, y) - fam.levi_civita(y, x) - dsu2.bracket2(x, y)
            assert np.abs(t).max() < 1e-11
            comp = (fam.levi_civita(z, x) @ gs @ y + x @ gs @ fam.levi_civita(z, y))
            assert abs(comp) < 1e-11


class TestCurvature:
    def test_bi_invariant_curvature(self, dsu2, rng):
        """R(X, Y)Z = -[[X, Y], Z]/4 at the origin of the family.

        The sign is pinned by the compositional definition together with
        the positivity of the Ricci constant 1/4 at this point.
        """
        fam = MetricFamily(dsu2, 0.0, 0.0)
        for _ in range(20):
            x, y, z = rng.normal(size=(3, 6))
            want = -0.25 * dsu2.bracket2(dsu2.bracket2(x, y), z)
            assert np.abs(fam.curvature(x, y, z) - want).max() < 1e-13
            assert np.abs(fam.curvature_closed(x, y, z) - want).max() < 1e-13

    def test_abelian_base_is_flat(self, rng):
        flat = la.LieAlgebraModel(2, np.zeros((2, 2, 2)), name="R2")
        dm = la.doubled(flat, np.eye(2))
        fam = MetricFamily(dm, 0.3, 0.4)
        assert np.abs(fam.curvature_tensor).max() == 0.0

    def test_closed_equals_compositional(self, dsu2, dsl2r, rng):
        for model in (dsu2, dsl2r):
            for _ in range(25):
                lam, mu = sample_disc(rng)
                fam = MetricFamily(model, lam, mu)
                x, y, z = rng.normal(size=(3, 6))
                a = fam.curvature(x, y, z)
                b = fam.curvature_closed(x, y, z)
                assert np.abs(a - b).max() < 1e-9 * (1 + np.abs(a).max())

    @pytest.mark.parametrize("base", [
        la.su2, la.sl2r, la.so4, lambda: la.direct_sum(la.su2(), la.sl2r())])
    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.0, -0.5), (0.3, 0.1),
                                       (-0.2, -0.6), (1.2, 0.3)])
    def test_term_table_equals_expansion(self, base, point, rng):
        model = la.doubled(base())
        fam = MetricFamily(model, *point)
        for _ in range(5):
            x, y, z = rng.normal(size=(3, model.dim2))
            want = curvature_expanded(fam, x, y, z)
            got = fam.curvature_closed(x, y, z)
            assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())

    def test_antisymmetry_and_first_bianchi(self, dsu2, rng):
        for _ in range(10):
            lam, mu = sample_disc(rng)
            fam = MetricFamily(dsu2, lam, mu)
            x, y, z = rng.normal(size=(3, 6))
            assert np.abs(fam.curvature(x, y, z)
                          + fam.curvature(y, x, z)).max() < 1e-9
            cyc = (fam.curvature(x, y, z) + fam.curvature(y, z, x)
                   + fam.curvature(z, x, y))
            assert np.abs(cyc).max() < 1e-9


class TestRicci:
    def test_killing_point_value(self, dsu2):
        fam = MetricFamily(dsu2, 0.0, 0.0)
        assert np.abs(fam.ricci_matrix() - 0.25 * np.eye(6)).max() < 1e-12

    def test_pinned_epsilons(self, dsu2):
        for lam, mu, eps in EXACT_POINTS:
            fam = MetricFamily(dsu2, lam, mu)
            got = fam.einstein_check()
            assert got is not None and abs(got - eps) < 1e-12

    def test_paper_coefficient_values(self):
        a, b, c, d = ricci_coefficients(0.0, -0.5)
        assert a == pytest.approx(-5.0 / 24.0, abs=1e-15)
        assert b == pytest.approx(-5.0 / 24.0, abs=1e-15)
        assert abs(c) < 1e-15 and abs(d) < 1e-15
        a, b, c, d = ricci_coefficients(1.0 / 3.0, -2.0 / 3.0)
        assert a == pytest.approx(-1.0 / 6.0, abs=1e-15)
        assert b == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_closed_equals_contracted(self, dsu2, dsl2r, rng):
        # the last base is no catalog algebra: an indefinite direct sum
        mixed = la.doubled(la.direct_sum(la.su2(), la.sl2r()))
        for model in (dsu2, dsl2r, mixed):
            for _ in range(15):
                lam, mu = sample_disc(rng)
                fam = MetricFamily(model, lam, mu)
                x = rng.normal(size=model.dim2)
                a = fam.ricci_closed(x)
                b = fam.ricci_contracted(x)
                assert np.abs(a - b).max() < 1e-9 * (1 + np.abs(a).max())
                ra, rb = fam.ricci_matrix(True), fam.ricci_matrix(False)
                assert np.abs(ra - rb).max() < 1e-9 * (1 + np.abs(ra).max())

    def test_matrix_equals_basis_sum(self, dsu2, dsl2r, rng):
        for model in (dsu2, dsl2r, la.doubled(la.so4())):
            lam, mu = sample_disc(rng)
            fam = MetricFamily(model, lam, mu)
            want = np.column_stack([ricci_loop(fam, e)
                                    for e in np.eye(model.dim2)])
            got = fam.ricci_matrix(True)
            assert np.abs(got - want).max() <= 1e-14 * (1 + np.abs(want).max())

    def test_non_einstein_point(self, dsu2):
        assert MetricFamily(dsu2, 0.2, 0.3).einstein_check() is None

    def test_closed_path_requires_killing(self):
        dm = la.doubled(la.su2(), np.eye(3))
        fam = MetricFamily(dm, 0.1, 0.1)
        with pytest.raises(InvalidModel):
            fam.ricci_closed(np.ones(6))
        # the operator route still works
        assert fam.ricci(np.ones(6)).shape == (6,)

    def test_ricci_takes_the_closed_path_on_a_trace_form_base(self, dsu2,
                                                              monkeypatch):
        fam = MetricFamily(dsu2, 0.2, -0.1)
        x = np.arange(6.0)
        want = fam.ricci_closed(x)
        monkeypatch.setattr(MetricFamily, "curvature_tensor", property(
            lambda self: pytest.fail("contracted route taken")))
        assert np.array_equal(MetricFamily(dsu2, 0.2, -0.1).ricci(x), want)

    def test_closed_path_requires_semisimple(self):
        flat = la.LieAlgebraModel(2, np.zeros((2, 2, 2)), name="R2")
        dm = la.doubled(flat, np.eye(2))
        dm.killing_base = True  # simulate a wrong-headed caller
        with pytest.raises(NotSemisimple):
            MetricFamily(dm, 0.1, 0.1).ricci_closed(np.ones(4))


class TestClassification:
    def test_su2_quadruple(self, dsu2):
        pts = classify_einstein(dsu2)
        assert len(pts) == 4
        for (gl, gm, ge), (wl, wm, we) in zip(pts, EXACT_POINTS):
            assert abs(gl - wl) < 1e-12
            assert abs(gm - wm) < 1e-12
            assert abs(ge - we) < 1e-10

    def test_sl2r_same_quadruple(self, dsl2r):
        pts = classify_einstein(dsl2r)
        assert len(pts) == 4
        for (gl, gm, ge), (wl, wm, we) in zip(pts, EXACT_POINTS):
            assert abs(gl - wl) < 1e-12 and abs(gm - wm) < 1e-12
            assert abs(ge - we) < 1e-10

    def test_coefficients_are_base_independent(self, dsu2, dsl2r, rng):
        lam, mu = sample_disc(rng)
        assert ricci_coefficients(lam, mu) == ricci_coefficients(lam, mu)
        e1 = MetricFamily(dsu2, lam, mu).ricci_coefficients()
        e2 = MetricFamily(dsl2r, lam, mu).ricci_coefficients()
        assert e1 == e2

    def test_symmetric_pair_share_constant(self, dsu2):
        ep = MetricFamily(dsu2, 1 / 3, -2 / 3).einstein_check()
        em = MetricFamily(dsu2, -1 / 3, -2 / 3).einstein_check()
        assert ep == pytest.approx(em, abs=1e-12)

    def test_coarse_sweep_isolates_the_points(self):
        grid = einstein_sweep(res=0.05, refine=False)
        defect = grid["off"] + grid["aniso"]
        hits = defect < 1e-6
        for l, m in zip(grid["lam"][hits], grid["mu"][hits]):
            assert min(np.hypot(l - wl, m - wm)
                       for wl, wm, _ in EXACT_POINTS) < 1e-9

    def test_refined_sweep_recovers_all_points(self):
        pts = einstein_sweep(res=0.05)["einstein_points"]
        assert len(pts) == 4
        for (gl, gm, ge), (wl, wm, we) in zip(pts, EXACT_POINTS):
            assert np.hypot(gl - wl, gm - wm) < 1e-8
            assert abs(ge - we) < 1e-8

    @pytest.mark.parametrize("res", [0.0, -0.1, np.nan, np.inf,
                                     0.5 * MIN_SWEEP_RES])
    def test_sweep_resolution_is_bounded(self, res):
        with pytest.raises(InvalidResolution):
            einstein_sweep(res=res)

    def test_residual_vector_form(self):
        off, aniso = einstein_residuals([0.0, 0.2], [-0.5, 0.3])
        assert off.shape == (2,)
        assert off[0] < 1e-15 and aniso[0] < 1e-15
        assert off[1] > 1e-3

    def test_requires_killing_base(self):
        dm = la.doubled(la.su2(), np.eye(3))
        with pytest.raises(InvalidModel):
            classify_einstein(dm)

    def test_killing_base_bound_has_no_relative_slack(self):
        """A trace form off by 8e-6 in one entry is not the trace form (the
        old comparison let a relative 1e-5 through and returned [])."""
        K = la.killing_form(la.su2())
        for factor in (1.0, 1.0 + 1e-13):
            dm = la.doubled(la.su2(), K * factor)
            assert dm.killing_base
            assert len(classify_einstein(dm)) == 4
        off = K.copy()
        off[0, 0] *= 1.0 + 8e-6
        with pytest.raises(InvalidModel):
            classify_einstein(la.doubled(la.su2(), off))


class TestStructureDerivatives:
    def test_origin_makes_first_operator_parallel(self, dsu2, rng):
        fam = MetricFamily(dsu2, 0.0, 0.0)
        for _ in range(10):
            x, y = rng.normal(size=(2, 6))
            assert np.abs(fam.nabla_endo_closed("I", x, y)).max() == 0.0
            assert np.abs(fam.nabla_endo(dsu2.I, x, y)).max() < 1e-14

    def test_closed_displays_match_oracle(self, dsu2, dsl2r, rng):
        for model in (dsu2, dsl2r):
            for _ in range(15):
                lam, mu = sample_disc(rng)
                fam = MetricFamily(model, lam, mu)
                x, y = rng.normal(size=(2, 6))
                for which, op in (("I", model.I), ("J", model.J),
                                  ("K", model.K)):
                    a = fam.nabla_endo(op, x, y)
                    b = fam.nabla_endo_closed(which, x, y)
                    assert np.abs(a - b).max() < 1e-9 * (1 + np.abs(a).max())
                for sign in (1, -1):
                    hs = fam.hermitian_structure(sign)
                    a = fam.nabla_endo(hs.calJ, x, y)
                    b = fam.nabla_endo_closed("calJ", x, y, sign=sign)
                    assert np.abs(a - b).max() < 1e-9 * (1 + np.abs(a).max())

    def test_nearly_kahler_point_annihilates(self, dsu2):
        fam = MetricFamily(dsu2, 0.0, -0.5)
        assert fam.nearly_kahler_defect() < 1e-12

    def test_off_point_defect_is_visible(self, dsu2):
        assert MetricFamily(dsu2, 0.05, -0.5).nearly_kahler_defect() > 1e-3
        assert MetricFamily(dsu2, 0.0, -0.45).nearly_kahler_defect() > 1e-3

    @pytest.mark.parametrize("base", [la.su2, la.sl2r, la.so4])
    @pytest.mark.parametrize("point", [(0.0, -0.5), (0.3, 0.1), (-0.2, -0.6)])
    def test_defect_equals_vector_loop(self, base, point):
        fam = MetricFamily(la.doubled(base()), *point)
        for sign in (1, -1):
            want = nearly_kahler_loop(fam, sign)
            assert abs(fam.nearly_kahler_defect(sign) - want) <= 1e-12 * (1 + want)


class TestHermitianClasses:
    def test_the_three_examples(self, dsu2):
        assert MetricFamily(dsu2, 0.0, -0.5).hermitian_class_checks() == {
            "nearly_kahler": True, "quasi_kahler": True, "g1": True}
        assert MetricFamily(dsu2, 0.3, 0.1).hermitian_class_checks() == {
            "nearly_kahler": False, "quasi_kahler": False, "g1": True}
        assert MetricFamily(dsu2, 0.0, 0.0).hermitian_class_checks() == {
            "nearly_kahler": False, "quasi_kahler": False, "g1": True}

    def test_sign_choice_is_immaterial(self, dsu2):
        a = MetricFamily(dsu2, 0.1, -0.3).hermitian_class_checks(sign=1)
        b = MetricFamily(dsu2, 0.1, -0.3).hermitian_class_checks(sign=-1)
        assert a == b

    def test_outside_disc_rejected(self, dsu2):
        with pytest.raises(Degenerate):
            MetricFamily(dsu2, 1.2, 0.9).hermitian_class_checks()
