"""The metric family on a doubled group: connection, curvature, Ricci."""

import hashlib
import importlib.util
import json
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqlab import cli
from aqlab import liealg as la
from aqlab import piaq as pq
from aqlab.errors import Degenerate, InvalidResolution, NotSemisimple, Overflow
from aqlab.family import einstein_constant
from aqlab.gxg import (
    DEGENERACY_TOL,
    MIN_SWEEP_RES,
    MetricFamily,
    _CURVATURE_ROWS,
    _d0,
    _einstein_system,
    classify_einstein,
    einstein_residuals,
    einstein_sweep,
    ricci_coefficients,
)
from conftest import (_well_conditioned, conjugate_structure, so_algebra,
                      su3_algebra)

SWEEP_SNAPSHOT = pathlib.Path(__file__).with_name("sweep_snapshot.json")

EXACT_POINTS = [(0.0, 0.0, 0.25), (0.0, -0.5, 5.0 / 18.0),
                (1.0 / 3.0, -2.0 / 3.0, 0.375),
                (-1.0 / 3.0, -2.0 / 3.0, 0.375)]


@pytest.fixture(scope="module")
def dsu2():
    return la.doubled(la.su2())


@pytest.fixture(scope="module")
def dsl2r():
    return la.doubled(la.sl2r())


@pytest.fixture(scope="module")
def dso6():
    return la.doubled(so_algebra(6))


def ricci_loop(fam, X):
    """The closed-form Ricci operator as a literal sum over both basis
    families; the reference for the one-contraction ``ricci_matrix``."""
    m = fam.model
    A, Bc, C, D = ricci_coefficients(fam.lam, fam.mu)
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


def ricci_closed_by_kron(fam):
    """The closed Ricci matrix with the factor sums C1, C2 weighted by
    kron(eye(2), eps); the reference for ``ricci_matrix(True)``."""
    m = fam.model
    A, Bc, C, D = ricci_coefficients(fam.lam, fam.mu)
    ads = m.c2.transpose(0, 2, 1)
    C1, C2 = np.tensordot(np.kron(np.eye(2), m.eps), ads @ ads, 1)
    return (A * C1 + Bc * C2 + (C * C1 + D * C2) @ m.J) / fam.d0


def nearly_kahler_loop(fam):
    """max |nabla_X(calJ) X| as a literal sweep over e_i and e_i + e_j;
    the reference for the array expression in ``nearly_kahler_defect``."""
    dt = fam.nabla_calJ_tensor()
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


def curvature_closed_stacked(fam, X, Y, Z):
    """The two stacked bracket products ``curvature_closed`` wrote out by
    hand before ``tensors.apply_rows``; its reference, bit for bit."""
    m = fam.model
    d = m.dim2
    xyz = np.array([X, Y, Z])
    vecs = np.concatenate([xyz, xyz @ m.J.T, xyz @ m.K.T])
    c = m.c2.reshape(d, d * d)
    k, i, j, u, v, w = _CURVATURE_ROWS
    vw = vecs[w, None] @ (vecs[v] @ c).reshape(-1, d, d)
    outer = vw @ (vecs[u] @ c).reshape(-1, d, d)
    return (k * fam._p ** i * fam._q ** j) @ outer[:, 0]


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

    @pytest.mark.parametrize("lam,mu", [(1e200, 0.0), (0.0, -1e160),
                                        (1e154, 1e154)])
    def test_overflowing_parameters_rejected(self, dsu2, lam, mu):
        """lam^2 + mu^2 of finite parameters leaves the float range: ** raises
        OverflowError for the first two, the subtractions give -inf for the
        last; each is the typed error."""
        with pytest.raises(Overflow, match="overflows"):
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


class TestHermitianStructure:
    def test_collapse_to_third_operator(self, dsu2):
        fam = MetricFamily(dsu2, 0.0, 0.0)
        assert np.allclose(fam.calJ, dsu2.K)
        assert np.allclose(-fam.calJ, -dsu2.K)

    def test_nearly_kahler_point_formula(self, dsu2):
        fam = MetricFamily(dsu2, 0.0, -0.5)
        want = (-0.5 * dsu2.I + dsu2.K) / np.sqrt(0.75)
        assert np.allclose(fam.calJ, want)
        # equivalently (I - 2K)/sqrt(3) up to overall sign
        assert np.allclose(fam.calJ, -(dsu2.I - 2 * dsu2.K) / np.sqrt(3.0))

    def test_elliptic_square_and_isometry(self, dsu2, rng):
        for _ in range(50):
            lam, mu = sample_disc(rng)
            fam = MetricFamily(dsu2, lam, mu)
            assert fam.d0 > 0
            assert np.abs(fam.calJ @ fam.calJ + np.eye(6)).max() < 1e-12
            gs = fam.sheaf_matrix
            assert np.abs(fam.calJ.T @ gs @ fam.calJ - gs).max() < 1e-11

    def test_hyperbolic_square(self, dsu2, rng):
        for _ in range(20):
            lam, mu = rng.uniform(1.0, 2.0, size=2)
            fam = MetricFamily(dsu2, lam, mu)
            assert fam.d0 < 0
            assert np.abs(fam.calJ @ fam.calJ - np.eye(6)).max() < 1e-12


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

    @pytest.mark.parametrize("make", (su3_algebra, lambda: so_algebra(5)),
                             ids=("su3", "so5"))
    def test_koszul_against_the_einsum_reference(self, make, rng):
        """nabla_koszul's three reshaped products against the four einsums
        it was, on su(3) and so(5) rebased at random."""
        A = make()
        c = conjugate_structure(A.c, _well_conditioned(rng, A.dim))
        model = la.doubled(la.LieAlgebraModel(A.dim, c))
        c2 = model.c2
        for _ in range(5):
            fam = MetricFamily(model, *sample_disc(rng))
            gs = fam.sheaf_matrix
            rhs = (np.einsum("abk,kl->abl", c2, gs)
                   + np.einsum("lak,kb->abl", c2, gs)
                   - np.einsum("blk,ka->abl", c2, gs))
            want = 0.5 * np.einsum("lm,abm->abl", fam.sheaf_inverse, rhs)
            assert np.abs(fam.nabla_koszul - want).max() <= 1e-13 * (
                1 + np.abs(want).max())

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

    def test_closed_equals_compositional(self, dsu2, dsl2r, rng):
        for model in (dsu2, dsl2r):
            for _ in range(25):
                lam, mu = sample_disc(rng)
                fam = MetricFamily(model, lam, mu)
                x, y, z = rng.normal(size=(3, 6))
                a = fam.curvature(x, y, z)
                b = fam.curvature_closed(x, y, z)
                assert np.abs(a - b).max() < 1e-9 * (1 + np.abs(a).max())

    @pytest.mark.parametrize("base", [la.su2, la.sl2r, la.so4])
    def test_row_kernel_equals_stacked_products(self, base, rng):
        model = la.doubled(base())
        for _ in range(10):
            fam = MetricFamily(model, *sample_disc(rng))
            x, y, z = rng.normal(size=(3, model.dim2)) * 10.0 ** rng.uniform(-3, 3)
            assert np.array_equal(fam.curvature_closed(x, y, z),
                                  curvature_closed_stacked(fam, x, y, z))

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


class TestCurvatureOnDemand:
    """``curvature_tensor`` is computed on each read and kept by no object."""

    @pytest.fixture(scope="class")
    def dso5(self):
        return la.doubled(so_algebra(5))

    @pytest.mark.parametrize("kind", ["family", "piaq"])
    def test_rank4_tensor_is_not_kept(self, kind, dso5):
        obj = (MetricFamily(dso5, 0.3, 0.1) if kind == "family"
               else dso5.as_piaq())
        d = dso5.dim2
        first = obj.curvature_tensor
        assert "curvature_tensor" not in vars(obj)
        second = obj.curvature_tensor
        assert second is not first and np.array_equal(first, second)
        del first, second
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            R = obj.curvature_tensor
            del R
            end, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start >= d ** 4 * 8  # the read did build the tensor
        assert end - start <= d ** 3 * 8


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

    @pytest.mark.parametrize("base", [*sorted(la.CATALOG), "so5"])
    def test_closed_matrix_equals_kron_form(self, base, rng):
        model = la.doubled(so_algebra(5) if base == "so5"
                           else la.CATALOG[base]())
        for point in [*(p[:2] for p in EXACT_POINTS), (1.2, 0.3),
                      *(sample_disc(rng) for _ in range(5))]:
            fam = MetricFamily(model, *point)
            assert np.array_equal(fam.ricci_matrix(True),
                                  ricci_closed_by_kron(fam))

    def test_non_einstein_point(self, dsu2):
        assert MetricFamily(dsu2, 0.2, 0.3).einstein_check() is None

    def test_einstein_verdicts_read_no_rank4_tensor(self, monkeypatch, capsys):
        """Only the two ``curvature_tensor`` properties build the rank-4
        curvature: every verdict, oracle and ``check`` runs without them."""
        rank4 = property(lambda self: pytest.fail("rank-4 curvature built"))
        monkeypatch.setattr(MetricFamily, "curvature_tensor", rank4)
        monkeypatch.setattr(pq.PiAQModel, "curvature_tensor", rank4)
        for base in (la.su2, la.sl2r, la.so4):
            model = la.doubled(base())
            x, y, z = np.eye(model.dim2)[:3]
            got = [p[:2] for p in classify_einstein(model)]
            assert np.allclose(got, [p[:2] for p in EXACT_POINTS],
                               rtol=0.0, atol=1e-12)
            assert MetricFamily(model, 0.0, 0.0).einstein_check() == (
                pytest.approx(0.25))
            fam = MetricFamily(model, 0.2, 0.3)
            assert fam.einstein_check() is None
            fam.ricci_contracted(x)
            M = model.as_piaq()
            assert pq.predicate_report(M, "integrable")["verdict"] is False
        fam.curvature(x, y, z)
        pq.curvature(M, x, y, z)
        assert cli.main(["check", "--samples", "3"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("n", [6, 7])
    def test_rank3_ricci_equals_rank4_trace(self, n, dso6):
        model = dso6 if n == 6 else la.doubled(so_algebra(7))
        fam = MetricFamily(model, 0.3, 0.1)
        want = np.einsum("ij,aijl->la", fam.sheaf_inverse, fam.curvature_tensor)
        got = fam.ricci_matrix(False)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(got - fam.ricci_matrix(True)).max() <= (
            1e-12 * np.abs(want).max())

    def test_working_memory_is_below_a_quarter_of_rank4(self, dso6):
        """Peak traced allocation of the integrable verdict and the
        contracted Ricci on doubled so(6), connection included, against a
        quarter of one d^4 float tensor."""
        d = dso6.dim2
        for run in (lambda: pq.predicate_report(dso6.as_piaq(), "integrable"),
                    lambda: MetricFamily(dso6, 0.3, 0.1).ricci_matrix(False)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < d ** 4 * 8 / 4

    def test_closed_path_requires_semisimple(self):
        """The closed Ricci needs a semisimple base, and no doubled model
        has another: u(2) = su(2) + R, whose trace form is degenerate but
        not zero, is refused at doubling."""
        line = la.LieAlgebraModel(1, np.zeros((1, 1, 1)), name="R")
        with pytest.raises(NotSemisimple):
            la.doubled(la.direct_sum(la.su2(), line))


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

    def test_symmetric_pair_share_constant(self, dsu2):
        ep = MetricFamily(dsu2, 1 / 3, -2 / 3).einstein_check()
        em = MetricFamily(dsu2, -1 / 3, -2 / 3).einstein_check()
        assert ep == pytest.approx(em, abs=1e-12)

    def test_coarse_sweep_isolates_the_points(self):
        grid = einstein_sweep(res=0.05)
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

    @pytest.mark.parametrize("res", ["0.05", "0.01"])
    def test_sweep_is_bit_identical_to_its_snapshot(self, res):
        """The grid arrays (by SHA-256 of their bytes) and the polished
        points (as hex floats) equal ``sweep_snapshot.json`` bit for bit."""
        want = json.loads(SWEEP_SNAPSHOT.read_text())[res]
        grid = einstein_sweep(res=float(res))
        assert grid["lam"].size == want["size"]
        for key, digest in want["sha256"].items():
            data = np.ascontiguousarray(grid[key], "<f8").tobytes()
            assert hashlib.sha256(data).hexdigest() == digest, key
        assert [[float(x).hex() for x in p]
                for p in grid["einstein_points"]] == want["einstein_points"]

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

    def test_sweep_lands_on_the_exact_points(self):
        """Newton-polished coarse minima are the four points to 1e-15, from
        every resolution up to 0.3: no basin is lost on a coarse grid."""
        for res in [*np.geomspace(1e-3, 0.3, 200), 0.05, 0.01, 0.001]:
            pts = einstein_sweep(res=float(res))["einstein_points"]
            assert len(pts) == 4, res
            for got, want in zip(pts, EXACT_POINTS):
                assert np.abs(np.subtract(got, want)).max() <= 1e-15, res

    def test_sweep_points_pass_the_family_rule(self):
        """At 40 resolutions log-uniform in [5e-3, 5], every reported point
        is one of the four and passes ``einstein_constant``, the sweep's only
        Einstein verdict; (0, 0) and (0, -1/2) come out with lam exactly
        +0.0, as a start on the mu axis stays on it bit for bit.  All four
        are reported up to 0.3; a coarser grid (5 points at res 0.8) need
        not start near every one."""
        rng = np.random.default_rng(29)
        for res in np.exp(rng.uniform(math.log(5e-3), math.log(5.0), 40)):
            pts = einstein_sweep(res=float(res))["einstein_points"]
            if res <= 0.3:
                assert len(pts) == 4, res
            assert pts and len({(l, m) for l, m, _ in pts}) == len(pts), res
            for lam, mu, eps in pts:
                assert einstein_constant(lam, mu) is not None, (res, lam, mu)
                want = min(EXACT_POINTS,
                           key=lambda w: math.hypot(lam - w[0], mu - w[1]))
                assert np.abs(np.subtract((lam, mu, eps), want)).max() <= 1e-15
                if want[0] == 0.0:
                    assert lam.hex() == "0x0.0p+0", (res, mu)

    @pytest.mark.parametrize("res", [0.05, 0.01, 0.3])
    def test_sweep_eps_is_the_family_constant(self, res):
        """Every point's eps is ``einstein_constant`` at its (lam, mu), bit
        for bit."""
        pts = einstein_sweep(res=res)["einstein_points"]
        assert len(pts) == 4
        for lam, mu, eps in pts:
            assert eps.hex() == einstein_constant(lam, mu).hex(), (res, lam, mu)

    def test_sweep_scans_the_disc_by_the_family_rule(self):
        """``points_scanned`` is the number of ticks (res i, res j), counted
        one by one over a square wider than the grid, with d0 >
        ``DEGENERACY_TOL``, the rule of ``family.check_point``: at 0.01 and
        at 40 resolutions log-uniform in [0.01, 5] from default_rng(30).  At
        0.01 it is also the benchmark oracle's disc count."""
        rng = np.random.default_rng(30)
        for res in [0.01, *np.exp(rng.uniform(math.log(0.01),
                                              math.log(5.0), 40))]:
            res = float(res)
            k = math.floor(1.0 / res) + 1
            want = sum(_d0(res * i, res * j) > DEGENERACY_TOL
                       for i in range(-k, k + 1) for j in range(-k, k + 1))
            assert einstein_sweep(res=res)["lam"].size == want, res
        spec = importlib.util.spec_from_file_location(
            "oracles", pathlib.Path(__file__).parents[1] / "bench" / "oracles.py")
        oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracles)
        assert (einstein_sweep(res=0.01)["lam"].size
                == oracles.disc_grid_size(0.01) == 31397)

    def test_sweep_raises_no_warning(self):
        """Also with every numpy warning an error, up to a single grid
        point: the polish evaluates nothing on the degeneracy circle."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for res in np.geomspace(1e-3, 5.0, 60):
                einstein_sweep(res=float(res))

    def test_einstein_system_is_the_scaled_coefficients(self, rng):
        """f = 4 d0 (C, D, A - B) to 1e-12 relative, and its derivatives
        agree with central differences."""
        h = 1e-6
        for _ in range(200):
            lam, mu = sample_disc(rng)
            A, B, C, D = ricci_coefficients(lam, mu)
            scaled = 4 * _d0(lam, mu) * np.array([C, D, A - B])
            f, f_lam, f_mu = _einstein_system(lam, mu)
            assert np.abs(f - scaled).max() <= 1e-12 * np.abs(scaled).max()
            for got, dl, dm in ((f_lam, h, 0.0), (f_mu, 0.0, h)):
                diff = (_einstein_system(lam + dl, mu + dm)[0]
                        - _einstein_system(lam - dl, mu - dm)[0]) / (2 * h)
                assert np.abs(got - diff).max() <= 1e-8 * (1 + np.abs(got).max())


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
                calJ = fam.calJ
                b = fam.nabla_endo_closed("calJ", x, y)
                for a, want in ((fam.nabla_endo(calJ, x, y), b),
                                (fam.nabla_endo(-calJ, x, y), -b)):
                    assert np.abs(a - want).max() < 1e-9 * (1 + np.abs(a).max())

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
        want = nearly_kahler_loop(fam)
        assert abs(fam.nearly_kahler_defect() - want) <= 1e-12 * (1 + want)


class TestHermitianClasses:
    def test_the_three_examples(self, dsu2):
        assert MetricFamily(dsu2, 0.0, -0.5).hermitian_class_checks() == {
            "nearly_kahler": True, "quasi_kahler": True, "g1": True}
        assert MetricFamily(dsu2, 0.3, 0.1).hermitian_class_checks() == {
            "nearly_kahler": False, "quasi_kahler": False, "g1": True}
        assert MetricFamily(dsu2, 0.0, 0.0).hermitian_class_checks() == {
            "nearly_kahler": False, "quasi_kahler": False, "g1": True}

    POINTS = ((0.0, -0.5), (0.3, 0.1), (0.0, 0.0), (1 / 3, -2 / 3))

    @classmethod
    def profile(cls, A):
        """The Einstein points of A's doubled model, and the Einstein and
        Hermitian-class verdicts at ``POINTS``."""
        dm = la.doubled(A)
        fams = [MetricFamily(dm, *point) for point in cls.POINTS]
        return (np.round(classify_einstein(dm), 9).tolist(),
                [f.einstein_check() is not None for f in fams],
                [f.hermitian_class_checks() for f in fams])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 6.0))
    @example(0, -5.0)
    def test_verdicts_do_not_depend_on_scale_or_basis(self, seed, log_t):
        """The base bracket rescaled by t and written in a random basis: the
        doubled model is built on the trace-form-orthonormal bracket, so
        every verdict is the one of the catalog algebra."""
        rng = np.random.default_rng(seed)
        for base in (la.su2, la.sl2r, la.so4):
            A = base()
            c = conjugate_structure(10.0 ** log_t * A.c,
                                    _well_conditioned(rng, A.dim))
            assert (self.profile(la.LieAlgebraModel(A.dim, c))
                    == self.profile(A))

    CLASS_BASES = {base.__name__: la.doubled(base())
                   for base in (la.su2, la.sl2r, la.so4)}

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-11.0, math.log10(0.5)), st.floats(0.0, 2 * math.pi))
    @example(-10.0, math.atan2(0.8, 0.6))
    def test_whole_open_disc_is_g1(self, log_d0, angle):
        """The paper's G1 claim up to the degeneracy circle: lam^2 + mu^2 =
        1 - d0 with d0 log-uniform in [1e-11, 0.5], where nabla grows like
        1/d0 and calJ like 1/sqrt(d0); the bound grows with them."""
        r = math.sqrt(1.0 - 10.0 ** log_d0)
        for dm in self.CLASS_BASES.values():
            fam = MetricFamily(dm, r * math.cos(angle), r * math.sin(angle))
            assert fam.hermitian_class_checks()["g1"]

    @pytest.mark.parametrize("name", ["su2", "sl2r", "so4"])
    @pytest.mark.parametrize("lam,at_point", [(0.0, True), (1e-7, False),
                                              (0.1, False)])
    def test_nearly_and_quasi_kahler_at_the_point_only(self, name, lam,
                                                       at_point):
        """The relative defects off (0, -1/2) are about 1e-7 at lam = 1e-7,
        far above the bound, and rounding level at the point."""
        fam = MetricFamily(self.CLASS_BASES[name], lam, -0.5)
        assert fam.hermitian_class_checks() == {
            "nearly_kahler": at_point, "quasi_kahler": at_point, "g1": True}

    def test_outside_disc_rejected(self, dsu2):
        with pytest.raises(Degenerate):
            MetricFamily(dsu2, 1.2, 0.9).hermitian_class_checks()
