"""Canonical connections of twistor-pair models and their predicates."""

import numpy as np
import pytest

from aqlab import liealg as la
from aqlab import piaq as pq
from aqlab.errors import (
    InvalidModel,
    InvalidMu,
    NonLieBracket,
    NotEigenvalue,
    NotTwistor,
    WrongSignature,
)
from conftest import (_well_conditioned, conjugate_structure, random_piaq_model,
                      standard_pair)

ALPHAS = (-1, 1)


@pytest.fixture(scope="module")
def doubled_su2():
    return la.doubled(la.su2()).as_piaq()


def abelian(alpha, dim=4):
    return pq.abelian_model(dim, *standard_pair(dim, alpha), alpha)


class TestModelValidation:
    def test_rejects_commuting_pair(self):
        with pytest.raises(InvalidModel):
            pq.PiAQModel(4, np.zeros((4, 4, 4)), np.eye(4), np.eye(4), 1)

    @pytest.mark.parametrize("alpha", [0, 2, -1.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(InvalidModel, match="alpha"):
            pq.PiAQModel(4, np.zeros((4, 4, 4)), *standard_pair(4, 1), alpha)

    def test_rejects_shape_mismatch(self):
        I, J = standard_pair(4, 1)
        with pytest.raises(InvalidModel, match="shape"):
            pq.PiAQModel(4, np.zeros((4, 4, 3)), I, J, 1)
        with pytest.raises(InvalidModel, match="shape"):
            pq.PiAQModel(2, np.zeros((2, 2, 2)), I, J, 1)

    def test_rejects_asymmetric_bracket(self):
        c = np.zeros((4, 4, 4))
        c[0, 1, 2] = 1.0  # no antisymmetric counterpart
        I, J = standard_pair(4, 1)
        with pytest.raises(InvalidModel):
            pq.PiAQModel(4, c, I, J, 1)

    def test_jacobi_flag(self, rng):
        m = random_piaq_model(rng, 1)
        assert m.is_lie
        c = np.zeros((4, 4, 4))
        c[0, 1, 2] = c[1, 2, 0] = c[2, 0, 1] = 1.0
        c -= c.transpose(1, 0, 2)
        c[0, 3, 0] = 1.0
        c[3, 0, 0] = -1.0
        bad = pq.PiAQModel(4, c, *standard_pair(4, 1), 1)
        assert not bad.is_lie
        with pytest.warns(NonLieBracket):
            pq.curvature(bad, np.eye(4)[0], np.eye(4)[1], np.eye(4)[2])


class TestCanonicalConnection:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_abelian_connection_vanishes(self, alpha):
        m = abelian(alpha)
        assert np.abs(m.nabla).max() == 0.0

    def test_doubled_connection_vanishes_exactly(self, doubled_su2):
        assert np.abs(doubled_su2.nabla).max() == 0.0
        assert np.abs(doubled_su2.torsion_tensor + doubled_su2.c).max() == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("kind", ("abelian", "u2", "gl2"))
    def test_two_evaluations_agree(self, alpha, kind, rng):
        for _ in range(5):
            m = random_piaq_model(rng, alpha, kind)
            for _ in range(6):
                x, y = rng.normal(size=(2, 4))
                direct = pq.canonical_connection(m, x, y)
                split = pq.canonical_connection_split(m, x, y)
                assert np.abs(direct - split).max() < 1e-11 * (
                    1 + np.abs(direct).max())

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("kind", ("abelian", "u2", "gl2"))
    def test_projector_tensor_equals_eight_term_tensor(self, alpha, kind, rng):
        for _ in range(20):
            m = random_piaq_model(rng, alpha, kind)
            split = m.nabla_split
            assert "nabla" not in vars(m)  # built without the eight-term tensor
            assert np.abs(split - m.nabla).max() <= 1e-12 * max(
                1.0, np.abs(m.nabla).max())

    @pytest.mark.parametrize("name", sorted(la.CATALOG))
    def test_projector_tensor_on_doubled_catalog(self, name):
        m = la.doubled(la.CATALOG[name]()).as_piaq()
        split = m.nabla_split
        assert "nabla" not in vars(m)
        assert np.abs(split - m.nabla).max() <= 1e-12 * max(
            1.0, np.abs(m.nabla).max())

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_structure_operators_are_parallel(self, alpha, rng):
        for _ in range(10):
            m = random_piaq_model(rng, alpha)
            n = m.nabla
            scale = 1e-10 * (1 + np.abs(n).max())
            for f in (m.I, m.J):
                lhs = np.einsum("abk,lk->abl", n, f)     # nabla_a (F e_b)
                rhs = np.einsum("jb,ajl->abl", f, n)     # F nabla_a e_b
                assert np.abs(lhs - rhs).max() < scale

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_torsion_symmetry(self, alpha, rng):
        for _ in range(10):
            m = random_piaq_model(rng, alpha)
            s = m.torsion_tensor
            lhs = np.einsum("ia,ijk->ajk", m.I, s)   # S(IX, Y)
            rhs = np.einsum("jb,ajk->abk", m.I, s)   # S(X, IY)
            assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(s).max())

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_torsion_antisymmetric_and_bilinear(self, alpha, rng):
        m = random_piaq_model(rng, alpha)
        for _ in range(20):
            x, y = rng.normal(size=(2, 4))
            s = pq.torsion(m, x, y)
            assert np.abs(s + pq.torsion(m, y, x)).max() < 1e-10 * (
                1 + np.abs(s).max())


class TestCurvature:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_abelian_curvature_vanishes(self, alpha):
        assert np.abs(abelian(alpha).curvature_tensor).max() == 0.0

    def test_doubled_velocity_flat_but_torsive(self, doubled_su2):
        assert np.abs(doubled_su2.curvature_tensor).max() == 0.0
        assert np.abs(doubled_su2.torsion_tensor).max() > 0.1
        assert not pq.is_integrable(doubled_su2)

    def test_linearity(self, rng):
        m = random_piaq_model(rng, -1)
        x, y, z, w = rng.normal(size=(4, 4))
        a, b = rng.normal(size=2)
        lhs = pq.curvature(m, x, y, a * z + b * w)
        rhs = a * pq.curvature(m, x, y, z) + b * pq.curvature(m, x, y, w)
        assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(lhs).max())
        assert np.abs(pq.curvature(m, x, y, z)
                      + pq.curvature(m, y, x, z)).max() < 1e-10


class TestNijenhuis:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_abelian_vanishes(self, alpha):
        m = abelian(alpha)
        x, y = np.eye(4)[0], np.eye(4)[1]
        assert np.abs(pq.nijenhuis(m, m.I, x, y)).max() == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_operator_shift_identity(self, alpha, rng):
        """F N_F(X, Y) + N_F(FX, Y) = 0."""
        for _ in range(5):
            m = random_piaq_model(rng, alpha)
            for f in (m.I, m.J):
                for _ in range(5):
                    x, y = rng.normal(size=(2, 4))
                    lhs = f @ pq.nijenhuis(m, f, x, y) + pq.nijenhuis(m, f, f @ x, y)
                    assert np.abs(lhs).max() < 1e-10 * (1 + np.abs(f @ x).max())

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_torsion_expression(self, alpha, rng):
        """N_F = -s S(X, Y) - S(FX, FY) + F S(FX, Y) + F S(X, FY), s = F^2."""
        for _ in range(5):
            m = random_piaq_model(rng, alpha)
            for f, s in ((m.I, alpha), (m.J, alpha), (m.K, -1.0)):
                for _ in range(5):
                    x, y = rng.normal(size=(2, 4))
                    fx, fy = f @ x, f @ y
                    want = (-s * pq.torsion(m, x, y) - pq.torsion(m, fx, fy)
                            + f @ pq.torsion(m, fx, y) + f @ pq.torsion(m, x, fy))
                    got = pq.nijenhuis(m, f, x, y)
                    assert np.abs(got - want).max() < 1e-11 * (
                        1 + np.abs(want).max())

    def test_doubled_principal_operator_integrable(self, doubled_su2, rng):
        m = doubled_su2
        for _ in range(20):
            x, y = rng.normal(size=(2, m.dim))
            assert np.abs(pq.nijenhuis(m, m.I, x, y)).max() < 1e-12

    def test_rejects_non_twistor(self, rng):
        m = random_piaq_model(rng, 1)
        with pytest.raises(NotTwistor):
            pq.nijenhuis(m, np.diag([1.0, 2.0, 1.0, 1.0]), np.eye(4)[0],
                         np.eye(4)[1])


class TestPredicates:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_abelian_everything_holds(self, alpha):
        m = abelian(alpha)
        assert pq.is_integrable(m)
        assert pq.is_semiholonomic(m)
        if alpha == 1:
            assert pq.is_three_web(m)
            assert pq.fundamental_involutive(m, "I", 1)
            assert pq.fundamental_involutive(m, "J", -1)
        else:
            assert pq.fundamental_involutive(m, "I", "i")
            assert pq.fundamental_involutive(m, "J", "-i")
        assert pq.fundamental_involutive(m, "K", "i")
        assert pq.is_isoclinic_geodesic_const_mu(m, 0.5)

    def test_doubled_profile(self, doubled_su2):
        m = doubled_su2
        assert not pq.is_integrable(m)
        assert pq.is_semiholonomic(m)
        assert pq.is_three_web(m)
        assert pq.fundamental_involutive(m, "I", 1)
        assert pq.fundamental_involutive(m, "I", -1)
        assert pq.fundamental_involutive(m, "J", 1)   # diagonal factor
        assert not pq.fundamental_involutive(m, "J", -1)
        assert not pq.fundamental_involutive(m, "K", "i")
        assert not pq.is_isoclinic_geodesic_const_mu(m, 0.5)

    def test_eigenvalue_validation(self, doubled_su2):
        with pytest.raises(NotEigenvalue):
            pq.fundamental_involutive(doubled_su2, "K", 1)
        with pytest.raises(NotEigenvalue):
            pq.fundamental_involutive(doubled_su2, "I", "i")
        with pytest.raises(NotEigenvalue):
            pq.fundamental_involutive(doubled_su2, "Q", 1)

    def test_invalid_mu(self, doubled_su2):
        with pytest.raises(InvalidMu):
            pq.is_isoclinic_geodesic_const_mu(doubled_su2, 1.0)
        with pytest.raises(InvalidMu):
            pq.is_isoclinic_geodesic_const_mu(doubled_su2, -1.0)

    def test_three_web_needs_split_signature(self, rng):
        with pytest.raises(WrongSignature):
            pq.is_three_web(random_piaq_model(rng, -1))

    def test_random_bracket_is_negative_control(self, rng):
        """Generic brackets break the web identities."""
        failures = 0
        for _ in range(10):
            m = random_piaq_model(rng, 1, "u2")
            if not pq.is_semiholonomic(m) or not pq.is_three_web(m):
                failures += 1
        assert failures >= 8

    def test_trivial_plane_model_integrable(self):
        m = abelian(1, dim=2)
        assert pq.is_integrable(m)


class TestPredicateReport:
    def test_verdict_with_witness(self, doubled_su2):
        rep = pq.predicate_report(doubled_su2, "integrable")
        assert rep["verdict"] is False
        assert rep["residual"] > 0.1
        assert len(rep["witness"]) == 2

    def test_true_verdict_has_no_witness(self, doubled_su2):
        rep = pq.predicate_report(doubled_su2, "three_web")
        assert rep["verdict"] is True
        assert "witness" not in rep

    def test_involutive_report_requires_operator(self, doubled_su2):
        with pytest.raises(NotEigenvalue):
            pq.predicate_report(doubled_su2, "involutive")

    def test_unknown_predicate(self, doubled_su2):
        with pytest.raises(InvalidModel, match="unknown predicate"):
            pq.predicate_report(doubled_su2, "holonomic")

    @pytest.mark.parametrize("lam", ["2i", "j", "one"])
    def test_unrecognized_eigenvalue_literal(self, doubled_su2, lam):
        with pytest.raises(NotEigenvalue, match="unrecognized"):
            pq.predicate_report(doubled_su2, "involutive", lam=lam, f_name="I")

    def test_isoclinic_report(self, doubled_su2):
        rep = pq.predicate_report(doubled_su2, "isoclinic_geodesic", mu=0.5)
        assert rep["verdict"] is False and rep["residual"] > 0.01

    def test_witness_is_first_of_rounding_ties(self):
        defect = np.zeros((3, 3, 2))
        defect[2, 0, 1] = 1.0
        defect[0, 1, 0] = 1.0 - 1e-15  # the same maximum up to rounding
        assert pq._witness(defect) == [0, 1]
        defect[0, 1, 0] = 1.0 - 1e-9  # a smaller entry, not a tie
        assert pq._witness(defect) == [2, 0]

    @pytest.mark.parametrize("base", [la.su2, la.so4])
    @pytest.mark.parametrize("seed", range(4))
    def test_witness_on_conjugated_doubled_models(self, base, seed):
        """Antisymmetric pairs tie on doubled models in a random basis; the
        report names the first of them, whatever rounding left largest."""
        A = la.direct_sum(base(), base())
        t = _well_conditioned(np.random.default_rng(seed), A.dim)
        tinv = np.linalg.inv(t)
        I, J = standard_pair(A.dim, 1)
        M = pq.PiAQModel(A.dim, conjugate_structure(A.c, t), tinv @ I @ t,
                         tinv @ J @ t, 1)
        for name, kw in (("integrable", {}), ("isoclinic_geodesic", {"mu": 0.3})):
            defect = pq._DECIDE[name](M, *kw.values())[1]
            ties = np.argwhere(defect >= (1.0 - 1e-9) * defect.max())
            assert len(ties) >= 2
            rep = pq.predicate_report(M, name, **kw)
            assert rep["witness"] == ties[0][:-1].tolist()
