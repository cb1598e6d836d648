"""Structure-constant algebras, the trace form, and the doubled model."""

import numpy as np
import pytest

from aqlab import liealg as la
from aqlab.errors import DegenerateInner, InvalidModel, NotSemisimple


class TestModelValidation:
    def test_from_brackets_antisymmetrizes(self):
        m = la.from_brackets(3, [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (3, 1, 2, 1.0)])
        assert m.c[0, 1, 2] == 1.0 and m.c[1, 0, 2] == -1.0

    def test_jacobi_failure_rejected(self):
        entries = [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (3, 1, 2, 1.0),
                   (1, 2, 1, 0.5)]
        with pytest.raises(InvalidModel):
            la.from_brackets(3, entries)

    def test_out_of_range_index(self):
        with pytest.raises(InvalidModel):
            la.from_brackets(2, [(1, 3, 1, 1.0)])

    @pytest.mark.parametrize("dim", [la.MAX_DIM + 1, 10**6, 0, -3, True, 2.5,
                                     float("nan"), float("inf"), "3", None])
    def test_dim_outside_bound_rejected_before_allocation(self, dim):
        with pytest.raises(InvalidModel, match="dim must be an integer"):
            la.from_brackets(dim, [])

    def test_integral_float_dim_accepted(self):
        assert la.from_brackets(3.0, [(1, 2, 3, 1.0), (2, 3, 1, 1.0),
                                      (3, 1, 2, 1.0)]).dim == 3

    def test_bracket_tensor_skips_jacobi(self):
        """The records of a non-Lie bracket give its tensor; only the model
        checks the Jacobi identity."""
        recs = [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (3, 1, 2, 1.0), (1, 2, 1, 0.5)]
        c = la.bracket_tensor(3, recs)
        assert c[0, 1, 0] == 0.5 and c[1, 0, 0] == -0.5
        with pytest.raises(InvalidModel, match="Jacobi"):
            la.LieAlgebraModel(3, c)
        with pytest.raises(InvalidModel, match="dim must be an integer"):
            la.bracket_tensor(la.MAX_DIM + 1, recs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e400])
    def test_non_finite_bracket_value_rejected(self, value):
        with pytest.raises(InvalidModel, match="out of range"):
            la.bracket_tensor(3, [(1, 2, 3, value)])

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidModel, match="must be 3"):
            la.LieAlgebraModel(3, np.zeros((3, 3, 2)))

    def test_non_antisymmetric_rejected(self):
        c = np.zeros((2, 2, 2))
        c[0, 1, 0] = 1.0  # no [e_2, e_1] counterpart
        with pytest.raises(InvalidModel, match="not antisymmetric"):
            la.LieAlgebraModel(2, c)

    def test_doubled_computes_the_trace_form_once(self, monkeypatch):
        calls = []
        real = la.killing_form
        monkeypatch.setattr(la, "killing_form",
                            lambda A: calls.append(A) or real(A))
        la.doubled(la.su2())
        assert len(calls) == 1

    def test_bracket_and_ad(self):
        m = la.su2()
        assert np.allclose(m.bracket([1, 0, 0], [0, 1, 0]), [0, 0, 1])
        ad1 = m.ad([1, 0, 0])
        assert np.allclose(ad1 @ np.array([0, 1, 0]), [0, 0, 1])
        assert np.allclose(ad1 @ np.array([0, 0, 1]), [0, -1, 0])


class TestKillingForm:
    def test_su2_is_twice_identity(self):
        assert np.allclose(la.killing_form(la.su2()), 2 * np.eye(3))

    def test_abelian_is_zero(self):
        flat = la.LieAlgebraModel(3, np.zeros((3, 3, 3)), name="R3")
        assert np.abs(la.killing_form(flat)).max() == 0.0
        assert not la.is_semisimple(flat)

    def test_sl2r_signature(self):
        """With K = -tr(ad ad) the split form has one positive direction.

        Eigenvalues come out as (-8, -4, +4) in the (H, E, F) basis.
        """
        eig = np.linalg.eigvalsh(la.killing_form(la.sl2r()))
        assert np.allclose(sorted(eig), [-8.0, -4.0, 4.0])
        assert la.is_semisimple(la.sl2r())

    def test_ad_invariance(self, rng):
        for model in (la.su2(), la.sl2r(), la.so4()):
            k = la.killing_form(model)
            for _ in range(50):
                x, y, w = rng.normal(size=(3, model.dim))
                lhs = model.bracket(w, x) @ k @ y + x @ k @ model.bracket(w, y)
                assert abs(lhs) < 1e-10 * (1 + np.abs(k).max())


class TestContractionIdentity:
    def test_su2_basis_vector_by_hand(self):
        got = la.lemma2_check(la.su2(), [1.0, 0.0, 0.0])
        assert np.allclose(got, [-1.0, 0.0, 0.0])

    def test_zero_vector(self):
        assert np.abs(la.lemma2_check(la.su2(), np.zeros(3))).max() == 0.0

    @pytest.mark.parametrize("name", ("su2", "sl2r", "so4"))
    def test_random_vectors(self, name, rng):
        model = la.CATALOG[name]()
        for _ in range(50):
            x = rng.normal(size=model.dim)
            assert np.abs(la.lemma2_check(model, x) + x).max() < 1e-10 * (
                1 + np.abs(x).max())

    def test_rejects_degenerate(self):
        flat = la.LieAlgebraModel(2, np.zeros((2, 2, 2)))
        with pytest.raises(NotSemisimple):
            la.lemma2_check(flat, [1.0, 0.0])

    @pytest.mark.parametrize("name", ("su2", "sl2r", "so4"))
    def test_signed_orthonormal_corollary(self, name, rng):
        """sum_i eps_i [[X, f_i], f_i] = -X in a pseudo-orthonormal basis."""
        model, eps, _ = la.pseudo_orthonormalize(la.CATALOG[name]())
        kform = la.killing_form(model)
        assert np.allclose(kform, np.diag(eps), atol=1e-10)
        for _ in range(20):
            x = rng.normal(size=model.dim)
            total = sum(
                eps[i] * model.bracket(model.bracket(x, np.eye(model.dim)[i]),
                                       np.eye(model.dim)[i])
                for i in range(model.dim))
            assert np.abs(total + x).max() < 1e-10 * (1 + np.abs(x).max())


class TestDoubledModel:
    def test_operator_relations(self):
        dm = la.doubled(la.su2())
        eye = np.eye(dm.dim2)
        assert np.array_equal(dm.I @ dm.I, eye)
        assert np.array_equal(dm.J @ dm.J, eye)
        assert np.abs(dm.I @ dm.J + dm.J @ dm.I).max() == 0.0
        assert np.array_equal(dm.K @ dm.K, -eye)

    def test_mixed_factors_commute(self, rng):
        dm = la.doubled(la.su2())
        n = dm.n
        for _ in range(20):
            x = np.concatenate([rng.normal(size=n), np.zeros(n)])
            y = np.concatenate([np.zeros(n), rng.normal(size=n)])
            assert np.abs(dm.bracket2(x, y)).max() == 0.0

    def test_operator_bracket_identities(self, rng):
        """[IX, Y] = [X, IY] = I[X, Y] and J[X, Y] = [JX, JY]."""
        dm = la.doubled(la.su2())
        for _ in range(500):
            x, y = rng.normal(size=(2, dm.dim2))
            bxy = dm.bracket2(x, y)
            assert np.abs(dm.bracket2(dm.I @ x, y) - dm.I @ bxy).max() < 1e-12
            assert np.abs(dm.bracket2(x, dm.I @ y) - dm.I @ bxy).max() < 1e-12
            assert np.abs(dm.bracket2(dm.J @ x, dm.J @ y)
                          - dm.J @ bxy).max() < 1e-12

    def test_orthonormalized_metric_blocks(self):
        for name in ("su2", "sl2r"):
            dm = la.doubled(la.CATALOG[name]())
            assert np.allclose(dm.g0, np.diag(np.concatenate([dm.eps, dm.eps])))
            assert dm.killing_base

    def test_custom_inner(self):
        dm = la.doubled(la.su2(), np.eye(3))
        assert not dm.killing_base
        assert np.allclose(dm.eps, 1.0)

    def test_degenerate_inner_rejected(self):
        with pytest.raises(DegenerateInner):
            la.doubled(la.su2(), np.zeros((3, 3)))
        with pytest.raises(DegenerateInner):
            la.doubled(la.su2(), np.array([[1.0, 2.0, 0], [0, 1, 0], [0, 0, 1]]))

    def test_abelian_base_needs_explicit_inner(self):
        flat = la.LieAlgebraModel(2, np.zeros((2, 2, 2)), name="R2")
        with pytest.raises(DegenerateInner):
            la.doubled(flat)  # trace form is zero
        dm = la.doubled(flat, np.eye(2))
        assert dm.dim2 == 4

    def test_as_piaq_roundtrip(self):
        model = la.doubled(la.su2()).as_piaq()
        assert model.alpha == 1 and model.dim == 6


class TestDirectSum:
    def test_so4_is_block_sum(self):
        so4 = la.so4()
        assert so4.dim == 6
        assert np.abs(so4.c[:3, 3:, :]).max() == 0.0
        assert np.allclose(la.killing_form(so4), 2 * np.eye(6))
