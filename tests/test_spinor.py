"""Spin vectors, spin bases, and orbit dimensions."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqlab import quat as qt
from aqlab import scalars as sk
from aqlab import spinor as sp
from aqlab.errors import (NotAQStructure, OrthonormalityViolated,
                          SignatureMismatch, ZeroVector)
from conftest import bits, random_aq_pair, random_pseudo_rotation, ring_pairs

ALPHAS = (-1, 1)


def rand_vec(rng, alpha):
    a, b, c, d = rng.normal(size=4)
    return sp.SpinVector(sk.ScalarKA(a, b, alpha), sk.ScalarKA(c, d, alpha))


def rand_quat(rng, alpha):
    return qt.from_coeffs(rng.normal(size=4), alpha)


alphas = st.sampled_from(ALPHAS)
vectors = st.tuples(ring_pairs, ring_pairs)


# The fused operations as they were written before: nested calls of the
# scalar operations, the references for bit equality.

def hermitian_form_nested(X, Y):
    al = float(X.alpha)
    return sk.add(sk.mul(sk.conj(X.x1), Y.x1),
                  sk.scale(-al, sk.mul(sk.conj(X.x2), Y.x2)))


def apply_matrix_nested(m, X):
    return sp.SpinVector(sk.add(sk.mul(m[0, 0], X.x1), sk.mul(m[0, 1], X.x2)),
                         sk.add(sk.mul(m[1, 0], X.x1), sk.mul(m[1, 1], X.x2)))


class TestFusedOperations:
    @given(alphas, vectors, vectors)
    @settings(max_examples=300)
    def test_bit_equal_to_nested_formulas(self, alpha, x, y):
        X, Y = sp.svec(*x, alpha), sp.svec(*y, alpha)
        assert bits(sp.hermitian_form(X, Y)) == bits(hermitian_form_nested(X, Y))
        m = qt.smat((x, y), alpha)
        assert bits(sp.apply_matrix(m, X)) == bits(apply_matrix_nested(m, X))
        q = qt.from_coeffs([*x[0], *y[1]], alpha)
        assert bits(sp.apply(q, Y)) == bits(
            apply_matrix_nested(qt.spin_matrix(q), Y))

    def test_fields_are_frozen(self):
        X = sp.svec(1, 0, -1)
        for name in ("x1", "x2"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(X, name, sk.one(-1))

    def test_mixed_signatures_rejected(self):
        X, Y = sp.svec(1, 0, -1), sp.svec(1, 0, 1)
        with pytest.raises(SignatureMismatch):
            sp.hermitian_form(X, Y)
        with pytest.raises(SignatureMismatch):
            sp.scalar_mul(sk.one(1), X)
        with pytest.raises(SignatureMismatch):
            sp.apply(qt.i_(1), X)
        with pytest.raises(SignatureMismatch):
            sp.SpinVector(sk.one(1), sk.one(-1))


class TestHermitianForm:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_standard_basis_norms(self, alpha):
        e1 = sp.svec(1, 0, alpha)
        e2 = sp.svec(0, 1, alpha)
        assert sp.hermitian_form(e1, e1) == sk.one(alpha)
        assert sp.hermitian_form(e2, e2) == sk.from_real(-alpha, alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_conformality(self, alpha, rng):
        for _ in range(100):
            q = rand_quat(rng, alpha)
            X, Y = rand_vec(rng, alpha), rand_vec(rng, alpha)
            lhs = sp.hermitian_form(sp.apply(q, X), sp.apply(q, Y))
            rhs = sk.scale(qt.qnormsq(q), sp.hermitian_form(X, Y))
            assert sk.close(lhs, rhs, tol=1e-10 * (1 + sk.abs2norm(rhs)))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_polarization_identities(self, alpha, rng):
        """Real part symmetry and the scalar-unit expansion of the form."""
        i3 = sk.scale(float(alpha), sk.imag_unit(alpha))  # i^3 = alpha i
        for _ in range(100):
            X, Y = rand_vec(rng, alpha), rand_vec(rng, alpha)
            h = sp.hermitian_form(X, Y)
            sym = 0.5 * (h.re + sp.hermitian_form(Y, X).re)
            assert abs(sp.real_inner(X, Y) - sym) < 1e-12 * (1 + abs(sym))
            rebuilt = sk.add(
                sk.from_real(sp.real_inner(X, Y), alpha),
                sk.mul(sk.imag_unit(alpha),
                       sk.from_real(sp.real_inner(X, sp.scalar_mul(i3, Y)),
                                    alpha)))
            assert sk.close(h, rebuilt, tol=1e-12 * (1 + sk.abs2norm(h)))


class TestApply:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_basis_actions(self, alpha):
        e1 = sp.svec(1, 0, alpha)
        X = rand_vec(np.random.default_rng(3), alpha)
        assert sp.apply(qt.one(alpha), X) == X
        assert sp.apply(qt.i_(alpha), e1) == sp.svec(sk.imag_unit(alpha), 0, alpha)
        assert sp.apply(qt.j_(alpha), e1) == sp.svec(0, 1, alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_action_is_homomorphism(self, alpha, rng):
        for _ in range(50):
            p, q = rand_quat(rng, alpha), rand_quat(rng, alpha)
            X = rand_vec(rng, alpha)
            lhs = sp.apply(qt.qmul(p, q), X)
            rhs = sp.apply(p, sp.apply(q, X))
            assert (lhs - rhs).max_abs() < 1e-10 * (1 + rhs.max_abs())


def rotated_basis(alpha, rot):
    return sp.IQBasis(*(qt.from_coeffs([0.0, *rot[:, m]], alpha)
                        for m in range(3)))


class TestSpinBasis:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_standard_triple_is_identity(self, alpha):
        res = sp.spinbasis(sp.IQBasis(qt.i_(alpha), qt.j_(alpha), qt.k_(alpha)))
        assert res.sign == 1
        ident = qt.smat((((1, 0), (0, 0)), ((0, 0), (1, 0))), alpha)
        assert qt.smat_close(res.matrix, ident, tol=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_orientation_reversal(self, alpha):
        res = sp.spinbasis(sp.IQBasis(qt.i_(alpha), qt.j_(alpha), -qt.k_(alpha)))
        assert res.sign == -1
        ident = qt.smat((((1, 0), (0, 0)), ((0, 0), (1, 0))), alpha)
        assert qt.smat_close(res.matrix, ident, tol=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_random_rotations_conjugate_to_pauli(self, alpha, rng):
        gram = np.diag([-float(alpha), -float(alpha), 1.0])
        paulis = qt.pauli_matrices(alpha)
        for _ in range(60):
            rot = random_pseudo_rotation(gram, rng)
            basis = rotated_basis(alpha, rot)
            res = sp.spinbasis(basis)
            assert res.sign == 1
            for m, want in enumerate(paulis):
                got = sp.matrix_in_spinbasis(list(basis)[m], res)
                assert qt.smat_close(got, want, tol=1e-9)

    def test_gram_failure_reports_entry(self):
        bad = sp.IQBasis(qt.i_(-1), qt.i_(-1), qt.k_(-1))
        with pytest.raises(OrthonormalityViolated) as err:
            sp.spinbasis(bad)
        assert err.value.entry is not None

    def test_gram_check_fails_on_nan(self):
        """NaN compares false, so a bound written as a failure test let it by."""
        bad = sp.IQBasis(qt.from_coeffs([0.0, float("nan"), 0.0, 0.0], -1),
                         qt.j_(-1), qt.k_(-1))
        with pytest.raises(OrthonormalityViolated, match="nan"):
            sp.check_iq_basis(bad)

    def test_mixed_signatures_rejected(self):
        with pytest.raises(SignatureMismatch):
            sp.check_iq_basis(sp.IQBasis(qt.i_(-1), qt.j_(1), qt.k_(-1)))

    def test_non_imaginary_member_rejected(self):
        real_part = qt.from_coeffs([1.0, 1.0, 0.0, 0.0], -1)
        with pytest.raises(OrthonormalityViolated, match="purely imaginary"):
            sp.check_iq_basis(sp.IQBasis(real_part, qt.j_(-1), qt.k_(-1)))

    def test_exhausted_seeds_raise(self, monkeypatch):
        """Only-eigenvector seeds surface the degenerate branch."""
        from aqlab.errors import DegenerateEigenvector

        monkeypatch.setattr(sp, "_seed_vectors",
                            lambda alpha: [sp.svec(1, 0, alpha)])
        basis = sp.IQBasis(qt.i_(1), qt.j_(1), qt.k_(1))
        with pytest.raises(DegenerateEigenvector):
            sp.spinbasis(basis)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_constructed_basis_is_orthonormal(self, alpha, rng):
        gram = np.diag([-float(alpha), -float(alpha), 1.0])
        rot = random_pseudo_rotation(gram, rng)
        res = sp.spinbasis(rotated_basis(alpha, rot))
        e1 = sp.SpinVector(res.matrix[0, 0], res.matrix[1, 0])
        e2 = sp.SpinVector(res.matrix[0, 1], res.matrix[1, 1])
        assert sp.hermitian_form(e1, e1).re == pytest.approx(1.0, abs=1e-9)
        assert sp.hermitian_form(e2, e2).re == pytest.approx(-alpha, abs=1e-9)
        assert sk.abs2norm(sp.hermitian_form(e1, e2)) < 1e-9


class TestOrbitDimension:
    def test_eigenvector_gives_two(self, rng):
        I, J = random_aq_pair(rng, 4, 1)
        w, v = np.linalg.eig(I)
        X = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        assert sp.orbit_dimension(I, J, X) == 2

    def test_complex_case_always_four(self, rng):
        I, J = random_aq_pair(rng, 4, -1)
        for _ in range(50):
            assert sp.orbit_dimension(I, J, rng.normal(size=4)) == 4

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("dim", (4, 8))
    def test_dichotomy_with_rank_oracle(self, alpha, dim, rng):
        for _ in range(100):
            I, J = random_aq_pair(rng, dim, alpha)
            X = rng.normal(size=dim)
            d = sp.orbit_dimension(I, J, X)
            cols = np.column_stack([X, I @ X, J @ X, I @ J @ X])
            oracle = np.linalg.matrix_rank(cols, tol=1e-8 * np.linalg.svd(
                cols, compute_uv=False)[0])
            assert d == oracle
            assert d in (2, 4)

    def test_rejects_bad_structure(self, rng):
        with pytest.raises(NotAQStructure):
            sp.orbit_dimension(np.eye(4), np.eye(4), np.ones(4))

    def test_rejects_zero_vector(self, rng):
        I, J = random_aq_pair(rng, 4, -1)
        with pytest.raises(ZeroVector):
            sp.orbit_dimension(I, J, np.zeros(4))

    def test_membership_helper(self, rng):
        I, J = random_aq_pair(rng, 4, 1)
        w, v = np.linalg.eig(I)
        X = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        assert sp.isotropic_kernel_member(I, J, X)
        assert not sp.isotropic_kernel_member(I, J, np.ones(4) + X)
