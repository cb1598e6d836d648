"""Generalized quaternion algebra and its spin representation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqlab import quat as qt
from aqlab import scalars as sk
from aqlab.errors import IsotropicScalar, NotPurelyImaginary, SignatureMismatch
from conftest import bits, ring_pairs

ALPHAS = (-1, 1)


alphas = st.sampled_from(ALPHAS)
quats = st.tuples(ring_pairs, ring_pairs)  # coefficients ((a, b), (c, d))
matrices = st.tuples(ring_pairs, ring_pairs, ring_pairs, ring_pairs)


def units(alpha):
    return qt.one(alpha), qt.i_(alpha), qt.j_(alpha), qt.k_(alpha)


def basis_product_table(alpha):
    """Left-multiplication table worked out from the defining relations.

    i^2 = j^2 = alpha, k^2 = -1, ij = k = -ji, ik = alpha j = -ki,
    jk = -alpha i = -kj.  Kept independent of qmul so it can serve as an
    oracle.
    """
    a = float(alpha)
    table = np.zeros((4, 4, 4))  # table[p, q] = coefficients of e_p e_q
    table[0, :] = np.eye(4)
    table[:, 0] = np.eye(4)
    table[1, 1] = [a, 0, 0, 0]
    table[2, 2] = [a, 0, 0, 0]
    table[3, 3] = [-1, 0, 0, 0]
    table[1, 2] = [0, 0, 0, 1]
    table[2, 1] = [0, 0, 0, -1]
    table[1, 3] = [0, 0, a, 0]
    table[3, 1] = [0, 0, -a, 0]
    table[2, 3] = [0, -a, 0, 0]
    table[3, 2] = [0, a, 0, 0]
    return table


def left_mult_matrix(p, table):
    """4x4 matrix of x -> p x built from the basis table."""
    return np.einsum("p,pqr->rq", p.coeffs(), table)


class TestProduct:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_defining_relations(self, alpha):
        one, i, j, k = units(alpha)
        assert qt.qmul(i, j) == k
        assert qt.qmul(i, i) == qt.scale(alpha, one)
        assert qt.qmul(j, j) == qt.scale(alpha, one)
        assert qt.qmul(k, k) == -one

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_unit(self, alpha):
        q = qt.QuaternionA(0.3, -1.2, 0.5, 2.0, alpha)
        assert qt.qmul(qt.one(alpha), q) == q
        assert qt.qmul(q, qt.one(alpha)) == q

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_against_left_multiplication_oracle(self, alpha, rng):
        table = basis_product_table(alpha)
        for _ in range(200):
            p = qt.from_coeffs(rng.normal(size=4), alpha)
            q = qt.from_coeffs(rng.normal(size=4), alpha)
            got = qt.qmul(p, q).coeffs()
            want = left_mult_matrix(p, table) @ q.coeffs()
            assert np.abs(got - want).max() < 1e-12 * (1 + np.abs(want).max())

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            qt.qmul(qt.i_(1), qt.i_(-1))


class TestNormAndConjugate:
    def test_norm_examples(self):
        q = qt.QuaternionA(1, 1, 1, 1, -1)
        assert qt.qnormsq(q) == 4.0
        q = qt.QuaternionA(1, 1, 1, 1, 1)
        assert qt.qnormsq(q) == 0.0
        assert qt.qnormsq(qt.QuaternionA(5, 0, 0, 0, 1)) == 25.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_norm_is_product_with_conjugate(self, alpha, rng):
        for _ in range(50):
            q = qt.from_coeffs(rng.normal(size=4), alpha)
            prod = qt.qmul(q, qt.qconj(q))
            assert prod.a == pytest.approx(qt.qnormsq(q), abs=1e-12, rel=1e-12)
            assert max(abs(prod.b), abs(prod.c), abs(prod.d)) < 1e-12

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_composition_property(self, alpha, rng):
        for _ in range(1000):
            p = qt.from_coeffs(rng.normal(size=4), alpha)
            q = qt.from_coeffs(rng.normal(size=4), alpha)
            lhs = qt.qnormsq(qt.qmul(p, q))
            rhs = qt.qnormsq(p) * qt.qnormsq(q)
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


class TestScalarProduct:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_orthonormal_pattern(self, alpha):
        _, i, j, k = units(alpha)
        assert qt.scalar_product(i, j) == 0.0
        assert qt.scalar_product(i, i) == -alpha
        assert qt.scalar_product(k, k) == 1.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_polarization_of_norm(self, alpha, rng):
        for _ in range(50):
            p = qt.from_coeffs(rng.normal(size=4), alpha)
            q = qt.from_coeffs(rng.normal(size=4), alpha)
            pola = qt.qmul(qt.qconj(p), q) + qt.qmul(qt.qconj(q), p)
            assert 0.5 * pola.a == pytest.approx(qt.scalar_product(p, q),
                                                 abs=1e-12, rel=1e-10)
            assert qt.scalar_product(q, q) == pytest.approx(qt.qnormsq(q))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_anticommutator_identity_on_imaginaries(self, alpha, rng):
        for _ in range(100):
            p = qt.QuaternionA(0, *rng.normal(size=3), alpha)
            q = qt.QuaternionA(0, *rng.normal(size=3), alpha)
            anti = qt.qmul(p, q) + qt.qmul(q, p)
            want = qt.scale(-2.0 * qt.scalar_product(p, q), qt.one(alpha))
            assert np.abs(anti.coeffs() - want.coeffs()).max() < 1e-12 * (
                1 + np.abs(want.coeffs()).max())


class TestSpinMatrix:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_pauli_images_exact(self, alpha):
        s1, s2, s3 = qt.pauli_matrices(alpha)
        i = sk.imag_unit(alpha)
        assert s1[0, 0] == i and s1[1, 1] == sk.neg(i)
        assert s1[0, 1].re == s1[0, 1].im == 0.0
        assert s2[0, 1] == sk.from_real(alpha, alpha)
        assert s2[1, 0] == sk.one(alpha)
        assert s3[0, 1] == sk.scale(alpha, i)
        assert s3[1, 0] == sk.neg(i)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_homomorphism_and_determinant(self, alpha, rng):
        for _ in range(200):
            p = qt.from_coeffs(rng.normal(size=4), alpha)
            q = qt.from_coeffs(rng.normal(size=4), alpha)
            lhs = qt.spin_matrix(qt.qmul(p, q))
            rhs = qt.spin_matrix(p) @ qt.spin_matrix(q)
            assert (lhs - rhs).max_abs() < 1e-10 * (1 + rhs.max_abs())
            d = qt.spin_matrix(q).det()
            assert d.re == pytest.approx(qt.qnormsq(q), abs=1e-12, rel=1e-10)
            assert abs(d.im) < 1e-12


class TestAdjointMatrix:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_basis_image(self, alpha):
        got = qt.ad_matrix(qt.i_(alpha))
        want = np.array([[0, 0, 0], [0, 0, 2 * alpha], [0, 2, 0]], float)
        assert np.array_equal(got, want)
        assert np.array_equal(qt.ad_matrix(qt.QuaternionA(0, 0, 0, 0, alpha)),
                              np.zeros((3, 3)))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_trace_relations(self, alpha, rng):
        ad = qt.ad_matrix(qt.i_(alpha))
        assert -np.trace(ad @ ad) == pytest.approx(-8.0 * alpha)
        for _ in range(100):
            q = qt.QuaternionA(0, *rng.normal(size=3), alpha)
            n8 = 8.0 * qt.qnormsq(q)
            adq = qt.ad_matrix(q)
            assert -np.trace(adq @ adq) == pytest.approx(n8, rel=1e-10, abs=1e-12)
            m = qt.spin_matrix(q)
            assert -4.0 * (m @ m).real_trace() == pytest.approx(n8, rel=1e-10,
                                                                abs=1e-12)

    def test_rejects_non_imaginary(self):
        with pytest.raises(NotPurelyImaginary):
            qt.ad_matrix(qt.QuaternionA(1, 1, 0, 0, -1))


class TestCommutator:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_table(self, alpha):
        _, i, j, k = units(alpha)
        assert qt.iq_commutator(i, j) == qt.scale(2, k)
        assert qt.iq_commutator(i, i).coeffs().max() == 0.0
        # jk = -alpha i and kj = alpha i, hence [j, k] = -2 alpha i; the
        # classical case alpha = -1 recovers [j, k] = 2i.
        assert qt.iq_commutator(j, k) == qt.scale(-2 * alpha, i)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_jacobi_and_closure(self, alpha, rng):
        for _ in range(50):
            p, q, r = (qt.QuaternionA(0, *rng.normal(size=3), alpha)
                       for _ in range(3))
            assert abs(qt.iq_commutator(p, q).a) < 1e-12
            jac = (qt.iq_commutator(qt.iq_commutator(p, q), r)
                   + qt.iq_commutator(qt.iq_commutator(q, r), p)
                   + qt.iq_commutator(qt.iq_commutator(r, p), q))
            assert np.abs(jac.coeffs()).max() < 1e-10

    def test_rejects_non_imaginary(self):
        with pytest.raises(NotPurelyImaginary):
            qt.iq_commutator(qt.one(-1), qt.i_(-1))


# The composite operations as they were written before they were fused:
# nested calls of the scalar operations, the references for bit equality.

def qmul_nested(p, q):
    z1, z2 = qt.to_pair(p)
    w1, w2 = qt.to_pair(q)
    alpha = float(p.alpha)
    u1 = sk.add(sk.mul(z1, w1), sk.scale(alpha, sk.mul(w2, sk.conj(z2))))
    u2 = sk.add(sk.mul(sk.conj(z1), w2), sk.mul(w1, z2))
    return qt.QuaternionA(u1.re, u1.im, u2.re, -u2.im, p.alpha)


def spin_matrix_nested(q):
    z1, z2 = qt.to_pair(q)
    return qt.SpinMatrix(((z1, sk.scale(float(q.alpha), sk.conj(z2))),
                          (z2, sk.conj(z1))))


def matmul_nested(x, y):
    return qt.SpinMatrix(tuple(
        tuple(sk.add(sk.mul(x.m[r][0], y.m[0][c]), sk.mul(x.m[r][1], y.m[1][c]))
              for c in range(2)) for r in range(2)))


def det_nested(x):
    return sk.mul(x.m[0][0], x.m[1][1]) - sk.mul(x.m[0][1], x.m[1][0])


def inv_nested(x):
    dinv = sk.inv(det_nested(x))
    return qt.SpinMatrix((
        (sk.mul(dinv, x.m[1][1]), sk.mul(dinv, sk.neg(x.m[0][1]))),
        (sk.mul(dinv, sk.neg(x.m[1][0])), sk.mul(dinv, x.m[0][0]))))


def quat_of(pairs, alpha):
    return qt.from_coeffs([*pairs[0], *pairs[1]], alpha)


class TestFusedOperations:
    """Fused products match the nested formulas bit for bit."""

    @given(alphas, quats, quats)
    @settings(max_examples=300)
    def test_qmul_and_spin_matrix(self, alpha, p, q):
        p, q = quat_of(p, alpha), quat_of(q, alpha)
        got, want = qt.qmul(p, q), qmul_nested(p, q)
        assert [x.hex() for x in got.coeffs()] == [x.hex() for x in want.coeffs()]
        assert all(type(x) is float for x in (got.a, got.b, got.c, got.d))
        assert bits(qt.spin_matrix(p)) == bits(spin_matrix_nested(p))

    @given(alphas, matrices, matrices)
    @settings(max_examples=300)
    def test_matmul_det_inv(self, alpha, x, y):
        x, y = qt.smat((x[:2], x[2:]), alpha), qt.smat((y[:2], y[2:]), alpha)
        assert bits(x @ y) == bits(matmul_nested(x, y))
        assert bits(x.det()) == bits(det_nested(x))
        if sk.is_isotropic(det_nested(x)):
            with pytest.raises(IsotropicScalar):
                x.inv()
        else:
            assert bits(x.inv()) == bits(inv_nested(x))

    @given(alphas, quats)
    @settings(max_examples=200)
    def test_near_isotropic_quaternion_matrix(self, alpha, q):
        """det of spin_matrix(q) is qnormsq(q), which vanishes on the cone."""
        m = qt.spin_matrix(quat_of(q, alpha))
        assert bits(m.det()) == bits(det_nested(m))
        if not sk.is_isotropic(m.det()):
            assert bits(m.inv()) == bits(inv_nested(m))

    def test_caller_values_are_coerced(self):
        q = qt.from_coeffs(np.array([1.0, 2.0, 3.0, 4.0]), 1)
        assert all(type(x) is float for x in (q.a, q.b, q.c, q.d))

    def test_fields_are_frozen(self):
        q = qt.QuaternionA(1, 2, 3, 4, -1)
        for name in ("a", "b", "c", "d", "alpha"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(q, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            qt.spin_matrix(q).m = ()

    def test_mixed_signatures_rejected(self):
        with pytest.raises(SignatureMismatch):
            qt.spin_matrix(qt.i_(1)) @ qt.spin_matrix(qt.i_(-1))
        with pytest.raises(SignatureMismatch):
            qt.SpinMatrix(((sk.one(1), sk.zero(-1)), (sk.zero(1), sk.one(1))))
