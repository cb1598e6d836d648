"""Spin vectors, spin bases, and orbit dimensions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqlab import quat as qt
from aqlab import scalars as sk
from aqlab import spinor as sp
from aqlab.errors import (DegenerateEigenvector, NotAQStructure,
                          OrthonormalityViolated, SignatureMismatch, ZeroVector)
from conftest import (abs2norm, bits, random_aq_pair, random_pseudo_rotation,
                      ring_pairs, scalar_close, smat_close, standard_pair)

ALPHAS = (-1, 1)


def rand_vec(rng, alpha):
    return sp.SpinVector(rng.normal(size=4), alpha)


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
    return sp.svec(sk.add(sk.mul(m[0, 0], X.x1), sk.mul(m[0, 1], X.x2)),
                   sk.add(sk.mul(m[1, 0], X.x1), sk.mul(m[1, 1], X.x2)), X.alpha)


def ring_seeds(alpha):
    """The ten seed vectors (x1, x2) of ``spinbasis``, built by the ring
    operations."""
    i, o = sk.imag_unit(alpha), sk.one(alpha)
    z, two = sk.zero(alpha), sk.from_real(2.0, alpha)
    return ((o, z), (z, o), (o, o), (o, sk.neg(o)), (o, i), (i, o), (o, two),
            (two, o), (o, sk.add(o, i)),
            (sk.add(o, i), sk.from_real(3.0, alpha)))


def spinbasis_by_ring(basis):
    """``spinbasis`` through the ScalarKA and SpinMatrix operations: the
    reference for bit equality of the float-pair route."""
    alpha = basis.j1.alpha
    pauli = (*qt.pauli_matrices(alpha),
             qt.smat((((0, 0), (0, -alpha)), ((0, 1), (0, 0))), alpha))
    for x1, x2 in ring_seeds(alpha):
        result = seed_attempt_by_ring(basis, sp.svec(x1, x2, alpha), pauli)
        if result is not None:
            return result
    return None


def seed_attempt_by_ring(basis, X, pauli):
    j1, j2, j3 = basis
    alpha = j1.alpha
    i = sk.imag_unit(alpha)
    ialpha = sk.scale(float(alpha), i)
    W = sp.apply(j1, X)
    ep1 = X + sp.scalar_mul(ialpha, W)
    ep2 = X - sp.scalar_mul(ialpha, W)
    n1 = sp.hermitian_form(ep1, ep1).re
    n2 = sp.hermitian_form(ep2, ep2).re
    if sk._isotropic(n1, *ep1.v) or sk._isotropic(n2, *ep2.v):
        return None
    ep1 = sp.scalar_mul(sk.from_real(1.0 / math.sqrt(abs(n1)), alpha), ep1)
    ep2 = sp.scalar_mul(sk.from_real(1.0 / math.sqrt(abs(n2)), alpha), ep2)
    if n1 < 0:
        ep1 = sp.scalar_mul(i, ep1)
    if n2 * float(alpha) > 0:
        ep2 = sp.scalar_mul(i, ep2)
    a = sk.scale(-float(alpha), sp.hermitian_form(ep2, sp.apply(j2, ep1)))
    e1, e2 = ep1, sp.scalar_mul(a, ep2)
    P = qt.SpinMatrix([f for x in (e1.x1, e2.x1, e1.x2, e2.x2)
                       for f in (x.re, x.im)], alpha)
    if sk.is_isotropic(P.det()):
        return None
    Pinv = P.inv()
    s1, s2, s3, neg_s3 = pauli
    m1, m2, m3 = (Pinv @ qt.spin_matrix(j) @ P for j in (j1, j2, j3))
    tol = sp.CONJ_TOL
    if not (smat_close(m1, s1, tol) and smat_close(m2, s2, tol)):
        return None
    if smat_close(m3, s3, tol):
        return sp.SpinBasisResult(P, +1)
    if smat_close(m3, neg_s3, tol):
        return sp.SpinBasisResult(P, -1)
    return None


class TestFloatPairRoute:
    """``spinbasis`` and ``matrix_in_spinbasis`` work on (re, im) floats;
    both must round exactly as the ring operations do."""

    @pytest.mark.parametrize("scale", [0.7, 3.0])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bit_equal_to_ring_route(self, alpha, scale):
        rng = np.random.default_rng(1000 + 10 * alpha + int(scale))
        gram = np.diag([-float(alpha), -float(alpha), 1.0])
        built = 0
        for k in range(500):
            rot = random_pseudo_rotation(gram, rng, scale)
            if k % 2:
                rot[:, 2] = -rot[:, 2]
            basis = rotated_basis(alpha, rot)
            q = rand_quat(rng, alpha)
            try:
                sp.check_iq_basis(basis)
            except OrthonormalityViolated:
                continue
            want = spinbasis_by_ring(basis)
            if want is None:
                with pytest.raises(DegenerateEigenvector):
                    sp.spinbasis(basis)
                continue
            got = sp.spinbasis(basis)
            built += 1
            assert got.sign == want.sign
            assert bits(got.matrix) == bits(want.matrix)
            assert bits(sp.matrix_in_spinbasis(q, got)) == bits(
                want.matrix.inv() @ qt.spin_matrix(q) @ want.matrix)
        assert built >= 400

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bit_equal_on_signed_unit_triples(self, alpha):
        """(+-i, +-j, +-k) and (+-j, +-i, +-k): the first two seeds are
        eigenvectors of [j1], so the third one builds the basis."""
        for perm in ((0, 1, 2), (1, 0, 2)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                basis = rotated_basis(alpha, np.eye(3)[:, perm] * signs)
                want, got = spinbasis_by_ring(basis), sp.spinbasis(basis)
                assert got.sign == want.sign
                assert bits(got.matrix) == bits(want.matrix)

    def test_seed_table_is_the_ring_seeds(self):
        """Signed zeros included: e1 - e2 carries -0.0 as sk.neg makes it."""
        for alpha in ALPHAS:
            assert [tuple(v.hex() for v in s) for s in sp._SEEDS] == [
                tuple(v.hex() for v in (x1.re, x1.im, x2.re, x2.im))
                for x1, x2 in ring_seeds(alpha)]


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
        for name in ("v", "alpha", "x1", "x2"):
            with pytest.raises(AttributeError, match="cannot assign to field"):
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
            sp.svec(sk.one(1), sk.one(-1), 1)


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
            assert scalar_close(lhs, rhs, tol=1e-10 * (1 + abs2norm(rhs)))

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
            assert scalar_close(h, rebuilt, tol=1e-12 * (1 + abs2norm(h)))


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
        assert smat_close(res.matrix, ident, tol=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_orientation_reversal(self, alpha):
        res = sp.spinbasis(sp.IQBasis(qt.i_(alpha), qt.j_(alpha), -qt.k_(alpha)))
        assert res.sign == -1
        ident = qt.smat((((1, 0), (0, 0)), ((0, 0), (1, 0))), alpha)
        assert smat_close(res.matrix, ident, tol=1e-12)

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
                assert smat_close(got, want, tol=1e-9)

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

    @pytest.mark.parametrize("alphas", [(-1, 1, -1), (1, 1, -1), (1, -1, -1)])
    def test_mixed_signatures_use_the_package_message(self, alphas):
        """The basis check is the package's one signature comparison, with
        its message: the first member's alpha against the first other."""
        first, other = alphas[0], next(a for a in alphas if a != alphas[0])
        basis = sp.IQBasis(*(f(a) for f, a in zip((qt.i_, qt.j_, qt.k_),
                                                  alphas)))
        for check in (sp.check_iq_basis, sp.spinbasis):
            with pytest.raises(SignatureMismatch) as err:
                check(basis)
            assert str(err.value) == (f"cannot combine alpha={first} "
                                      f"with alpha={other}")

    def test_non_imaginary_member_rejected(self):
        real_part = qt.from_coeffs([1.0, 1.0, 0.0, 0.0], -1)
        with pytest.raises(OrthonormalityViolated, match="purely imaginary"):
            sp.check_iq_basis(sp.IQBasis(real_part, qt.j_(-1), qt.k_(-1)))

    def test_exhausted_seeds_raise(self, monkeypatch):
        """Only-eigenvector seeds surface the degenerate branch."""
        monkeypatch.setattr(sp, "_SEEDS", ((1.0, 0.0, 0.0, 0.0),))
        basis = sp.IQBasis(qt.i_(1), qt.j_(1), qt.k_(1))
        with pytest.raises(DegenerateEigenvector):
            sp.spinbasis(basis)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_constructed_basis_is_orthonormal(self, alpha, rng):
        gram = np.diag([-float(alpha), -float(alpha), 1.0])
        rot = random_pseudo_rotation(gram, rng)
        res = sp.spinbasis(rotated_basis(alpha, rot))
        e1 = sp.svec(res.matrix[0, 0], res.matrix[1, 0], alpha)
        e2 = sp.svec(res.matrix[0, 1], res.matrix[1, 1], alpha)
        assert sp.hermitian_form(e1, e1).re == pytest.approx(1.0, abs=1e-9)
        assert sp.hermitian_form(e2, e2).re == pytest.approx(-alpha, abs=1e-9)
        assert abs2norm(sp.hermitian_form(e1, e2)) < 1e-9


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

    def test_rejects_empty_operators(self):
        with pytest.raises(NotAQStructure, match="nonempty"):
            sp.orbit_dimension(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0))

    def test_rejects_nan_operator(self, rng):
        I, J = random_aq_pair(rng, 4, -1)
        I[0, 0] = np.nan
        with pytest.raises(NotAQStructure):
            sp.orbit_dimension(I, J, np.ones(4))

    def test_rejects_nan_vector(self):
        with pytest.raises(NotAQStructure):
            sp.orbit_dimension(*standard_pair(4, -1), [np.nan, 0, 0, 1])

    def test_rejects_infinite_vector(self):
        with pytest.raises(NotAQStructure):
            sp.orbit_dimension(*standard_pair(4, -1), [np.inf, 0, 0, 1])

    def test_rejects_zero_vector(self, rng):
        I, J = random_aq_pair(rng, 4, -1)
        with pytest.raises(ZeroVector):
            sp.orbit_dimension(I, J, np.zeros(4))

    def test_membership_helper(self, rng):
        I, J = random_aq_pair(rng, 4, 1)
        w, v = np.linalg.eig(I)
        X = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        assert sp.orbit_dimension(I, J, X) == 2
        assert sp.orbit_dimension(I, J, np.ones(4) + X) != 2
