"""Spin vectors, their Hermitian metric, spin bases, and orbit dimensions.

The representation space is the pair module S = K_alpha + K_alpha on which
quaternions act through :func:`aqlab.quat.spin_matrix`.  The main
constructive result implemented here turns any orthonormal basis of the
purely imaginary quaternions into a basis of S in which the three basis
operators are represented by the generalized Pauli matrices, up to the sign
of the third one, which detects orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import quat as qt
from . import scalars as sk
from .errors import (
    DegenerateEigenvector,
    NotAQStructure,
    OrthonormalityViolated,
    SignatureMismatch,
    ZeroVector,
)
from .quat import QuaternionA, SpinMatrix
from .scalars import ScalarKA

GRAM_TOL = 1e-9  #: absolute (not scale-aware): Gram-entry error of an input triple
CONJ_TOL = 1e-7  #: absolute: entries of P^-1 [j_m] P against the Pauli matrices
RANK_TOL = 1e-8  #: orbit rank counts singular values > this * the largest
RELATION_TOL = 1e-8  #: I, J twistor relations rel. to 1 + max(|I|, |J|)^2


@dataclass(frozen=True, slots=True)
class SpinVector:
    """Pair (x1, x2) of scalars sharing one signature parameter."""

    x1: ScalarKA
    x2: ScalarKA

    def __post_init__(self):
        if self.x1.alpha != self.x2.alpha:
            raise SignatureMismatch("components carry different signatures")

    @property
    def alpha(self) -> int:
        return self.x1.alpha

    def __add__(self, other: "SpinVector") -> "SpinVector":
        return SpinVector(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "SpinVector") -> "SpinVector":
        return SpinVector(self.x1 - other.x1, self.x2 - other.x2)

    def max_abs(self) -> float:
        return max(sk.abs2norm(self.x1), sk.abs2norm(self.x2))


def svec(x1, x2, alpha: int) -> SpinVector:
    """Build a SpinVector from (re, im) pairs or plain reals."""
    def lift(v):
        if isinstance(v, ScalarKA):
            return v
        if isinstance(v, (int, float)):
            return ScalarKA(v, 0.0, alpha)
        return ScalarKA(v[0], v[1], alpha)
    return SpinVector(lift(x1), lift(x2))


def scalar_mul(z: ScalarKA, X: SpinVector) -> SpinVector:
    """Module action of the scalar ring."""
    return SpinVector(sk.mul(z, X.x1), sk.mul(z, X.x2))


def hermitian_form(X: SpinVector, Y: SpinVector) -> ScalarKA:
    """<<X, Y>> = conj(x1) y1 - alpha conj(x2) y2.

    Conjugate linear in the first slot; <<X, X>> is real valued but may be
    negative or zero for alpha = +1.
    """
    if X.alpha != Y.alpha:
        raise SignatureMismatch("spin vectors carry different signatures")
    # on the fields, grouped as the nested scalar operations round it
    al, a, b, c, d = X.alpha, X.x1.re, X.x1.im, Y.x1.re, Y.x1.im
    e, f, g, h = X.x2.re, X.x2.im, Y.x2.re, Y.x2.im
    return sk._mk((a * c + al * -b * d) + -al * (e * g + al * -f * h),
                  (a * d + -b * c) + -al * (e * h + -f * g), al)


def real_inner(X: SpinVector, Y: SpinVector) -> float:
    """Real polarization <X, Y> = (<<X, Y>> + <<Y, X>>)/2 = re <<X, Y>>."""
    return hermitian_form(X, Y).re


def apply(q: QuaternionA, X: SpinVector) -> SpinVector:
    """Action of a quaternion on a spin vector via its 2x2 matrix."""
    return apply_matrix(qt.spin_matrix(q), X)


def apply_matrix(m: SpinMatrix, X: SpinVector) -> SpinVector:
    if m.alpha != X.alpha:
        raise SignatureMismatch("matrix and spin vector signatures differ")
    (a, b), (c, d) = m.m
    return SpinVector(sk._dot(a, X.x1, b, X.x2), sk._dot(c, X.x1, d, X.x2))


# ---------------------------------------------------------------------------
# Spin bases
# ---------------------------------------------------------------------------

class IQBasis(NamedTuple):
    """Ordered triple of purely imaginary quaternions.

    A valid basis is orthonormal with the squared-norm pattern
    (-alpha, -alpha, +1), matching the standard triple (i, j, k).
    """

    j1: QuaternionA
    j2: QuaternionA
    j3: QuaternionA


class SpinBasisResult(NamedTuple):
    matrix: SpinMatrix  # columns are the constructed basis vectors
    sign: int           # +1 when the input triple is oriented like (i, j, k)


def check_iq_basis(basis: IQBasis):
    """Validate the orthonormality pattern; raise with the failing entry."""
    js = list(basis)
    alpha = js[0].alpha
    for q in js:
        if q.alpha != alpha:
            raise SignatureMismatch("basis members carry different signatures")
        if not qt.is_purely_imaginary(q):
            raise OrthonormalityViolated("basis member is not purely imaginary")
    expected = (-float(alpha), -float(alpha), 1.0)
    for r in range(3):
        for c in range(3):
            val = qt.scalar_product(js[r], js[c])
            want = expected[r] if r == c else 0.0
            if not abs(val - want) <= GRAM_TOL:  # NaN fails too
                raise OrthonormalityViolated(
                    f"Gram entry ({r + 1},{c + 1}) = {val:.6e}, expected {want:g}",
                    entry=(r, c, val),
                )


def _seed_vectors(alpha: int):
    i = sk.imag_unit(alpha)
    o = sk.one(alpha)
    z = sk.zero(alpha)
    # a generator: spinbasis usually stops at the first seed
    pairs = ((o, z), (z, o), (o, o), (o, sk.neg(o)), (o, i), (i, o),
             (o, sk.from_real(2.0, alpha)), (sk.from_real(2.0, alpha), o),
             (o, sk.add(o, i)), (sk.add(o, i), sk.from_real(3.0, alpha)))
    return (SpinVector(x1, x2) for x1, x2 in pairs)


#: per alpha, the targets of the seed conjugation: the Pauli triple and
#: -sigma3 = [[0, -alpha*i], [i, 0]], whose match flips the orientation sign
_PAULI = {alpha: (*qt.pauli_matrices(alpha),
                  qt.smat((((0, 0), (0, -alpha)), ((0, 1), (0, 0))), alpha))
          for alpha in (-1, 1)}


def _try_spinbasis_from_seed(basis: IQBasis, X: SpinVector):
    """One attempt of the eigenvector construction; None when the seed fails."""
    j1, j2, j3 = basis
    alpha = j1.alpha
    i = sk.imag_unit(alpha)
    ialpha = sk.scale(float(alpha), i)  # i * [j1]^3 acts as (alpha i) * [j1]

    W = apply(j1, X)
    ep1 = X + scalar_mul(ialpha, W)
    ep2 = X - scalar_mul(ialpha, W)
    n1 = hermitian_form(ep1, ep1).re
    n2 = hermitian_form(ep2, ep2).re
    if abs(n1) <= sk.ISOTROPY_TOL or abs(n2) <= sk.ISOTROPY_TOL:
        return None  # eigenvector seed or isotropic normalization denominator

    ep1 = scalar_mul(sk.from_real(1.0 / math.sqrt(abs(n1)), alpha), ep1)
    ep2 = scalar_mul(sk.from_real(1.0 / math.sqrt(abs(n2)), alpha), ep2)
    # Fix the norm signs to the standard pattern (+1, -alpha).  Multiplying
    # by i flips the sign of <<v, v>> exactly when alpha = +1.
    if hermitian_form(ep1, ep1).re < 0:
        ep1 = scalar_mul(i, ep1)
    if hermitian_form(ep2, ep2).re * float(alpha) > 0:
        ep2 = scalar_mul(i, ep2)

    # [j2] ep1 = a ep2 with |a|^2 = 1; the second basis operator becomes
    # [[0, alpha], [1, 0]] exactly after rescaling the second vector by a.
    w = apply(j2, ep1)
    a = sk.scale(-float(alpha), hermitian_form(ep2, w))
    e1, e2 = ep1, scalar_mul(a, ep2)

    P = SpinMatrix(((e1.x1, e2.x1), (e1.x2, e2.x2)))
    if abs(sk.normsq(P.det())) <= sk.ISOTROPY_TOL:
        return None
    Pinv = P.inv()

    s1, s2, s3, neg_s3 = _PAULI[alpha]
    m1 = Pinv @ qt.spin_matrix(j1) @ P
    m2 = Pinv @ qt.spin_matrix(j2) @ P
    m3 = Pinv @ qt.spin_matrix(j3) @ P
    if not (qt.smat_close(m1, s1, CONJ_TOL) and qt.smat_close(m2, s2, CONJ_TOL)):
        return None
    if qt.smat_close(m3, s3, CONJ_TOL):
        return SpinBasisResult(P, +1)
    if qt.smat_close(m3, neg_s3, CONJ_TOL):
        return SpinBasisResult(P, -1)
    return None


def spinbasis(basis: IQBasis) -> SpinBasisResult:
    """Construct the basis of S that represents the triple by Pauli matrices.

    Sweeps a fixed list of seed vectors, takes the first one that is not an
    eigenvector of the first operator and yields non-isotropic normalization
    denominators, builds the two eigenvectors, and rescales the second so the
    middle operator comes out exactly as [[0, alpha], [1, 0]].  The remaining
    free unit scale is fixed to 1, which makes the output deterministic.

    Returns the change-of-basis matrix (columns are the new basis vectors in
    the standard basis) and the orientation sign carried by the third
    operator.

    Raises:
        OrthonormalityViolated: input triple fails its Gram check.
        DegenerateEigenvector: every seed hits an isotropic denominator
            (possible only for alpha = +1).
    """
    check_iq_basis(basis)
    alpha = basis.j1.alpha
    for X in _seed_vectors(alpha):
        result = _try_spinbasis_from_seed(basis, X)
        if result is not None:
            return result
    raise DegenerateEigenvector(
        "no seed vector produced non-isotropic eigenvector normalizations"
    )


def matrix_in_spinbasis(q: QuaternionA, result: SpinBasisResult) -> SpinMatrix:
    """Conjugate the matrix of q into the constructed basis."""
    P = result.matrix
    return P.inv() @ qt.spin_matrix(q) @ P


# ---------------------------------------------------------------------------
# Orbit dimension of a represented quaternion algebra
# ---------------------------------------------------------------------------

def orbit_dimension(I: np.ndarray, J: np.ndarray, X: np.ndarray) -> int:
    """Real dimension of the orbit {q(X)} of a represented algebra.

    ``I`` and ``J`` must satisfy I^2 = J^2 = alpha id and IJ + JI = 0 for a
    common alpha; the orbit is spanned by X, IX, JX, IJX and its dimension is
    the rank of that column family.  The value is always 2 or 4, and it is 2
    exactly when X lies in the kernel of an isotropic quaternion.

    Singular values at or below ``RANK_TOL`` times the largest count as zero.
    """
    import numpy as np
    I = np.asarray(I, dtype=float)
    J = np.asarray(J, dtype=float)
    X = np.asarray(X, dtype=float)
    n = I.shape[0]
    if I.shape != (n, n) or J.shape != (n, n) or X.shape != (n,):
        raise NotAQStructure("I, J must be square and X a matching vector")
    ident = np.eye(n)
    al = np.trace(I @ I) / n
    alpha = 1 if al > 0 else -1
    bound = RELATION_TOL * (1.0 + max(np.abs(I).max(), np.abs(J).max()) ** 2)
    if (np.abs(I @ I - alpha * ident).max() > bound
            or np.abs(J @ J - alpha * ident).max() > bound
            or np.abs(I @ J + J @ I).max() > bound):
        raise NotAQStructure("operators fail the anticommuting twistor relations")
    if np.abs(X).max() == 0.0:
        raise ZeroVector("orbit of the zero vector is not defined")
    cols = np.column_stack([X, I @ X, J @ X, I @ (J @ X)])
    svals = np.linalg.svd(cols, compute_uv=False)
    return int(np.sum(svals > RANK_TOL * svals[0]))


def isotropic_kernel_member(I: np.ndarray, J: np.ndarray, X: np.ndarray) -> bool:
    """Membership test: is X annihilated by some isotropic quaternion?

    Equivalent to the orbit being 2-dimensional.
    """
    return orbit_dimension(I, J, X) == 2
