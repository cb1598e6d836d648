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

from . import quat as qt
from . import scalars as sk
from .errors import (DegenerateEigenvector, IsotropicScalar, NotAQStructure,
                     OrthonormalityViolated, ZeroVector)
from .quat import (QuaternionA, SpinMatrix, _inverse, _matmul, _ring_floats,
                   _spin_entries)
from .scalars import Record, ScalarKA, _bound, _set

GRAM_TOL = 1e-9  #: absolute (not scale-aware): Gram-entry error of an input triple
RANK_TOL = 1e-8  #: orbit rank counts singular values > this * the largest


class SpinVector(Record):
    """Pair (x1, x2) of scalars of signature alpha, held as its 4 floats
    v = (x1.re, x1.im, x2.re, x2.im); ``X.x1`` and ``X.x2`` are the
    components as scalars."""

    __slots__ = ("v", "alpha")

    def __init__(self, v, alpha: int):
        _set(self, "alpha", sk._check_alpha(alpha))
        _set(self, "v", _ring_floats(v, 4))

    @property
    def x1(self) -> ScalarKA:
        return ScalarKA(self.v[0], self.v[1], self.alpha)

    @property
    def x2(self) -> ScalarKA:
        return ScalarKA(self.v[2], self.v[3], self.alpha)

    def __add__(self, other: "SpinVector") -> "SpinVector":
        sk._check_signatures(self, other)
        return SpinVector([x + y for x, y in zip(self.v, other.v)], self.alpha)

    def __sub__(self, other: "SpinVector") -> "SpinVector":
        sk._check_signatures(self, other)
        return SpinVector([x - y for x, y in zip(self.v, other.v)], self.alpha)

    def max_abs(self) -> float:
        return max(map(math.hypot, self.v[::2], self.v[1::2]))


def svec(x1, x2, alpha: int) -> SpinVector:
    """Build a SpinVector from scalars, (re, im) pairs or plain reals; a
    scalar keeps its own signature, which both components must share."""
    def lift(v):
        if isinstance(v, ScalarKA):
            return v
        if isinstance(v, (int, float)):
            return ScalarKA(v, 0.0, alpha)
        return ScalarKA(v[0], v[1], alpha)
    x1, x2 = lift(x1), lift(x2)
    sk._check_signatures(x1, x2)
    return SpinVector((x1.re, x1.im, x2.re, x2.im), x1.alpha)


# The spin vector formulas on the floats of SpinVector.v, grouped as the
# nested scalar operations round them; they serve the operations below and
# the spin basis.

def _matvec(m: tuple, v: tuple, al: int) -> tuple:
    """The product of the floats of a SpinMatrix with v."""
    ar, ai, br, bi, cr, ci, dr, di = m
    xr, xi, yr, yi = v
    return ((ar * xr + al * ai * xi) + (br * yr + al * bi * yi),
            (ar * xi + ai * xr) + (br * yi + bi * yr),
            (cr * xr + al * ci * xi) + (dr * yr + al * di * yi),
            (cr * xi + ci * xr) + (dr * yi + di * yr))


def _hermitian(x: tuple, y: tuple, al: int) -> tuple:
    """(re, im) of <<x, y>>."""
    a, b, e, f = x
    c, d, g, h = y
    return ((a * c + al * -b * d) + -al * (e * g + al * -f * h),
            (a * d + -b * c) + -al * (e * h + -f * g))


def _times(zr: float, zi: float, v: tuple, al: int) -> tuple:
    """The scalar zr + i zi times v."""
    xr, xi, yr, yi = v
    return (zr * xr + al * zi * xi, zr * xi + zi * xr,
            zr * yr + al * zi * yi, zr * yi + zi * yr)


def scalar_mul(z: ScalarKA, X: SpinVector) -> SpinVector:
    """Module action of the scalar ring."""
    sk._check_signatures(z, X)
    return SpinVector(_times(z.re, z.im, X.v, z.alpha), z.alpha)


def hermitian_form(X: SpinVector, Y: SpinVector) -> ScalarKA:
    """<<X, Y>> = conj(x1) y1 - alpha conj(x2) y2.

    Conjugate linear in the first slot; <<X, X>> is real valued but may be
    negative or zero for alpha = +1.
    """
    sk._check_signatures(X, Y)
    return ScalarKA(*_hermitian(X.v, Y.v, X.alpha), X.alpha)


def real_inner(X: SpinVector, Y: SpinVector) -> float:
    """Real polarization <X, Y> = (<<X, Y>> + <<Y, X>>)/2 = re <<X, Y>>."""
    return hermitian_form(X, Y).re


def apply(q: QuaternionA, X: SpinVector) -> SpinVector:
    """Action of a quaternion on a spin vector via its 2x2 matrix."""
    return apply_matrix(qt.spin_matrix(q), X)


def apply_matrix(m: SpinMatrix, X: SpinVector) -> SpinVector:
    sk._check_signatures(m, X)
    return SpinVector(_matvec(m.e, X.v, X.alpha), X.alpha)


# ---------------------------------------------------------------------------
# Spin bases
# ---------------------------------------------------------------------------

class IQBasis:
    """Ordered triple of purely imaginary quaternions, iterated in order.

    A valid basis is orthonormal with the squared-norm pattern
    (-alpha, -alpha, +1), matching the standard triple (i, j, k).
    """

    def __init__(self, j1: QuaternionA, j2: QuaternionA, j3: QuaternionA):
        self.j1, self.j2, self.j3 = j1, j2, j3

    def __iter__(self):
        return iter((self.j1, self.j2, self.j3))


class SpinBasisResult:
    def __init__(self, matrix: SpinMatrix, sign: int):
        self.matrix = matrix  # columns are the constructed basis vectors
        self.sign = sign  # +1 when the triple is oriented like (i, j, k)


def check_iq_basis(basis: IQBasis):
    """Validate the orthonormality pattern; raise with the failing entry."""
    js = list(basis)
    alpha = js[0].alpha
    for q in js:
        sk._check_signatures(js[0], q)
        if not qt.is_purely_imaginary(q):
            raise OrthonormalityViolated("basis member is not purely imaginary")
    expected = (-float(alpha), -float(alpha), 1.0)
    # the Gram matrix is symmetric to the bit, so the first failing entry in
    # row-major order lies on or above the diagonal
    for r in range(3):
        for c in range(r, 3):
            val = qt.scalar_product(js[r], js[c])
            want = expected[r] if r == c else 0.0
            if not abs(val - want) <= GRAM_TOL:  # NaN fails too
                raise OrthonormalityViolated(
                    f"Gram entry ({r + 1},{c + 1}) = {val:.6e}, expected {want:g}",
                    entry=(r, c, val),
                )


# The spin basis runs on float tuples; only its result becomes a SpinMatrix.

#: seed vectors in the order spinbasis tries them: e1, e2, e1 + e2, e1 - e2,
#: e1 + i e2, i e1 + e2, e1 + 2 e2, 2 e1 + e2, e1 + (1 + i) e2 and
#: (1 + i) e1 + 3 e2, each as the ring operations build it
_SEEDS = ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 1.0, 0.0),
          (1.0, 0.0, -1.0, -0.0), (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0),
          (1.0, 0.0, 2.0, 0.0), (2.0, 0.0, 1.0, 0.0), (1.0, 0.0, 1.0, 1.0),
          (1.0, 1.0, 3.0, 0.0))


def spinbasis(basis: IQBasis) -> SpinBasisResult:
    """Construct the basis of S that represents the triple by Pauli matrices.

    Takes the first seed vector of ``_SEEDS`` that is not an eigenvector of
    the first operator and yields non-isotropic eigenvector normalizations,
    normalizes its eigenvector e1 of [j1] to <<e1, e1>> = 1, and takes
    e2 = [j2] e1.  Since [j2] anticommutes with [j1] and squares to alpha,
    the first two operators come out exactly as sigma1 and sigma2; the
    remaining free unit scale is fixed to 1, which makes the output
    deterministic.

    Returns the change-of-basis matrix (columns are the new basis vectors in
    the standard basis) and the orientation sign carried by the third
    operator: +1 when the determinant of the imaginary coefficients of the
    triple is positive (j3 = j1 j2), else -1 (j3 = -j1 j2).

    Raises:
        OrthonormalityViolated: input triple fails its Gram check.
        DegenerateEigenvector: every seed hits an isotropic denominator
            (possible only for alpha = +1).
    """
    check_iq_basis(basis)
    j1, j2, _ = basis
    al = j1.alpha
    fa = float(al)
    iar, iai = fa * 0.0, fa * 1.0  # i * [j1]^3 acts as (alpha i) * [j1]
    S1 = _spin_entries(j1)
    for X in _SEEDS:
        wr1, wi1, wr2, wi2 = _times(iar, iai, _matvec(S1, X, al), al)
        xr1, xi1, xr2, xi2 = X
        ep1 = (xr1 + wr1, xi1 + wi1, xr2 + wr2, xi2 + wi2)
        ep2 = (xr1 - wr1, xi1 - wi1, xr2 - wr2, xi2 - wi2)
        n1 = _hermitian(ep1, ep1, al)[0]
        if not (sk._isotropic(n1, *ep1)
                or sk._isotropic(_hermitian(ep2, ep2, al)[0], *ep2)):
            break  # neither an eigenvector seed nor an isotropic denominator
    else:
        raise DegenerateEigenvector(
            "no seed vector produced non-isotropic eigenvector normalizations")

    e1 = _times(1.0 / math.sqrt(abs(n1)), 0.0, ep1, al)
    # The positive rescaling keeps the sign of n1; multiplying by i flips the
    # sign of <<v, v>> exactly when alpha = +1.
    if n1 < 0:
        e1 = _times(0.0, 1.0, e1, al)
    e2 = _matvec(_spin_entries(j2), e1, al)
    P = (e1[0], e1[1], e2[0], e2[1], e1[2], e1[3], e2[2], e2[3])

    (b1, c1, d1), (b2, c2, d2), (b3, c3, d3) = ((j.b, j.c, j.d) for j in basis)
    det = (b1 * (c2 * d3 - d2 * c3) - c1 * (b2 * d3 - d2 * b3)
           + d1 * (b2 * c3 - c2 * b3))
    return SpinBasisResult(SpinMatrix(P, al), 1 if det > 0 else -1)


def matrix_in_spinbasis(q: QuaternionA, result: SpinBasisResult) -> SpinMatrix:
    """Conjugate the matrix of q into the constructed basis."""
    al = result.matrix.alpha
    P = result.matrix.e
    Pinv = _inverse(P, al)
    if Pinv is None:
        raise IsotropicScalar("the change-of-basis determinant is isotropic")
    sk._check_signatures(result.matrix, q)
    return SpinMatrix(_matmul(_matmul(Pinv, _spin_entries(q), al), P, al), al)


# ---------------------------------------------------------------------------
# Orbit dimension of a represented quaternion algebra
# ---------------------------------------------------------------------------

def orbit_dimension(I: np.ndarray, J: np.ndarray, X: np.ndarray) -> int:
    """Real dimension of the orbit {q(X)} of a represented algebra.

    ``I``, ``J`` (n x n) and ``X`` (nonempty) are read by
    :func:`aqlab.tensors.real_array` and satisfy I^2 = J^2 = alpha id and
    IJ + JI = 0 for a common alpha (:func:`aqlab.tensors.twistor_sign`);
    the orbit is spanned by X, IX, JX, IJX and its dimension is the rank of
    that column family.  The value is always 2 or 4, and it is 2 exactly
    when X lies in the kernel of an isotropic quaternion.

    Singular values at or below ``RANK_TOL`` times the largest count as zero.
    """
    import numpy as np
    from .tensors import real_array, twistor_sign
    X = real_array(X, None, "X", NotAQStructure)
    if X.ndim != 1 or not len(X):
        raise NotAQStructure(f"X must be a nonempty vector, got shape {X.shape}")
    n = len(X)
    I = real_array(I, (n, n), "I", NotAQStructure)
    J = real_array(J, (n, n), "J", NotAQStructure)
    if twistor_sign(I, J) is None:
        raise NotAQStructure("operators fail the anticommuting twistor relations")
    if not X.any():
        raise ZeroVector("orbit of the zero vector is not defined")
    cols = np.array([X, I @ X, J @ X, I @ (J @ X)]).T
    svals = np.linalg.svd(cols, compute_uv=False)
    return int((svals > _bound(svals[0], 1, RANK_TOL)).sum())
