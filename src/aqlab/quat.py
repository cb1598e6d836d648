"""The four-dimensional algebra of generalized quaternions.

Elements are ``q = a + i b + j c + k d`` with ``i**2 = j**2 = alpha``,
``k = i j``, ``k**2 = -1``.  For ``alpha = -1`` this is the classical
quaternion algebra, for ``alpha = +1`` the split quaternions
(antiquaternions).  The product is realized through the doubling
construction over the scalar ring of :mod:`aqlab.scalars`: writing
``q = z1 + j z2`` with ``z1 = a + ib`` and ``z2 = c - id``,

    (z1, z2)(w1, w2) = (z1 w1 + alpha w2 conj(z2), conj(z1) w2 + w1 z2).

The same splitting yields the defining 2x2 representation ``spin_matrix``
acting on pairs of scalars, with determinant equal to the quaternion norm.
"""

from __future__ import annotations

import math

from . import scalars as sk
from .errors import IsotropicScalar, NotPurelyImaginary
from .scalars import Record, ScalarKA, _set, _within

PURE_IMAG_TOL = 1e-9  #: purely imaginary when |a| <= this * max|coeff|


class QuaternionA(Record):
    """Quaternion ``a + i b + j c + k d`` with signature ``alpha`` in {-1, +1}."""

    __slots__ = ("a", "b", "c", "d", "alpha")

    def __init__(self, a: float, b: float, c: float, d: float, alpha: int):
        _set(self, "alpha", sk._check_alpha(alpha))
        _set(self, "a", float(a))
        _set(self, "b", float(b))
        _set(self, "c", float(c))
        _set(self, "d", float(d))

    def __add__(self, other):
        sk._check_signatures(self, other)
        return QuaternionA(self.a + other.a, self.b + other.b,
                           self.c + other.c, self.d + other.d, self.alpha)

    def __sub__(self, other):
        sk._check_signatures(self, other)
        return QuaternionA(self.a - other.a, self.b - other.b,
                           self.c - other.c, self.d - other.d, self.alpha)

    def __neg__(self):
        return QuaternionA(-self.a, -self.b, -self.c, -self.d, self.alpha)

    def coeffs(self) -> np.ndarray:
        import numpy as np
        return np.array([self.a, self.b, self.c, self.d])

    def __repr__(self):
        return (f"Q({self.a:g} + {self.b:g}i + {self.c:g}j + {self.d:g}k"
                f" | a={self.alpha:+d})")


def from_coeffs(v, alpha: int) -> QuaternionA:
    a, b, c, d = v
    return QuaternionA(a, b, c, d, alpha)


def one(alpha: int) -> QuaternionA:
    return QuaternionA(1, 0, 0, 0, alpha)


def i_(alpha: int) -> QuaternionA:
    return QuaternionA(0, 1, 0, 0, alpha)


def j_(alpha: int) -> QuaternionA:
    return QuaternionA(0, 0, 1, 0, alpha)


def k_(alpha: int) -> QuaternionA:
    return QuaternionA(0, 0, 0, 1, alpha)


def scale(t: float, q: QuaternionA) -> QuaternionA:
    return QuaternionA(t * q.a, t * q.b, t * q.c, t * q.d, q.alpha)


def to_pair(q: QuaternionA) -> tuple[ScalarKA, ScalarKA]:
    """Split q = z1 + j z2 into (z1, z2) = (a + ib, c - id)."""
    return (ScalarKA(q.a, q.b, q.alpha), ScalarKA(q.c, -q.d, q.alpha))


def qmul(p: QuaternionA, q: QuaternionA) -> QuaternionA:
    """Associative product of the doubling construction."""
    sk._check_signatures(p, q)
    # (z1, z2)(w1, w2) = (z1 w1 + alpha w2 conj(z2), conj(z1) w2 + w1 z2),
    # written out on the fields and grouped as the scalar operations round it
    al = p.alpha
    a, b, c, d = p.a, p.b, p.c, p.d
    e, f, g, h = q.a, q.b, q.c, q.d
    return QuaternionA(
        (a * e + al * b * f) + al * (g * c + al * -h * d),
        (a * f + b * e) + al * (g * d + -h * c),
        (a * g + al * -b * -h) + (e * c + al * f * -d),
        -((a * -h + -b * g) + (e * -d + f * c)), al)


def qconj(q: QuaternionA) -> QuaternionA:
    """a + ib + jc + kd -> a - ib - jc - kd."""
    return QuaternionA(q.a, -q.b, -q.c, -q.d, q.alpha)


def qnormsq(q: QuaternionA) -> float:
    """q * conj(q) = a^2 - alpha b^2 - alpha c^2 + d^2 (real)."""
    return scalar_product(q, q)


def scalar_product(p: QuaternionA, q: QuaternionA) -> float:
    """Polarization of the norm: <p, q> = (conj(p) q + conj(q) p) / 2."""
    sk._check_signatures(p, q)
    return p.a * q.a - p.alpha * (p.b * q.b + p.c * q.c) + p.d * q.d


def is_purely_imaginary(q: QuaternionA) -> bool:
    """|a| <= ``PURE_IMAG_TOL`` max|coeff| (zero is purely imaginary)."""
    sup = max(abs(q.a), abs(q.b), abs(q.c), abs(q.d))
    return _within(abs(q.a), sup, 1, PURE_IMAG_TOL)


def _require_imaginary(q: QuaternionA):
    if not is_purely_imaginary(q):
        raise NotPurelyImaginary(f"real part {q.a:.3e} is not negligible")


def iq_commutator(p: QuaternionA, q: QuaternionA) -> QuaternionA:
    """[p, q] = pq - qp on purely imaginary quaternions."""
    _require_imaginary(p)
    _require_imaginary(q)
    return qmul(p, q) - qmul(q, p)


# ---------------------------------------------------------------------------
# 2x2 spin representation
# ---------------------------------------------------------------------------

class SpinMatrix(Record):
    """2x2 matrix [[a, b], [c, d]] over the scalar ring of signature alpha,
    held as its 8 floats e = (a.re, a.im, b.re, b.im, c.re, c.im, d.re, d.im);
    ``m[r, c]`` is entry (r, c) as a scalar."""

    __slots__ = ("e", "alpha")

    def __init__(self, e, alpha: int):
        _set(self, "alpha", sk._check_alpha(alpha))
        _set(self, "e", _ring_floats(e, 8))

    def __getitem__(self, idx) -> ScalarKA:
        r, c = idx
        k = (0, 4)[r] + (0, 2)[c]  # an IndexError past the 2x2 entries
        return ScalarKA(self.e[k], self.e[k + 1], self.alpha)

    def __matmul__(self, other: "SpinMatrix") -> "SpinMatrix":
        sk._check_signatures(self, other)
        return SpinMatrix(_matmul(self.e, other.e, self.alpha), self.alpha)

    def __sub__(self, other: "SpinMatrix") -> "SpinMatrix":
        sk._check_signatures(self, other)
        return SpinMatrix([x - y for x, y in zip(self.e, other.e)], self.alpha)

    def det(self) -> ScalarKA:
        return ScalarKA(*_det(self.e, self.alpha), self.alpha)

    def real_trace(self) -> float:
        """Sum of real parts of the diagonal entries."""
        return self.e[0] + self.e[6]

    def inv(self) -> "SpinMatrix":
        e = _inverse(self.e, self.alpha)
        if e is None:
            raise IsotropicScalar("the determinant is isotropic")
        return SpinMatrix(e, self.alpha)

    def max_abs(self) -> float:
        return max(map(math.hypot, self.e[::2], self.e[1::2]))


def _ring_floats(values, n: int) -> tuple:
    """The n floats of a spin value, validated."""
    e = tuple(map(float, values))
    if len(e) != n:
        raise ValueError(f"expected {n} floats, got {len(e)}")
    return e


# The 2x2 arithmetic, written once on the floats of SpinMatrix.e, each
# formula grouped as the nested scalar operations round it; SpinMatrix and
# aqlab.spinor call these.

def _spin_entries(q: QuaternionA) -> tuple:
    """The floats of :func:`spin_matrix` of q."""
    al = q.alpha
    return (q.a, q.b, al * q.c, al * q.d, q.c, -q.d, q.a, -q.b)


def _matmul(m: tuple, n: tuple, al: int) -> tuple:
    ar, ai, br, bi, cr, ci, dr, di = m
    er, ei, fr, fi, gr, gi, hr, hi = n
    return ((ar * er + al * ai * ei) + (br * gr + al * bi * gi),
            (ar * ei + ai * er) + (br * gi + bi * gr),
            (ar * fr + al * ai * fi) + (br * hr + al * bi * hi),
            (ar * fi + ai * fr) + (br * hi + bi * hr),
            (cr * er + al * ci * ei) + (dr * gr + al * di * gi),
            (cr * ei + ci * er) + (dr * gi + di * gr),
            (cr * fr + al * ci * fi) + (dr * hr + al * di * hi),
            (cr * fi + ci * fr) + (dr * hi + di * hr))


def _det(m: tuple, al: int) -> tuple:
    """(re, im) of the determinant ad - bc."""
    ar, ai, br, bi, cr, ci, dr, di = m
    return ((ar * dr + al * ai * di) - (br * cr + al * bi * ci),
            (ar * di + ai * dr) - (br * ci + bi * cr))


def _inverse(m: tuple, al: int):
    """det^-1 [[d, -b], [-c, a]], or None when ``sk.inv(det)`` would raise."""
    zr, zi = _det(m, al)
    n = zr * zr - al * zi * zi
    if sk._isotropic(n, zr, zi):
        return None
    u, v = zr / n, -zi / n
    ar, ai, br, bi, cr, ci, dr, di = m
    return (u * dr + al * v * di, u * di + v * dr,
            u * -br + al * v * -bi, u * -bi + v * -br,
            u * -cr + al * v * -ci, u * -ci + v * -cr,
            u * ar + al * v * ai, u * ai + v * ar)


def smat(entries, alpha: int) -> SpinMatrix:
    """Build a SpinMatrix from a 2x2 nest of (re, im) pairs."""
    (a, b), (c, d) = entries
    return SpinMatrix([x for re, im in (a, b, c, d) for x in (re, im)], alpha)


def spin_matrix(q: QuaternionA) -> SpinMatrix:
    """Matrix of left multiplication by q on pairs of scalars.

    For q = z1 + j z2 the matrix is [[z1, alpha conj(z2)], [z2, conj(z1)]];
    it is an algebra homomorphism and det = qnormsq(q).
    """
    return SpinMatrix(_spin_entries(q), q.alpha)


def pauli_matrices(alpha: int) -> tuple[SpinMatrix, SpinMatrix, SpinMatrix]:
    """Images of the basis i, j, k: the generalized Pauli triple.

    sigma1 = [[i, 0], [0, -i]], sigma2 = [[0, alpha], [1, 0]],
    sigma3 = [[0, alpha*i], [-i, 0]].
    """
    return (spin_matrix(i_(alpha)), spin_matrix(j_(alpha)), spin_matrix(k_(alpha)))


def ad_matrix(q: QuaternionA) -> np.ndarray:
    """Commutator action of a purely imaginary q on the imaginary subspace.

    In the basis (i, j, k), with q = i a + j b + k c:

        [[0, 2 alpha c, -2 alpha b],
         [-2 alpha c, 0, 2 alpha a],
         [-2 b, 2 a, 0]]
    """
    import numpy as np
    _require_imaginary(q)
    a, b, c = q.b, q.c, q.d
    al = float(q.alpha)
    return np.array([
        [0.0, 2 * al * c, -2 * al * b],
        [-2 * al * c, 0.0, 2 * al * a],
        [-2 * b, 2 * a, 0.0],
    ])
