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

from dataclasses import dataclass

from . import scalars as sk
from .errors import NotPurelyImaginary, SignatureMismatch
from .scalars import ScalarKA

PURE_IMAG_TOL = 1e-9  #: purely imaginary when |a| <= this * (1 + max|coeff|)


@dataclass(frozen=True, slots=True)
class QuaternionA:
    """Quaternion ``a + i b + j c + k d`` with signature ``alpha`` in {-1, +1}."""

    a: float
    b: float
    c: float
    d: float
    alpha: int

    def __post_init__(self):
        if self.alpha not in (-1, 1):
            raise ValueError(f"alpha must be -1 or +1, got {self.alpha!r}")
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def __add__(self, other):
        _check(self, other)
        return QuaternionA(self.a + other.a, self.b + other.b,
                           self.c + other.c, self.d + other.d, self.alpha)

    def __sub__(self, other):
        _check(self, other)
        return QuaternionA(self.a - other.a, self.b - other.b,
                           self.c - other.c, self.d - other.d, self.alpha)

    def __neg__(self):
        return QuaternionA(-self.a, -self.b, -self.c, -self.d, self.alpha)

    def __mul__(self, other):
        return qmul(self, other)

    def coeffs(self) -> np.ndarray:
        import numpy as np
        return np.array([self.a, self.b, self.c, self.d])

    def __repr__(self):
        return (f"Q({self.a:g} + {self.b:g}i + {self.c:g}j + {self.d:g}k"
                f" | a={self.alpha:+d})")


def _check(p: QuaternionA, q: QuaternionA):
    if p.alpha != q.alpha:
        raise SignatureMismatch(
            f"cannot combine alpha={p.alpha} with alpha={q.alpha}"
        )


def from_coeffs(v, alpha: int) -> QuaternionA:
    a, b, c, d = (float(t) for t in v)
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
    return (sk._mk(q.a, q.b, q.alpha), sk._mk(q.c, -q.d, q.alpha))


def qmul(p: QuaternionA, q: QuaternionA) -> QuaternionA:
    """Associative product of the doubling construction."""
    _check(p, q)
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
    return q.a * q.a - q.alpha * (q.b * q.b + q.c * q.c) + q.d * q.d


def scalar_product(p: QuaternionA, q: QuaternionA) -> float:
    """Polarization of the norm: <p, q> = (conj(p) q + conj(q) p) / 2."""
    _check(p, q)
    return p.a * q.a - p.alpha * (p.b * q.b + p.c * q.c) + p.d * q.d


def is_purely_imaginary(q: QuaternionA) -> bool:
    sup = max(abs(q.a), abs(q.b), abs(q.c), abs(q.d))
    return abs(q.a) <= PURE_IMAG_TOL * (1.0 + sup)


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

@dataclass(frozen=True, slots=True)
class SpinMatrix:
    """2x2 matrix over the scalar ring, the defining representation space."""

    m: tuple  # ((ScalarKA, ScalarKA), (ScalarKA, ScalarKA))

    def __post_init__(self):
        (a, b), (c, d) = self.m
        if not a.alpha == b.alpha == c.alpha == d.alpha:
            raise SignatureMismatch("matrix entries carry different signatures")

    @property
    def alpha(self) -> int:
        return self.m[0][0].alpha

    def __getitem__(self, idx):
        r, c = idx
        return self.m[r][c]

    def __matmul__(self, other: "SpinMatrix") -> "SpinMatrix":
        _check(self, other)
        (a, b), (c, d) = self.m
        (e, f), (g, h) = other.m
        return SpinMatrix(((sk._dot(a, e, b, g), sk._dot(a, f, b, h)),
                           (sk._dot(c, e, d, g), sk._dot(c, f, d, h))))

    def __add__(self, other: "SpinMatrix") -> "SpinMatrix":
        return SpinMatrix(tuple(
            tuple(sk.add(self.m[r][c], other.m[r][c]) for c in range(2))
            for r in range(2)))

    def __sub__(self, other: "SpinMatrix") -> "SpinMatrix":
        return SpinMatrix(tuple(
            tuple(self.m[r][c] - other.m[r][c] for c in range(2))
            for r in range(2)))

    def det(self) -> ScalarKA:
        (a, b), (c, d) = self.m
        al = a.alpha
        return sk._mk(
            (a.re * d.re + al * a.im * d.im) - (b.re * c.re + al * b.im * c.im),
            (a.re * d.im + a.im * d.re) - (b.re * c.im + b.im * c.re), al)

    def real_trace(self) -> float:
        """Sum of real parts of the diagonal entries."""
        return self.m[0][0].re + self.m[1][1].re

    def inv(self) -> "SpinMatrix":
        z = sk.inv(self.det())
        (a, b), (c, d) = self.m
        al, u, v = z.alpha, z.re, z.im
        return SpinMatrix((
            (sk._mk(u * d.re + al * v * d.im, u * d.im + v * d.re, al),
             sk._mk(u * -b.re + al * v * -b.im, u * -b.im + v * -b.re, al)),
            (sk._mk(u * -c.re + al * v * -c.im, u * -c.im + v * -c.re, al),
             sk._mk(u * a.re + al * v * a.im, u * a.im + v * a.re, al))))

    def max_abs(self) -> float:
        return max(sk.abs2norm(self.m[r][c]) for r in range(2) for c in range(2))


def smat(entries, alpha: int) -> SpinMatrix:
    """Build a SpinMatrix from a 2x2 nest of (re, im) pairs or ScalarKA."""
    rows = []
    for r in range(2):
        row = []
        for c in range(2):
            e = entries[r][c]
            if isinstance(e, ScalarKA):
                row.append(e)
            else:
                row.append(ScalarKA(e[0], e[1], alpha))
        rows.append(tuple(row))
    return SpinMatrix((rows[0], rows[1]))


def smat_close(x: SpinMatrix, y: SpinMatrix, tol: float = 1e-9) -> bool:
    return all(sk.close(x.m[r][c], y.m[r][c], tol=tol)
               for r in range(2) for c in range(2))


def spin_matrix(q: QuaternionA) -> SpinMatrix:
    """Matrix of left multiplication by q on pairs of scalars.

    For q = z1 + j z2 the matrix is [[z1, alpha conj(z2)], [z2, conj(z1)]];
    it is an algebra homomorphism and det = qnormsq(q).
    """
    z1, z2 = to_pair(q)
    al = q.alpha
    return SpinMatrix(((z1, sk._mk(al * q.c, al * q.d, al)),
                       (z2, sk._mk(q.a, -q.b, al))))


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
