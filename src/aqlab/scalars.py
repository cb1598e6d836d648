"""Arithmetic of the commutative ring R + iR with i**2 = alpha.

``alpha = -1`` gives the complex numbers, ``alpha = +1`` the double
(split-complex) numbers.  The double numbers contain zero divisors, e.g.
``(1 + i)(1 - i) = 1 - i**2 = 0``, so inversion must reject isotropic
elements instead of silently dividing.

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IsotropicScalar, SignatureMismatch

# Chosen to separate genuine zero divisors from roundoff at unit scale.
ISOTROPY_TOL = 1e-9  #: absolute: z is isotropic (no inverse) when |z|^2 <= this


@dataclass(frozen=True, slots=True)
class ScalarKA:
    """Element ``re + i*im`` with ``i**2 = alpha``, ``alpha`` in ``{-1, +1}``."""

    re: float
    im: float
    alpha: int

    def __post_init__(self):
        if self.alpha not in (-1, 1):
            raise ValueError(f"alpha must be -1 or +1, got {self.alpha!r}")
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", float(self.im))

    def __add__(self, other: "ScalarKA") -> "ScalarKA":
        return add(self, other)

    def __sub__(self, other: "ScalarKA") -> "ScalarKA":
        return add(self, neg(other))

    def __repr__(self):
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re:g} {sign} {abs(self.im):g}i | a={self.alpha:+d})"


_SET_RE, _SET_IM, _SET_ALPHA = (ScalarKA.re.__set__, ScalarKA.im.__set__,
                                ScalarKA.alpha.__set__)


def _mk(re: float, im: float, alpha: int) -> ScalarKA:
    """Unvalidated constructor for floats of an already validated alpha."""
    z = object.__new__(ScalarKA)
    _SET_RE(z, re)
    _SET_IM(z, im)
    _SET_ALPHA(z, alpha)
    return z


def from_real(x: float, alpha: int) -> ScalarKA:
    return ScalarKA(x, 0.0, alpha)


def one(alpha: int) -> ScalarKA:
    return ScalarKA(1.0, 0.0, alpha)


def zero(alpha: int) -> ScalarKA:
    return ScalarKA(0.0, 0.0, alpha)


def imag_unit(alpha: int) -> ScalarKA:
    """The generator i with i**2 = alpha."""
    return ScalarKA(0.0, 1.0, alpha)


def _check_signatures(x, y):
    """Raise unless x and y (any values with an ``alpha``) share one."""
    if x.alpha != y.alpha:
        raise SignatureMismatch(
            f"cannot combine alpha={x.alpha} with alpha={y.alpha}"
        )


def add(x: ScalarKA, y: ScalarKA) -> ScalarKA:
    _check_signatures(x, y)
    return _mk(x.re + y.re, x.im + y.im, x.alpha)


def neg(x: ScalarKA) -> ScalarKA:
    return _mk(-x.re, -x.im, x.alpha)


def scale(t: float, x: ScalarKA) -> ScalarKA:
    """Multiplication by a real number."""
    return ScalarKA(t * x.re, t * x.im, x.alpha)


def mul(x: ScalarKA, y: ScalarKA) -> ScalarKA:
    """(a + ib)(c + id) = (ac + alpha*bd) + i(ad + bc)."""
    _check_signatures(x, y)
    return _mk(x.re * y.re + x.alpha * x.im * y.im,
               x.re * y.im + x.im * y.re, x.alpha)


def conj(x: ScalarKA) -> ScalarKA:
    """The ring involution a + ib -> a - ib."""
    return _mk(x.re, -x.im, x.alpha)


def normsq(x: ScalarKA) -> float:
    """|z|^2 = z * conj(z) = re^2 - alpha*im^2.

    Real valued, but may be negative or zero for alpha = +1.
    """
    return x.re * x.re - x.alpha * x.im * x.im


def is_isotropic(x: ScalarKA) -> bool:
    """True when |z|^2 vanishes within ``ISOTROPY_TOL`` (zero divisor or zero)."""
    return abs(normsq(x)) <= ISOTROPY_TOL


def inv(x: ScalarKA) -> ScalarKA:
    """Multiplicative inverse conj(z)/|z|^2.

    Raises:
        IsotropicScalar: when |z|^2 is at most ``ISOTROPY_TOL`` in absolute value.
    """
    n = normsq(x)
    if abs(n) <= ISOTROPY_TOL:
        raise IsotropicScalar(f"normsq {n:.3e} below tolerance {ISOTROPY_TOL:.1e}")
    return _mk(x.re / n, -x.im / n, x.alpha)


def close(x: ScalarKA, y: ScalarKA, tol: float = 1e-12) -> bool:
    """Componentwise comparison up to ``tol`` (signatures must match)."""
    _check_signatures(x, y)
    return abs(x.re - y.re) <= tol and abs(x.im - y.im) <= tol


def abs2norm(x: ScalarKA) -> float:
    """Euclidean size sqrt(re^2 + im^2), used only for tolerance scaling."""
    return math.hypot(x.re, x.im)
