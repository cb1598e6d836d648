"""Arithmetic of the commutative ring R + iR with i**2 = alpha.

``alpha = -1`` gives the complex numbers, ``alpha = +1`` the double
(split-complex) numbers.  The double numbers contain zero divisors, e.g.
``(1 + i)(1 - i) = 1 - i**2 = 0``, so inversion must reject isotropic
elements instead of silently dividing.

Every operation is a pure function.  Values are immutable slotted records
on :class:`Record`, the base of the values of :mod:`aqlab.quat` and
:mod:`aqlab.spinor` too.  This bottom layer also holds the package's one
homogeneous bound rule, :func:`_within`, its one isotropy test, its one
signature check, :func:`_check_alpha`, and its one number rule,
:func:`is_number`.
"""

from __future__ import annotations

import math

from .errors import (InvalidSignature, IsotropicScalar, Overflow,
                     SignatureMismatch)

ISOTROPY_TOL = 1e-9  #: isotropic (no inverse): |z|^2 <= this max(|re|, |im|)^2


_set = object.__setattr__  #: how a constructor sets its record's fields


def _within(residual, size, degree: int, tol: float) -> bool:
    """residual <= tol size^degree, the bound of a defect homogeneous of
    ``degree`` in an input of sup norm ``size``; false on NaN.  The power is
    a product: ``**`` raises OverflowError past the float range."""
    return bool(residual <= tol * math.prod([size] * degree))


def _isotropic(n: float, *floats) -> bool:
    """Whether n, the squared norm of the value made of ``floats``, is at
    most ``ISOTROPY_TOL`` size^2, size their sup norm; false for a non-finite
    value, and Overflow for a finite value whose n is not finite."""
    a = abs(n)
    if a < math.inf:  # _within's bound, float by float: on two floats a
        for x in floats:  # third of the time of max(map(abs, floats))
            if a <= ISOTROPY_TOL * (x * x):
                return True
        return False
    if all(map(math.isfinite, floats)):
        raise Overflow(f"squared norm {n} of a finite value")
    return False


def is_number(x) -> bool:
    """x is a finite real number within float range (an int of 400 digits is
    not): an exact int or float by its type, else a ``numbers.Real`` that is
    not a bool (a numpy number, a Fraction; no complex, string or array)."""
    if type(x) is not float and type(x) is not int:
        import numbers  # kept off the start-up of the numpy-free commands
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int or a Fraction past float range
        return False


def is_integral(n) -> bool:
    """n is a number with an integer value (an integral float counts)."""
    return is_number(n) and n == int(n)


class Record:
    """An immutable record of the fields named in ``__slots__``, set once by
    the subclass's validating constructor; values of one type with equal
    fields are equal and hash equally."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _check_alpha(alpha) -> int:
    """alpha as the int -1 or +1.  An int returns at once; any other value
    must be a number by :func:`is_number` equal to -1 or +1 (an integral
    float counts, a bool or a complex does not), else InvalidSignature."""
    if type(alpha) is int and (alpha == 1 or alpha == -1):
        return alpha
    if is_number(alpha) and alpha in (-1, 1):
        return int(alpha)
    raise InvalidSignature(f"alpha must be -1 or +1, got {alpha!r}")


class ScalarKA(Record):
    """Element ``re + i*im`` with ``i**2 = alpha``, ``alpha`` in ``{-1, +1}``."""

    __slots__ = ("re", "im", "alpha")

    def __init__(self, re: float, im: float, alpha: int):
        _set(self, "alpha", _check_alpha(alpha))
        _set(self, "re", float(re))
        _set(self, "im", float(im))

    def __add__(self, other: "ScalarKA") -> "ScalarKA":
        return add(self, other)

    def __sub__(self, other: "ScalarKA") -> "ScalarKA":
        return add(self, neg(other))

    def __repr__(self):
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re:g} {sign} {abs(self.im):g}i | a={self.alpha:+d})"


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
    return ScalarKA(x.re + y.re, x.im + y.im, x.alpha)


def neg(x: ScalarKA) -> ScalarKA:
    return ScalarKA(-x.re, -x.im, x.alpha)


def scale(t: float, x: ScalarKA) -> ScalarKA:
    """Multiplication by a real number."""
    return ScalarKA(t * x.re, t * x.im, x.alpha)


def mul(x: ScalarKA, y: ScalarKA) -> ScalarKA:
    """(a + ib)(c + id) = (ac + alpha*bd) + i(ad + bc)."""
    _check_signatures(x, y)
    return ScalarKA(x.re * y.re + x.alpha * x.im * y.im,
                    x.re * y.im + x.im * y.re, x.alpha)


def conj(x: ScalarKA) -> ScalarKA:
    """The ring involution a + ib -> a - ib."""
    return ScalarKA(x.re, -x.im, x.alpha)


def normsq(x: ScalarKA) -> float:
    """|z|^2 = z * conj(z) = re^2 - alpha*im^2.

    Real valued, but may be negative or zero for alpha = +1.
    """
    return x.re * x.re - x.alpha * x.im * x.im


def is_isotropic(x: ScalarKA) -> bool:
    """True when z is a zero divisor or zero, as :func:`_isotropic` decides."""
    return _isotropic(normsq(x), x.re, x.im)


def inv(x: ScalarKA) -> ScalarKA:
    """Multiplicative inverse conj(z)/|z|^2.

    Raises:
        IsotropicScalar: when z is isotropic (:func:`is_isotropic`).
        Overflow: when |z|^2 of a finite z leaves the float range.
    """
    n = normsq(x)
    if _isotropic(n, x.re, x.im):
        raise IsotropicScalar(f"{x!r} is isotropic (normsq {n:.3e})")
    return ScalarKA(x.re / n, -x.im / n, x.alpha)

