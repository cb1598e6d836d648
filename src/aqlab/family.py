"""The metric family's closed forms in (lam, mu), on plain floats.

Every scalar of the family <X, Y> = g0(X, Y) + lam g0(X, IY) + mu g0(X, JY)
on a doubled semisimple group that does not depend on the base lives here:
the determinant factor d0 = 1 - lam^2 - mu^2, the four Ricci coefficients
(A, B, C, D), the parameter check, the four Einstein points and the
Einstein verdict they give.  The module imports no numpy, and its formulas
take floats and numpy arrays alike, so :mod:`aqlab.gxg` evaluates them on
whole grids.

By the Casimir identity sum_a eps_a [[X, e_a], e_a] = -X of every
semisimple algebra (trace form, pseudo-orthonormal basis e_a), the Ricci
operator of the family acts blockwise on m + m as

    r = -(1/d0) [[A, C], [D, B]],

the same for every base.  So the family is Einstein iff C = D = 0 and
A = B, with Ricci constant eps = -(A + B) / (2 d0), the trace of r over its
dimension; :meth:`aqlab.gxg.MetricFamily.einstein_check` reads the same
verdict off the Ricci matrix of a doubled model and is its oracle.
"""

from __future__ import annotations

import math

from .errors import Degenerate, Overflow
from .scalars import _within, is_number

DEGENERACY_TOL = 1e-12  #: absolute: metric degenerate when |1 - lam^2 - mu^2| <= this
EINSTEIN_TOL = 1e-9  #: Ricci rel. to max(1, |eps|); Hermitian classes to |nabla| |calJ|^k

# mu = 0 forces lam = 0; lam = 0 takes the root -1/2 of 2 mu^2 + 3 mu + 1
# (its root -1 lies on the degeneracy circle); mu = -2/3 takes lam = +-1/3
EINSTEIN_CANDIDATES = ((0.0, 0.0), (0.0, -0.5),
                       (1.0 / 3.0, -2.0 / 3.0), (-1.0 / 3.0, -2.0 / 3.0))


def _d0(lam, mu):
    """1 - lam^2 - mu^2, the determinant factor of the family's metric, for
    floats or arrays alike; zero on the degeneracy circle."""
    return 1.0 - lam ** 2 - mu ** 2


def check_point(lam, mu) -> tuple:
    """(lam, mu, d0) as floats for a point of the family: Degenerate when
    lam or mu fails :func:`aqlab.scalars.is_number` or the point lies on the
    degeneracy circle, Overflow when lam^2 + mu^2 leaves the float range."""
    if not (is_number(lam) and is_number(mu)):
        raise Degenerate(f"lam and mu must be finite real numbers, got {lam!r}, {mu!r}")
    flam, fmu = float(lam), float(mu)
    try:  # ** raises OverflowError; the subtractions give -inf instead
        d0 = _d0(flam, fmu)
    except OverflowError:
        d0 = -math.inf
    if math.isinf(d0):
        raise Overflow(f"lam^2 + mu^2 overflows for lam = {lam!r}, "
                       f"mu = {mu!r}")
    if abs(d0) <= DEGENERACY_TOL:
        raise Degenerate(
            f"1 - lam^2 - mu^2 = {d0!r}: (lam, mu) lies on the "
            "degeneracy circle"
        )
    return flam, fmu, d0


def ricci_coefficients(lam: float, mu: float):
    """The four scalars (A, B, C, D) of the contracted curvature.

    Base independent: in a trace-form orthonormal working basis of any
    doubled model the Ricci operator is

        r(X) = (1/d0) sum_a eps_a { A [[X, e_a], e_a] + B [[X, Je_a], Je_a]
                + C [[JX, e_a], e_a] + D [[JX, Je_a], Je_a] }.
    """
    q = 4.0 * _d0(lam, mu)
    A = -(1.0 - lam) / 4.0 + mu ** 2 * (mu - lam + 1.0) / q
    B = -(1.0 + lam) / 4.0 + mu ** 2 * (mu + lam + 1.0) / q
    pc, pd = _cd_cofactors(lam, mu)
    return A, B, mu * pc / q, -mu * pd / q


def _cd_cofactors(lam, mu):
    """The polynomials pc, pd with 4 d0 C = mu pc and 4 d0 D = -mu pd."""
    return (-2 * mu ** 2 - lam ** 2 + 3 * lam * mu - 3 * mu + 2 * lam - 1.0,
            2 * mu ** 2 + lam ** 2 + 3 * lam * mu + 3 * mu + 2 * lam + 1.0)


def einstein_constant(lam, mu):
    """The Ricci constant eps = -(A + B) / (2 d0) when the family is
    Einstein at (lam, mu), else None; the point must pass
    :func:`check_point`.

    The rule of ``einstein_check``, max |r - eps id| <= ``EINSTEIN_TOL``
    max(1, |eps|), in block form: the largest entry of r - eps id is
    max(|A - B| / 2, |C|, |D|) / |d0|.  A Ricci constant beyond the float
    range (lam = mu = 1e150, say) gives None.
    """
    lam, mu, d0 = check_point(lam, mu)
    A, B, C, D = ricci_coefficients(lam, mu)
    eps = -(A + B) / (2.0 * d0)
    defect = max(abs(A - B) / 2.0, abs(C), abs(D)) / abs(d0)
    if math.isfinite(eps) and _within(defect, max(1.0, abs(eps)), 1, EINSTEIN_TOL):
        return eps
    return None


def einstein_points():
    """[(lam, mu, eps)] for the candidates that are Einstein points: all
    four, on every semisimple base."""
    return [(lam, mu, eps) for lam, mu in EINSTEIN_CANDIDATES
            if (eps := einstein_constant(lam, mu)) is not None]
