"""Self-dual two-form calculus on the 4-dimensional model fibre.

The fibre carries the metric diag(1, -alpha, -alpha, 1), which has index 0
for alpha = -1 and index 2 for alpha = +1; in both cases the star operator
on two-forms is an involution and splits them into +1 and -1 eigenspaces of
dimension three.  Self-dual forms correspond to skew-adjoint endomorphisms
squaring to a real multiple of the identity, and an orthogonal triple of
them generates a matrix copy of the quaternion algebra of the same
signature.

Forms, the star and endomorphisms are computed on float tuples, so this
module loads no numpy; the functions that return matrices build ndarrays
from those tuples.  :class:`Metric4` and :class:`TwoForm4` are immutable by
convention.
"""

from __future__ import annotations

import math

from .errors import InvalidInput, Overflow
from .scalars import _check_alpha

# Two-form components are stored in this fixed pair order.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class Metric4:
    """The model metric diag(1, -alpha, -alpha, 1)."""

    def __init__(self, alpha: int):
        self.alpha = _check_alpha(alpha)

    def diagonal(self) -> tuple:
        a = float(self.alpha)
        return (1.0, -a, -a, 1.0)

    def eps(self, i: int, j: int) -> float:
        """Sign factor g_ii * g_jj of an orthonormal index pair."""
        g = self.diagonal()
        return g[i] * g[j]


class TwoForm4:
    """Antisymmetric two-form stored by its six independent components."""

    def __init__(self, comp):
        self.comp = tuple(float(x) for x in comp)  # in PAIRS order
        if len(self.comp) != 6:
            raise InvalidInput("a two-form has six independent components")

    def __add__(self, other):
        return TwoForm4(tuple(x + y for x, y in zip(self.comp, other.comp)))

    def __sub__(self, other):
        return TwoForm4(tuple(x - y for x, y in zip(self.comp, other.comp)))

    def scale(self, t: float) -> "TwoForm4":
        return TwoForm4(tuple(t * x for x in self.comp))

    def rows(self) -> tuple:
        """The full antisymmetric 4x4 component matrix, as four row tuples."""
        w01, w02, w03, w12, w13, w23 = self.comp
        return ((0.0, w01, w02, w03), (-w01, 0.0, w12, w13),
                (-w02, -w12, 0.0, w23), (-w03, -w13, -w23, 0.0))


def _star_signs(g: Metric4) -> tuple:
    """The star as a signed reversal of the PAIRS components.

    (star w)_ij = (1/2) eta_ijkl g^{km} g^{lr} w_mr reduces on the diagonal
    metric to a signed pairing of complementary index pairs.  In the PAIRS
    order the complement of pair r is pair 5 - r, and the signs
    eta_ijkl g^kk g^ll of (ij) -> (kl) are -alpha, alpha, 1, 1, alpha, -alpha.
    """
    a = float(g.alpha)
    return (-a, a, 1.0, 1.0, a, -a)


def hodge_star(g: Metric4, w: TwoForm4) -> TwoForm4:
    """Star operator; involutive since the metric index is even."""
    return TwoForm4(tuple(s * x for s, x in zip(_star_signs(g),
                                                 reversed(w.comp))))


def sd_decompose(g: Metric4, w: TwoForm4) -> tuple[TwoForm4, TwoForm4]:
    """Split into (self-dual, anti-self-dual) halves via (id +/- star)/2."""
    sw = hodge_star(g, w)
    return (w + sw).scale(0.5), (w - sw).scale(0.5)


def selfdual_form(alpha: int, x: float, y: float, z: float) -> TwoForm4:
    """The general self-dual form with parameters (x, y, z).

    Component matrix rows: (0, x, y, z), (-x, 0, z, alpha y),
    (-y, -z, 0, -alpha x), (-z, -alpha y, alpha x, 0).
    """
    a = float(alpha)
    return TwoForm4((x, y, z, z, a * y, -a * x))


def antiselfdual_form(alpha: int, x: float, y: float, z: float) -> TwoForm4:
    """The general anti-self-dual form with parameters (x, y, z)."""
    a = float(alpha)
    return TwoForm4((x, y, z, -z, -a * y, a * x))


def inner_lambda2(g: Metric4, w1: TwoForm4, w2: TwoForm4) -> float:
    """Induced inner product <w1, w2> = (1/2) (w1)_jk (w2)^jk."""
    return sum(g.eps(i, j) * a * b
               for (i, j), a, b in zip(PAIRS, w1.comp, w2.comp))


def wedge_coefficient(w: TwoForm4) -> float:
    """Coefficient of (w ^ w) on the volume form: 2(w01 w23 - w02 w13 + w03 w12)."""
    c = w.comp
    return 2.0 * (c[0] * c[5] - c[1] * c[4] + c[2] * c[3])


def endo_rows(g: Metric4, w: TwoForm4) -> tuple:
    """The endomorphism J with w(X, Y) = <X, J Y>, i.e. index raising, as
    four row tuples: J = g W, since diag(+-1) is its own inverse.

    J is skew-adjoint for the metric; when w is self-dual, J^2 is the scalar
    -lambda^2 with lambda^2 = -tr(J^2)/4 = |w|^2 / 2.
    """
    return tuple([tuple([gi * x for x in row])
                  for gi, row in zip(g.diagonal(), w.rows())])


def form_to_endo(g: Metric4, w: TwoForm4) -> np.ndarray:
    """The matrix of :func:`endo_rows`."""
    import numpy as np
    return np.array(endo_rows(g, w))


def lambda_sq(g: Metric4, w: TwoForm4) -> float:
    """lambda^2 = -tr(J^2)/4 for the endomorphism of w.

    Each diagonal entry of J J is its row-by-column sum and the trace their
    sum, both in index order.  Raises :class:`Overflow` when w is finite but
    J^2 leaves the float range, where the value would be an infinity or NaN.
    """
    J = endo_rows(g, w)
    l2 = -sum(sum(J[i][k] * J[k][i] for k in range(4)) for i in range(4)) / 4.0
    if not math.isfinite(l2) and all(map(math.isfinite, w.comp)):
        big = max(map(abs, w.comp))
        raise Overflow(f"lambda^2 overflows: J^2 of a form with components "
                       f"up to {big:.3g} is not finite")
    return l2


def canonical_aq_basis(g: Metric4, orientation: int = 1):
    """Operator triple (J1, J2, J3) generating the quaternion algebra.

    Built from the orthogonal parameter triple (1,0,0), (0,1,0), (0,0,1) of
    self-dual forms (anti-self-dual for orientation = -1), whose squared
    norms are (-2 alpha, -2 alpha, 2).  Then J1^2 = J2^2 = alpha id,
    J1 J2 + J2 J1 = 0, and J3 = J1 J2 squares to -id, so
    {id, J1, J2, J3} multiplies like the basis (1, i, j, k).
    """
    if orientation not in (-1, 1):
        raise InvalidInput("orientation must be +1 or -1")
    build = selfdual_form if orientation == 1 else antiselfdual_form
    J1 = form_to_endo(g, build(g.alpha, 1.0, 0.0, 0.0))
    J2 = form_to_endo(g, build(g.alpha, 0.0, 1.0, 0.0))
    return J1, J2, J1 @ J2
