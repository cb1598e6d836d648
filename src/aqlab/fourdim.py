"""Self-dual two-form calculus on the 4-dimensional model fibre.

The fibre carries the metric diag(1, -alpha, -alpha, 1), which has index 0
for alpha = -1 and index 2 for alpha = +1; in both cases the star operator
on two-forms is an involution and splits them into +1 and -1 eigenspaces of
dimension three.  Self-dual forms correspond to skew-adjoint endomorphisms
squaring to a real multiple of the identity, and an orthogonal triple of
them generates a matrix copy of the quaternion algebra of the same
signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

# Two-form components are stored in this fixed pair order.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

_PARITY = {}
for _perm in permutations(range(4)):
    _inv = sum(1 for x in range(4) for y in range(x + 1, 4) if _perm[x] > _perm[y])
    _PARITY[_perm] = -1.0 if _inv % 2 else 1.0


def _eta(i, j, k, l) -> float:
    """Components of the volume form, normalized by eta(0,1,2,3) = +1."""
    if len({i, j, k, l}) < 4:
        return 0.0
    return _PARITY[(i, j, k, l)]


@dataclass(frozen=True)
class Metric4:
    """The model metric diag(1, -alpha, -alpha, 1)."""

    alpha: int

    def __post_init__(self):
        if self.alpha not in (-1, 1):
            raise ValueError(f"alpha must be -1 or +1, got {self.alpha!r}")

    def matrix(self) -> np.ndarray:
        a = float(self.alpha)
        return np.diag([1.0, -a, -a, 1.0])

    def eps(self, i: int, j: int) -> float:
        """Sign factor g_ii * g_jj of an orthonormal index pair."""
        g = (1.0, -float(self.alpha), -float(self.alpha), 1.0)
        return g[i] * g[j]


@dataclass(frozen=True)
class TwoForm4:
    """Antisymmetric two-form stored by its six independent components."""

    comp: tuple  # components in PAIRS order

    def __post_init__(self):
        object.__setattr__(self, "comp", tuple(float(x) for x in self.comp))
        if len(self.comp) != 6:
            raise ValueError("a two-form has six independent components")

    def __add__(self, other):
        return TwoForm4(tuple(x + y for x, y in zip(self.comp, other.comp)))

    def __sub__(self, other):
        return TwoForm4(tuple(x - y for x, y in zip(self.comp, other.comp)))

    def __neg__(self):
        return TwoForm4(tuple(-x for x in self.comp))

    def scale(self, t: float) -> "TwoForm4":
        return TwoForm4(tuple(t * x for x in self.comp))

    def matrix(self) -> np.ndarray:
        """Expand to the full antisymmetric 4x4 component matrix."""
        m = np.zeros((4, 4))
        for (i, j), v in zip(PAIRS, self.comp):
            m[i, j] = v
            m[j, i] = -v
        return m


def form_from_matrix(m: np.ndarray) -> TwoForm4:
    m = np.asarray(m, dtype=float)
    return TwoForm4(tuple(m[i, j] for (i, j) in PAIRS))


def zero_form() -> TwoForm4:
    return TwoForm4((0.0,) * 6)


def star_matrix(g: Metric4) -> np.ndarray:
    """The 6x6 matrix of the star operator in the PAIRS component basis.

    (star w)_ij = (1/2) eta_ijkl g^{km} g^{lr} w_mr reduces on the diagonal
    metric to a signed pairing of complementary index pairs.
    """
    gdiag = np.diag(g.matrix())
    s = np.zeros((6, 6))
    for r, (i, j) in enumerate(PAIRS):
        for c, (k, l) in enumerate(PAIRS):
            s[r, c] = _eta(i, j, k, l) * (1.0 / gdiag[k]) * (1.0 / gdiag[l])
    return s


def hodge_star(g: Metric4, w: TwoForm4) -> TwoForm4:
    """Star operator; involutive since the metric index is even."""
    return TwoForm4(tuple(star_matrix(g) @ np.array(w.comp)))


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


def norm_sq(g: Metric4, w: TwoForm4) -> float:
    return inner_lambda2(g, w, w)


def wedge_coefficient(w: TwoForm4) -> float:
    """Coefficient of (w ^ w) on the volume form: 2(w01 w23 - w02 w13 + w03 w12)."""
    c = w.comp
    return 2.0 * (c[0] * c[5] - c[1] * c[4] + c[2] * c[3])


def form_to_endo(g: Metric4, w: TwoForm4) -> np.ndarray:
    """The endomorphism J with w(X, Y) = <X, J Y>, i.e. index raising.

    J is skew-adjoint for the metric; when w is self-dual, J^2 is the scalar
    -lambda^2 with lambda^2 = -tr(J^2)/4 = |w|^2 / 2.
    """
    ginv = np.linalg.inv(g.matrix())
    return ginv @ w.matrix()


def endo_to_form(g: Metric4, J: np.ndarray) -> TwoForm4:
    """Inverse of :func:`form_to_endo` (index lowering)."""
    return form_from_matrix(g.matrix() @ np.asarray(J, dtype=float))


def lambda_sq(g: Metric4, w: TwoForm4) -> float:
    """lambda^2 = -tr(J^2)/4 for the endomorphism of w."""
    J = form_to_endo(g, w)
    return -np.trace(J @ J) / 4.0


def canonical_aq_basis(g: Metric4, orientation: int = 1):
    """Operator triple (J1, J2, J3) generating the quaternion algebra.

    Built from the orthogonal parameter triple (1,0,0), (0,1,0), (0,0,1) of
    self-dual forms (anti-self-dual for orientation = -1), whose squared
    norms are (-2 alpha, -2 alpha, 2).  Then J1^2 = J2^2 = alpha id,
    J1 J2 + J2 J1 = 0, and J3 = J1 J2 squares to -id, so
    {id, J1, J2, J3} multiplies like the basis (1, i, j, k).
    """
    if orientation not in (-1, 1):
        raise ValueError("orientation must be +1 or -1")
    build = selfdual_form if orientation == 1 else antiselfdual_form
    w1 = build(g.alpha, 1.0, 0.0, 0.0)
    w2 = build(g.alpha, 0.0, 1.0, 0.0)
    J1 = form_to_endo(g, w1)
    J2 = form_to_endo(g, w2)
    return J1, J2, J1 @ J2
