"""Two-parameter metric family on a doubled Lie group and its curvature.

On the doubled model m + m of a semisimple Lie algebra the block metric
g0 = diag(eps, eps) of its trace form combines with the involutions I and J
into the family

    <X, Y> = g0(X, Y) + lam g0(X, IY) + mu g0(X, JY),

nondegenerate exactly off the circle lam^2 + mu^2 = 1.  Everything
downstream is closed-form in (lam, mu): the torsion-free metric connection,
its curvature, the Ricci operator with its four scalar coefficients, the
compatible almost Hermitian operators (mu I - lam J + K)/sqrt(1 - lam^2 -
mu^2), and the resulting classifications.  The family contains exactly
four Einstein points,

    (0, 0), (0, -1/2), (1/3, -2/3), (-1/3, -2/3)

with Ricci constants 1/4, 5/18, 3/8, 3/8, and exactly one nearly Kaehler
(equivalently quasi Kaehler) structure at (0, -1/2), while the whole open
disc consists of G1 structures.

Each computed quantity has two independent evaluation routes (closed form
against a compositional or contraction oracle); the test suite pins their
agreement.  The scalar closed forms in (lam, mu), the parameter check and
the Einstein points live in the numpy-free :mod:`aqlab.family` and are
re-exported here; this module evaluates them on a doubled model and on
grids.
"""

from __future__ import annotations

import math
from functools import cached_property, partial

import numpy as np

from .errors import Degenerate, InvalidInput, InvalidResolution
# the closed forms, re-exported: callers may import any of them from here
from .family import (DEGENERACY_TOL, EINSTEIN_CANDIDATES, EINSTEIN_TOL,
                     _cd_cofactors, _d0, check_point, einstein_constant,
                     ricci_coefficients)
from .liealg import DoubledModel
from .scalars import _within, is_number
from .tensors import (apply, apply_rows, curvature as compose_curvature,
                      curvature_at, post, real_array, ricci, transport)

# Finest sweep resolution: the scan grid has (2 / res + 1)^2 points, about
# 4e6 here (3.1e6 of them inside the disc).
MIN_SWEEP_RES = 1e-3
SWEEP_STEPS = 12  #: Newton steps from every coarse start (8 miss by 3e-9)
SWEEP_POINT_SEP = 1e-6  #: absolute: nearer polished points are one point


# R(X, Y)Z is the sum of k p^i q^j [u, [v, w]] over the rows (k, i, j, "u v w");
# each of the first twenty rows also subtracts its term with X and Y swapped,
# and the last five are the [[., .], .] terms, written as -[w, [u, v]].
_CURVATURE_TERMS = (
    (0.5, 1, 0, "X Y JZ"), (-0.5, 1, 0, "X JY Z"), (0.5, 0, 1, "X KY Z"),
    (-0.5, 0, 1, "X Y KZ"), (0.5, 1, 0, "X JY JZ"), (-1.0, 2, 0, "X Y JZ"),
    (1.0, 2, 0, "X JY Z"), (-0.5, 1, 0, "JX Y Z"), (-1.0, 2, 0, "JX Y JZ"),
    (1.0, 2, 0, "JX JY Z"), (-1.0, 1, 1, "JX KY Z"), (1.0, 1, 1, "JX Y KZ"),
    (0.5, 0, 1, "KX Y Z"), (1.0, 1, 1, "KX Y JZ"), (-1.0, 1, 1, "KX JY Z"),
    (1.0, 0, 2, "KX KY Z"), (-1.0, 0, 2, "KX Y KZ"), (-0.5, 0, 1, "X KY JZ"),
    (1.0, 0, 2, "X Y JZ"), (-1.0, 0, 2, "X JY Z"),
    (0.25, 0, 0, "Z X Y"), (1.0, 1, 0, "JZ X Y"), (-1.0, 1, 0, "Z JX JY"),
    (-1.0, 0, 1, "KZ X Y"), (1.0, 0, 1, "Z KX JY"),
)
_STACK = "X Y Z JX JY JZ KX KY KZ".split()


def _curvature_rows(terms):
    """The table with the swapped copies of its first twenty rows appended,
    as the columns (k, i, j, u, v, w), where u, v, w index ``_STACK``."""
    swap = str.maketrans("XY", "YX")
    rows = terms + tuple((-k, i, j, uvw.translate(swap))
                         for k, i, j, uvw in terms[:20])
    k, i, j, uvw = zip(*rows)
    u, v, w = np.array([[_STACK.index(s) for s in t.split()] for t in uvw]).T
    return np.array(k), np.array(i), np.array(j), u, v, w


_CURVATURE_ROWS = _curvature_rows(_CURVATURE_TERMS)


class MetricFamily:
    """One member of the metric sheaf on a doubled model.

    Instances are immutable by convention. The derived tensors of rank at
    most 3 (the connections, the Gram matrix and its inverse, calJ) are
    cached; the rank-4 ``curvature_tensor`` is recomputed on each read.
    """

    def __init__(self, model: DoubledModel, lam: float, mu: float):
        self.model = model
        self.lam, self.mu, self.d0 = check_point(lam, mu)

    # -- metric -------------------------------------------------------------

    @cached_property
    def sheaf_matrix(self) -> np.ndarray:
        """Gram matrix of <.,.> in the working basis: blocks
        [[(1+lam) E, mu E], [mu E, (1-lam) E]] with E = diag(eps)."""
        m = self.model
        return m.g0 + self.lam * m.g0 @ m.I + self.mu * m.g0 @ m.J

    @cached_property
    def sheaf_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.sheaf_matrix)

    def sheaf_inverse_blocks(self) -> np.ndarray:
        """Closed block form of the inverse Gram matrix."""
        e = np.diag(self.model.eps)
        return np.block([[(1 - self.lam) * e, -self.mu * e],
                         [-self.mu * e, (1 + self.lam) * e]]) / self.d0

    # -- compatible almost Hermitian operators -------------------------------

    @cached_property
    def calJ(self) -> np.ndarray:
        """calJ = (mu I - lam J + K) / sqrt(|1 - lam^2 - mu^2|).

        Squares to -id inside the unit disc (elliptic, d0 > 0) and to +id
        outside (hyperbolic); in both regimes it is an isometry of the sheaf
        metric.  Its partner -calJ has the negated derivative nabla(-calJ) =
        -nabla(calJ), so every class verdict holds for both.
        """
        m = self.model
        return (self.mu * m.I - self.lam * m.J + m.K) / math.sqrt(abs(self.d0))

    # -- connection -----------------------------------------------------------

    @property
    def _p(self) -> float:
        return (self.mu ** 2 + self.mu) / (2.0 * self.d0)

    @property
    def _q(self) -> float:
        return self.lam * self.mu / (2.0 * self.d0)

    @cached_property
    def nabla(self) -> np.ndarray:
        """Levi-Civita tensor N[a, b, l] in closed form:

        (1/2)[X,Y] + p([X,JY] - [JX,Y]) + q([KX,Y] - [X,KY]),
        p = (mu^2 + mu)/(2 d0), q = lam mu / (2 d0).
        """
        m = self.model
        t = partial(transport, m.c2)
        return (0.5 * t(None, None)
                + self._p * (t(None, m.J) - t(m.J, None))
                + self._q * (t(m.K, None) - t(None, m.K)))

    @cached_property
    def nabla_koszul(self) -> np.ndarray:
        """Independent route: solve 2<nabla_X Y, Z> = <[X,Y],Z> + <[Z,X],Y>
        - <[Y,Z],X> against the Gram matrix."""
        t = post(self.sheaf_matrix.T, self.model.c2)  # t[a, b, l] = <[a, b], l>
        rhs = t + t.transpose(1, 2, 0) - t.transpose(2, 0, 1)
        return 0.5 * post(self.sheaf_inverse, rhs)

    def levi_civita(self, X, Y) -> np.ndarray:
        d = self.model.dim2
        return apply(self.nabla, real_array(X, (d,), "X"), real_array(Y, (d,), "Y"))

    def levi_civita_koszul(self, X, Y) -> np.ndarray:
        d = self.model.dim2
        return apply(self.nabla_koszul, real_array(X, (d,), "X"),
                     real_array(Y, (d,), "Y"))

    # -- curvature ------------------------------------------------------------

    @property
    def curvature_tensor(self) -> np.ndarray:
        """Compositional R[a, b, c, l] from the connection tensor, computed
        on each read into a fresh d^4 array that no object keeps."""
        return compose_curvature(self.model.c2, self.nabla)

    def curvature(self, X, Y, Z) -> np.ndarray:
        """Compositional R(X, Y)Z from the connection tensor."""
        d = self.model.dim2
        X, Y, Z = (real_array(v, (d,), k) for k, v in zip("XYZ", (X, Y, Z)))
        return curvature_at(self.model.c2, self.nabla, X, Y, Z)

    def curvature_closed(self, X, Y, Z) -> np.ndarray:
        """Closed-form expansion of R(X, Y)Z in iterated brackets.

        Sums the rows k p^i q^j [u, [v, w]] of ``_CURVATURE_TERMS``, all
        brackets [v, w] by one :func:`~aqlab.tensors.apply_rows` and all
        outer ones by a second; an independent code path from
        :meth:`curvature`, which composes the connection tensor.
        """
        m = self.model
        d = m.dim2
        xyz = np.array([real_array(v, (d,), k) for k, v in zip("XYZ", (X, Y, Z))])
        vecs = np.concatenate([xyz, xyz @ m.J.T, xyz @ m.K.T])
        k, i, j, u, v, w = _CURVATURE_ROWS
        outer = apply_rows(m.c2, vecs[u], apply_rows(m.c2, vecs[v], vecs[w]))
        return (k * self._p ** i * self._q ** j) @ outer

    # -- Ricci ---------------------------------------------------------------

    def ricci_closed(self, X) -> np.ndarray:
        """Ricci operator through the four-coefficient closed form."""
        return self.ricci_matrix(closed=True) @ real_array(X, (self.model.dim2,), "X")

    def ricci_contracted(self, X) -> np.ndarray:
        """Ricci operator as the metric trace of the compositional curvature."""
        return self.ricci_matrix(closed=False) @ real_array(X, (self.model.dim2,), "X")

    def ricci_matrix(self, closed: bool = True) -> np.ndarray:
        """Matrix of the Ricci operator.

        Closed: (A C1 + B C2 + (C C1 + D C2) J) / d0 with C1, C2 the sums
        of eps_a ad(e_a)^2 over the basis of the first and second factor;
        the terms that vanish for product reasons are left to vanish
        numerically.  Otherwise the metric trace g^{ij} R(., e_i) e_j of
        the compositional curvature, contracted from the connection tensor
        without forming the curvature.
        """
        if not closed:
            return ricci(self.model.c2, self.nabla, self.sheaf_inverse)
        A, Bc, C, D = ricci_coefficients(self.lam, self.mu)
        C1, C2 = self.model.ricci_blocks
        return (A * C1 + Bc * C2 + (C * C1 + D * C2) @ self.model.J) / self.d0

    def einstein_check(self):
        """Return the Ricci constant when the closed Ricci matrix is eps * id;
        the model-side oracle of :func:`aqlab.family.einstein_constant`."""
        r = self.ricci_matrix()
        eps = float(np.trace(r)) / len(r)
        defect = np.abs(r - eps * np.eye(len(r))).max()
        return eps if _within(defect, max(1.0, abs(eps)), 1, EINSTEIN_TOL) else None

    # -- covariant derivatives of the structure operators ---------------------

    def nabla_endo(self, T: np.ndarray, X, Y) -> np.ndarray:
        """Definitional oracle nabla_X(T) Y = nabla_X(TY) - T nabla_X Y."""
        d = self.model.dim2
        T = real_array(T, (d, d), "T")
        X, Y = real_array(X, (d,), "X"), real_array(Y, (d,), "Y")
        return apply(self.nabla, X, T @ Y) - T @ apply(self.nabla, X, Y)

    def nabla_endo_closed(self, which: str, X, Y) -> np.ndarray:
        """Closed-form displays of nabla(I), nabla(J), nabla(K), nabla(calJ)."""
        m = self.model
        B = partial(apply, m.c2)
        X, Y = real_array(X, (m.dim2,), "X"), real_array(Y, (m.dim2,), "Y")
        lam, mu, d0 = self.lam, self.mu, self.d0
        cp, cq = 2 * self._p, 2 * self._q
        which = which.upper() if isinstance(which, str) and which != "calJ" else which
        if which == "I":
            return -cp * B(X, m.K @ Y) + cq * B(X, m.J @ Y)
        if which == "J":
            bxy = B(X, Y)
            return (0.5 * (B(X, m.J @ Y) - m.J @ bxy)
                    + 0.5 * cp * (bxy - m.J @ bxy - B(m.J @ X, Y) + B(X, m.J @ Y))
                    + 0.5 * cq * (-m.I @ bxy + m.K @ bxy - B(m.K @ X, Y)
                                  + B(X, m.K @ Y)))
        if which == "K":
            bxy = B(X, Y)
            return (0.5 * (B(X, m.K @ Y) - m.K @ bxy)
                    + 0.5 * cp * (-m.I @ bxy - m.K @ bxy - B(m.K @ X, Y)
                                  + B(X, m.K @ Y))
                    + 0.5 * cq * (bxy + m.J @ bxy - B(m.J @ X, Y) + B(X, m.J @ Y)))
        if which == "calJ":
            if self.d0 <= 0:
                raise Degenerate("closed nabla(calJ) is for the elliptic regime")
            bxy = B(X, Y)
            brace = (-lam * mu ** 2 * bxy
                     + (mu * lam ** 2 - mu ** 2 - mu) * (m.I @ bxy)
                     + (lam - lam ** 3 + 2 * lam * mu) * (m.J @ bxy)
                     + (lam ** 2 - lam ** 2 * mu - mu - 1) * (m.K @ bxy)
                     + (lam ** 3 + 2 * lam * mu ** 2 - lam) * B(X, m.J @ Y)
                     + lam * mu ** 2 * B(m.J @ X, Y)
                     + (1 + mu - 2 * mu ** 3 - 2 * mu ** 2 - mu * lam ** 2
                        - lam ** 2) * B(X, m.K @ Y)
                     + (lam ** 2 * mu - mu ** 2 - mu) * B(m.K @ X, Y))
            return brace / (2.0 * d0 * math.sqrt(d0))
        raise InvalidInput(f"unknown operator name {which!r}")

    # -- Hermitian class checks ------------------------------------------------

    def nabla_calJ_tensor(self) -> np.ndarray:
        """D[a, b, l] = (nabla_{e_a}(calJ) e_b)^l from the connection tensor."""
        calJ = self.calJ
        return transport(self.nabla, None, calJ) - post(calJ, self.nabla)

    def hermitian_class_checks(self) -> dict:
        """Membership booleans {nearly_kahler, quasi_kahler, g1}.

        Uses the definitional covariant derivative of the almost Hermitian
        operator; basis pairs suffice since each identity is bilinear (the
        nearly Kaehler one after polarization).  Each defect, of degree k =
        1, 3, 2 in calJ (|calJ| >= 1) and 1 in nabla, meets ``EINSTEIN_TOL``
        |nabla| |calJ|^k in sup norms, up to the degeneracy circle.
        """
        if self.d0 <= 0:
            raise Degenerate("class checks apply to the elliptic regime")
        calJ = self.calJ
        dt = self.nabla_calJ_tensor()
        top, tol = np.abs(calJ).max(), EINSTEIN_TOL * np.abs(self.nabla).max()
        nk = _within(np.abs(dt + dt.transpose(1, 0, 2)).max(), top, 1, tol)
        qk = _within(np.abs(transport(dt, calJ, calJ) + dt).max(), top, 3, tol)
        comp = transport(dt, None, calJ) + transport(dt, calJ)
        g1 = _within(np.abs(comp + comp.transpose(1, 0, 2)).max(), top, 2, tol)
        return {"nearly_kahler": nk, "quasi_kahler": qk, "g1": g1}

    def nearly_kahler_defect(self) -> float:
        """max |nabla_X(calJ) X| over basis vectors and their pair sums.

        On product models the pure basis vectors annihilate the quadratic
        form for block reasons, so the sweep includes e_i + e_j, which is
        equivalent to polarizing over basis pairs.  Both are read from the
        tensor D = nabla(calJ): D(e_i, e_i) = D[i, i] and D(e_i + e_j,
        e_i + e_j) = D[i, i] + D[j, j] + D[i, j] + D[j, i].
        """
        dt = self.nabla_calJ_tensor()
        q = np.diagonal(dt).T  # q[i] = D(e_i, e_i)
        pairs = q[:, None] + q[None, :] + dt + dt.transpose(1, 0, 2)
        i, j = np.triu_indices(len(q), 1)
        return float(max(np.abs(q).max(), np.abs(pairs[i, j]).max()))


# ---------------------------------------------------------------------------
# Closed-form classification in (lam, mu)
# ---------------------------------------------------------------------------

def _einstein_system(lam, mu):
    """The Einstein conditions without division, f = 4 d0 (C, D, A - B),
    zero exactly at the Einstein points and at (0, -1) on the circle, with
    its partial derivatives df/dlam and df/dmu."""
    pc, pd = _cd_cofactors(lam, mu)
    f = (mu * pc, -mu * pd, 2 * lam * (1.0 - lam ** 2 - 2 * mu ** 2))
    f_lam = (mu * (2 - 2 * lam + 3 * mu), -mu * (2 + 2 * lam + 3 * mu),
             2 - 6 * lam ** 2 - 4 * mu ** 2)
    f_mu = (pc + mu * (3 * lam - 4 * mu - 3),
            -pd - mu * (3 * lam + 4 * mu + 3), -8 * lam * mu)
    return np.array(f), np.array(f_lam), np.array(f_mu)


def einstein_residuals(lam, mu):
    """Vectorized Einstein defect: (off-diagonal size, diagonal anisotropy).

    The Ricci operator in block form is -(1/d0) [[A, C], [D, B]] applied
    blockwise, so the metric is Einstein iff C = D = 0 and A = B.  lam and
    mu are numbers or arrays whose shapes broadcast (else InvalidInput), at
    points off the degeneracy circle (else Degenerate).
    """
    lam, mu = real_array(lam, None, "lam"), real_array(mu, None, "mu")
    try:
        r = np.abs(_d0(lam, mu))
    except ValueError:  # numpy's refusal of shapes that do not broadcast
        raise InvalidInput(
            f"lam {lam.shape} and mu {mu.shape} do not broadcast") from None
    if not (r > DEGENERACY_TOL).all():
        raise Degenerate("a point (lam, mu) lies on the degeneracy circle")
    A, B, C, D = ricci_coefficients(lam, mu)
    return (np.abs(C) + np.abs(D)) / r, np.abs(A - B) / r


def classify_einstein(model: DoubledModel):
    """The exact solutions of C = D = 0, A = B with lam^2 + mu^2 != 1.

    The difference C - D factors as lam mu (3 mu + 2) / (2 d0), which splits
    the analysis into three branches: mu = 0 forces lam = 0; lam = 0 leaves
    the roots of 2 mu^2 + 3 mu + 1 of which mu = -1 is degenerate; and
    mu = -2/3 forces lam^2 = 1/9.  Each solution is verified on the model
    and returned with its Ricci constant.
    """
    return [(lam, mu, eps) for lam, mu in EINSTEIN_CANDIDATES
            if (eps := MetricFamily(model, lam, mu).einstein_check()) is not None]


def check_sweep_resolution(res: float) -> None:
    """Raise InvalidResolution unless ``res`` is a number by
    :func:`aqlab.scalars.is_number` of at least ``MIN_SWEEP_RES``."""
    if not (is_number(res) and res >= MIN_SWEEP_RES):
        raise InvalidResolution(
            f"sweep resolution must be finite and >= {MIN_SWEEP_RES:g}, "
            f"got {res!r}")


def einstein_sweep(res: float = 0.01):
    """Grid scan of the open disc by the closed coefficient formulas.

    Returns flat arrays (lam, mu, off, aniso) over the grid points with d0 >
    ``DEGENERACY_TOL`` (:func:`aqlab.family.check_point`'s rule), plus the
    list ``einstein_points`` of (lam, mu, eps): every grid point of defect
    at most 2 res takes ``SWEEP_STEPS`` Gauss-Newton steps on the system
    :func:`_einstein_system`, all at once, and a result with d0 >
    ``DEGENERACY_TOL`` that :func:`aqlab.family.einstein_constant` finds
    Einstein is kept with the eps it returns, once per point, from its start
    of least coarse defect (on the mu axis for (0, 0) and (0, -1/2), and the
    steps keep lam = 0 there exactly).  Base independent, hence no model
    argument.  ``res`` must pass :func:`check_sweep_resolution`.
    """
    check_sweep_resolution(res)
    k = int(np.floor(1.0 / res))
    ticks = res * np.arange(-k, k + 1)  # single products avoid drift at 0
    lam, mu = np.meshgrid(ticks, ticks, indexing="ij")
    inside = _d0(lam, mu) > DEGENERACY_TOL
    lam, mu = lam[inside], mu[inside]
    off, aniso = einstein_residuals(lam, mu)
    out = {"lam": lam, "mu": mu, "off": off, "aniso": aniso}
    defect = off + aniso
    start = np.flatnonzero(defect <= 2.0 * res)
    start = start[np.argsort(defect[start], kind="stable")]
    pl, pm = lam[start], mu[start]
    for _ in range(SWEEP_STEPS):  # least squares by the normal equations
        f, fl, fm = _einstein_system(pl, pm)
        n11, n12, n22 = (fl * fl).sum(0), (fl * fm).sum(0), (fm * fm).sum(0)
        r1, r2 = (fl * f).sum(0), (fm * f).sum(0)
        det = n11 * n22 - n12 * n12
        pl = pl - (n22 * r1 - n12 * r2) / det
        pm = pm - (n11 * r2 - n12 * r1) / det
    keep = _d0(pl, pm) > DEGENERACY_TOL  # (0, -1) is a root too
    pl, pm = pl[keep], pm[keep]
    points = []
    for rl, rm in zip(pl.tolist(), pm.tolist()):
        new = all(math.hypot(rl - l, rm - m) >= SWEEP_POINT_SEP for l, m, _ in points)
        if new and (eps := einstein_constant(rl, rm)) is not None:
            points.append((rl, rm, eps))
    out["einstein_points"] = sorted(points, key=lambda p: (-p[1], -p[0]))
    return out
