"""Two-parameter metric family on a doubled Lie group and its curvature.

On the doubled model m + m of a Lie algebra with inner product the block
metric g0 = diag(eps, eps) combines with the involutions I and J into the
family

    <X, Y> = g0(X, Y) + lam g0(X, IY) + mu g0(X, JY),

nondegenerate exactly off the circle lam^2 + mu^2 = 1.  Everything
downstream is closed-form in (lam, mu): the torsion-free metric connection,
its curvature, the Ricci operator with its four scalar coefficients, the
compatible almost Hermitian operators (mu I - lam J + K)/sqrt(1 - lam^2 -
mu^2), and the resulting classifications.  With the trace form as base
inner product the family contains exactly four Einstein points,

    (0, 0), (0, -1/2), (1/3, -2/3), (-1/3, -2/3)

with Ricci constants 1/4, 5/18, 3/8, 3/8, and exactly one nearly Kaehler
(equivalently quasi Kaehler) structure at (0, -1/2), while the whole open
disc consists of G1 structures.

Each computed quantity has two independent evaluation routes (closed form
against a compositional or contraction oracle); the test suite pins their
agreement.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import Degenerate, InvalidModel, InvalidResolution, NotSemisimple
from .liealg import DoubledModel, is_semisimple
from .tensors import apply, curvature as compose_curvature, post, transport

DEGENERACY_TOL = 1e-12  #: absolute: metric degenerate when |1 - lam^2 - mu^2| <= this
EINSTEIN_TOL = 1e-9  #: Ricci rel. to max(1, |eps|); Hermitian classes to (1 + |c|)/d0
DISC_MARGIN = 1e-9  #: absolute: sweeps keep lam^2 + mu^2 < 1 - DISC_MARGIN
# Finest sweep resolution: the scan grid has (2 / res + 1)^2 points, about
# 4e6 here (3.1e6 of them inside the disc).
MIN_SWEEP_RES = 1e-3


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


def _closed_ricci_error(model: DoubledModel):
    """Why the closed-form Ricci does not apply to ``model``, or None: it
    needs the trace form as base inner product and a semisimple base."""
    if not model.killing_base:
        return InvalidModel("closed-form Ricci requires the trace form as "
                            "base inner product")
    if not is_semisimple(model.base):
        return NotSemisimple("closed-form Ricci requires a semisimple base")
    return None


class HermitianStructure(NamedTuple):
    calJ: np.ndarray
    sign: int
    elliptic: bool  # True inside the disc (calJ^2 = -id), False outside (+id)


class MetricFamily:
    """One member of the metric sheaf on a doubled model.

    Instances are immutable by convention; all derived tensors are cached.
    """

    def __init__(self, model: DoubledModel, lam: float, mu: float):
        self.model = model
        self.lam = float(lam)
        self.mu = float(mu)
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise Degenerate(f"lam and mu must be finite, got {lam!r}, {mu!r}")
        self.d0 = 1.0 - self.lam ** 2 - self.mu ** 2
        if abs(self.d0) <= DEGENERACY_TOL:
            raise Degenerate(
                f"lam^2 + mu^2 = {self.lam ** 2 + self.mu ** 2!r} lies on the "
                "degeneracy circle"
            )

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
        blocks = np.block([[(1 - self.lam) * e, -self.mu * e],
                           [-self.mu * e, (1 + self.lam) * e]])
        return blocks / self.d0

    def sheaf_metric(self, X, Y) -> float:
        return float(np.asarray(X, float) @ self.sheaf_matrix @ np.asarray(Y, float))

    # -- compatible almost Hermitian operators -------------------------------

    def hermitian_structure(self, sign: int = 1) -> HermitianStructure:
        """sign * (mu I - lam J + K) / sqrt(|1 - lam^2 - mu^2|).

        Squares to -id inside the unit disc (elliptic) and to +id outside
        (hyperbolic); in both regimes it is an isometry of the sheaf metric.
        """
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        m = self.model
        num = self.mu * m.I - self.lam * m.J + m.K
        return HermitianStructure(sign * num / math.sqrt(abs(self.d0)),
                                  sign, self.d0 > 0)

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
        c2 = self.model.c2
        gs = self.sheaf_matrix
        rhs = (np.einsum("abk,kl->abl", c2, gs)
               + np.einsum("lak,kb->abl", c2, gs)
               - np.einsum("blk,ka->abl", c2, gs))
        return 0.5 * np.einsum("lm,abm->abl", self.sheaf_inverse, rhs)

    def levi_civita(self, X, Y) -> np.ndarray:
        return apply(self.nabla, X, Y)

    def levi_civita_koszul(self, X, Y) -> np.ndarray:
        return apply(self.nabla_koszul, X, Y)

    # -- curvature ------------------------------------------------------------

    @cached_property
    def curvature_tensor(self) -> np.ndarray:
        """Compositional R[a, b, c, l] from the connection tensor."""
        return compose_curvature(self.model.c2, self.nabla)

    def curvature(self, X, Y, Z) -> np.ndarray:
        return apply(self.curvature_tensor, X, Y, Z)

    def curvature_closed(self, X, Y, Z) -> np.ndarray:
        """Closed-form expansion of R(X, Y)Z in iterated brackets.

        Sums the rows k p^i q^j [u, [v, w]] of ``_CURVATURE_TERMS``, all
        inner brackets in one stacked product and all outer ones in a
        second; an independent code path from :meth:`curvature`, which
        composes the connection tensor.
        """
        m = self.model
        d = m.dim2
        xyz = np.array([X, Y, Z], float)
        vecs = np.concatenate([xyz, xyz @ m.J.T, xyz @ m.K.T])
        c = m.c2.reshape(d, d * d)
        k, i, j, u, v, w = _CURVATURE_ROWS
        inner = vecs[w, None] @ (vecs[v] @ c).reshape(-1, d, d)
        outer = inner @ (vecs[u] @ c).reshape(-1, d, d)
        return (k * self._p ** i * self._q ** j) @ outer[:, 0]

    # -- Ricci ---------------------------------------------------------------

    def ricci_coefficients(self) -> tuple[float, float, float, float]:
        """The four scalars (A, B, C, D) of the contracted curvature.

        In a trace-form orthonormal working basis the Ricci operator is

            r(X) = (1/d0) sum_a eps_a { A [[X, e_a], e_a] + B [[X, Je_a], Je_a]
                    + C [[JX, e_a], e_a] + D [[JX, Je_a], Je_a] }.
        """
        return ricci_coefficients(self.lam, self.mu)

    def ricci_closed(self, X) -> np.ndarray:
        """Ricci operator through the four-coefficient closed form."""
        return self.ricci_matrix(closed=True) @ np.asarray(X, float)

    def ricci_contracted(self, X) -> np.ndarray:
        """Ricci operator as the metric trace of the compositional curvature."""
        return self.ricci_matrix(closed=False) @ np.asarray(X, float)

    def ricci(self, X) -> np.ndarray:
        closed = _closed_ricci_error(self.model) is None
        return self.ricci_matrix(closed=closed) @ np.asarray(X, float)

    def ricci_matrix(self, closed: bool = True) -> np.ndarray:
        """Matrix of the Ricci operator.

        Closed: (A C1 + B C2 + (C C1 + D C2) J) / d0 with C1, C2 the sums
        of eps_a ad(e_a)^2 over the basis of the first and second factor;
        the terms that vanish for product reasons are left to vanish
        numerically.  Otherwise the metric trace g^{ij} R(., e_i) e_j of
        the compositional curvature.
        """
        if not closed:
            return np.einsum("ij,aijl->la", self.sheaf_inverse,
                             self.curvature_tensor)
        if err := _closed_ricci_error(self.model):
            raise err
        m = self.model
        A, Bc, C, D = self.ricci_coefficients()
        ads = m.c2.transpose(0, 2, 1)  # ads[a] is the matrix of ad(e_a)
        C1, C2 = np.tensordot(np.kron(np.eye(2), m.eps), ads @ ads, 1)
        return (A * C1 + Bc * C2 + (C * C1 + D * C2) @ m.J) / self.d0

    def einstein_check(self):
        """Return the Ricci constant when r = eps * id over a basis sweep."""
        r = self.ricci_matrix(closed=_closed_ricci_error(self.model) is None)
        dim = self.model.dim2
        eps = float(np.trace(r)) / dim
        if np.abs(r - eps * np.eye(dim)).max() <= EINSTEIN_TOL * max(1.0, abs(eps)):
            return eps
        return None

    # -- covariant derivatives of the structure operators ---------------------

    def nabla_endo(self, T: np.ndarray, X, Y) -> np.ndarray:
        """Definitional oracle nabla_X(T) Y = nabla_X(TY) - T nabla_X Y."""
        T = np.asarray(T, float)
        return self.levi_civita(X, T @ Y) - T @ self.levi_civita(X, Y)

    def nabla_endo_closed(self, which: str, X, Y, sign: int = 1) -> np.ndarray:
        """Closed-form displays of nabla(I), nabla(J), nabla(K), nabla(calJ)."""
        m = self.model
        B = m.bracket2
        lam, mu, d0 = self.lam, self.mu, self.d0
        cp = (mu ** 2 + mu) / d0
        cq = lam * mu / d0
        which = which.upper() if which != "calJ" else "calJ"
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
            return sign * brace / (2.0 * d0 * math.sqrt(d0))
        raise ValueError(f"unknown operator name {which!r}")

    # -- Hermitian class checks ------------------------------------------------

    def nabla_calJ_tensor(self, sign: int = 1) -> np.ndarray:
        """D[a, b, l] = (nabla_{e_a}(calJ) e_b)^l from the connection tensor."""
        calJ = self.hermitian_structure(sign).calJ
        return transport(self.nabla, None, calJ) - post(calJ, self.nabla)

    def hermitian_class_checks(self, sign: int = 1) -> dict:
        """Membership booleans {nearly_kahler, quasi_kahler, g1}.

        Uses the definitional covariant derivative of the almost Hermitian
        operator; basis pairs suffice since each identity is bilinear (the
        nearly Kaehler one after polarization).
        """
        if self.d0 <= 0:
            raise Degenerate("class checks apply to the elliptic regime")
        calJ = self.hermitian_structure(sign).calJ
        dt = self.nabla_calJ_tensor(sign)
        scale = EINSTEIN_TOL * (1.0 + np.abs(self.model.c2).max()) / abs(self.d0)
        nk = np.abs(dt + dt.transpose(1, 0, 2)).max() <= scale
        qk = np.abs(transport(dt, calJ, calJ) + dt).max() <= scale
        comp = transport(dt, None, calJ) + transport(dt, calJ)
        g1 = np.abs(comp + comp.transpose(1, 0, 2)).max() <= scale
        return {"nearly_kahler": bool(nk), "quasi_kahler": bool(qk),
                "g1": bool(g1)}

    def nearly_kahler_defect(self, sign: int = 1) -> float:
        """max |nabla_X(calJ) X| over basis vectors and their pair sums.

        On product models the pure basis vectors annihilate the quadratic
        form for block reasons, so the sweep includes e_i + e_j, which is
        equivalent to polarizing over basis pairs.  Both are read from the
        tensor D = nabla(calJ): D(e_i, e_i) = D[i, i] and D(e_i + e_j,
        e_i + e_j) = D[i, i] + D[j, j] + D[i, j] + D[j, i].
        """
        dt = self.nabla_calJ_tensor(sign)
        q = np.diagonal(dt).T  # q[i] = D(e_i, e_i)
        pairs = q[:, None] + q[None, :] + dt + dt.transpose(1, 0, 2)
        i, j = np.triu_indices(len(q), 1)
        return float(max(np.abs(q).max(), np.abs(pairs[i, j]).max()))


# ---------------------------------------------------------------------------
# Closed-form classification in (lam, mu)
# ---------------------------------------------------------------------------

def ricci_coefficients(lam: float, mu: float):
    """Scalars (A, B, C, D) of the contracted curvature; base independent."""
    d0 = 1.0 - lam ** 2 - mu ** 2
    A = -(1.0 - lam) / 4.0 + mu ** 2 * (mu - lam + 1.0) / (4.0 * d0)
    B = -(1.0 + lam) / 4.0 + mu ** 2 * (mu + lam + 1.0) / (4.0 * d0)
    C = mu * (-2 * mu ** 2 - lam ** 2 + 3 * lam * mu - 3 * mu + 2 * lam - 1.0) / (4.0 * d0)
    D = -mu * (2 * mu ** 2 + lam ** 2 + 3 * lam * mu + 3 * mu + 2 * lam + 1.0) / (4.0 * d0)
    return A, B, C, D


def einstein_residuals(lam, mu):
    """Vectorized Einstein defect: (off-diagonal size, diagonal anisotropy).

    The Ricci operator in block form is -(1/d0) [[A, C], [D, B]] applied
    blockwise, so the metric is Einstein iff C = D = 0 and A = B.
    """
    lam = np.asarray(lam, float)
    mu = np.asarray(mu, float)
    A, B, C, D = ricci_coefficients(lam, mu)
    d0 = 1.0 - lam ** 2 - mu ** 2
    off = (np.abs(C) + np.abs(D)) / np.abs(d0)
    aniso = np.abs(A - B) / np.abs(d0)
    return off, aniso


def classify_einstein(model: DoubledModel):
    """The exact solutions of C = D = 0, A = B with lam^2 + mu^2 != 1.

    The difference C - D factors as lam mu (3 mu + 2) / (2 d0), which splits
    the analysis into three branches: mu = 0 forces lam = 0; lam = 0 leaves
    the roots of 2 mu^2 + 3 mu + 1 of which mu = -1 is degenerate; and
    mu = -2/3 forces lam^2 = 1/9.  Each solution is verified on the model
    and returned with its Ricci constant.
    """
    if err := _closed_ricci_error(model):
        raise err
    candidates = [(0.0, 0.0)]
    # lam = 0 branch: roots of 2 mu^2 + 3 mu + 1 = 0
    for mu in sorted(np.roots([2.0, 3.0, 1.0]).real, reverse=True):
        if abs(mu ** 2 - 1.0) > DEGENERACY_TOL:
            candidates.append((0.0, float(mu)))
    # mu = -2/3 branch: lam^2 = 1/9
    for lam in (1.0 / 3.0, -1.0 / 3.0):
        candidates.append((lam, -2.0 / 3.0))
    out = []
    for lam, mu in candidates:
        fam = MetricFamily(model, lam, mu)
        eps = fam.einstein_check()
        if eps is not None:
            out.append((lam, mu, eps))
    return out


def _refine_minimum(lam: float, mu: float, half: float):
    """Iteratively shrink a local grid around a defect minimum."""
    while half > 1e-9:
        ls = lam + np.linspace(-half, half, 21)
        ms = mu + np.linspace(-half, half, 21)
        gl, gm = np.meshgrid(ls, ms, indexing="ij")
        off, aniso = einstein_residuals(gl, gm)
        defect = np.where(gl ** 2 + gm ** 2 < 1.0 - DISC_MARGIN,
                          off + aniso, np.inf)
        i, j = np.unravel_index(int(np.argmin(defect)), defect.shape)
        lam, mu = float(gl[i, j]), float(gm[i, j])
        half /= 10.0
    # refinement stops at 1e-9 windows, so smaller magnitudes are noise
    lam = 0.0 if abs(lam) < 1e-12 else lam
    mu = 0.0 if abs(mu) < 1e-12 else mu
    return lam, mu


def einstein_sweep(res: float = 0.01, refine: bool = True):
    """Grid scan of the open disc by the closed coefficient formulas.

    Returns flat arrays (lam, mu, off, aniso) over all grid points with
    lam^2 + mu^2 < 1 - DISC_MARGIN, plus, when ``refine`` is set, the list
    ``einstein_points`` of (lam, mu, ricci constant) found by shrinking
    local grids around every coarse near-minimum until the Einstein defect
    clears 1e-8 relative to the Ricci scale.  Base independent, hence no
    model argument.  ``res`` must be finite and at least ``MIN_SWEEP_RES``.
    """
    if not (math.isfinite(res) and res >= MIN_SWEEP_RES):
        raise InvalidResolution(
            f"sweep resolution must be finite and >= {MIN_SWEEP_RES:g}, "
            f"got {res!r}")
    k = int(np.floor((1.0 - 1e-12) / res))
    ticks = res * np.arange(-k, k + 1)  # single products avoid drift at 0
    lam, mu = np.meshgrid(ticks, ticks, indexing="ij")
    inside = lam ** 2 + mu ** 2 < 1.0 - DISC_MARGIN
    lam, mu = lam[inside], mu[inside]
    off, aniso = einstein_residuals(lam, mu)
    out = {"lam": lam, "mu": mu, "off": off, "aniso": aniso}
    if not refine:
        return out
    defect = off + aniso
    centers = []
    for idx in np.argsort(defect):
        if defect[idx] > max(2.0 * res, 1e-5):
            break
        l, m = float(lam[idx]), float(mu[idx])
        if any(np.hypot(l - cl, m - cm) < 3.0 * res for cl, cm in centers):
            continue
        centers.append((l, m))
    points = []
    for l, m in centers:
        rl, rm = _refine_minimum(l, m, res)
        o, a = einstein_residuals(rl, rm)
        d0 = 1.0 - rl ** 2 - rm ** 2
        eps = -ricci_coefficients(rl, rm)[0] / d0
        if float(o + a) >= 1e-8 * (1.0 + abs(eps)):
            continue
        if any(np.hypot(rl - pl, rm - pm) < 1e-6 for pl, pm, _ in points):
            continue  # two coarse centers can share one basin
        points.append((rl, rm, float(eps)))
    out["einstein_points"] = sorted(points, key=lambda p: (-p[1], -p[0]))
    return out
