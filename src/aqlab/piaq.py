"""Canonical connections of parallelizable twistor-pair structures.

A model is a bracket algebra on R^m together with two anticommuting
operators I, J squaring to alpha id.  Such a pair admits exactly one
connection that makes I and J parallel and whose torsion satisfies
S(IX, Y) = S(X, IY); its global expression is the eight-term average

    nabla_X Y = (1/4) { [X,Y] - a [IX,IY] + a J[X,JY] - J[IX,KY]
                        - a I[IX,Y] + a I[X,IY] - K[X,KY] + K[IX,JY] },

with a = alpha and K = I J.  The same connection can be evaluated through
the eigenspace projectors of I over the extension by a square root of
alpha; both code paths are implemented and the test suite asserts they
agree, which also certifies uniqueness.

The torsion S equips the tangent space with an anticommutative product
X * Y = S(X, Y) (the adjoint algebra); the integrability predicates below
are all phrased through it.
"""

from __future__ import annotations

import warnings
from functools import cached_property, partial

import numpy as np

from .errors import (
    InvalidMu,
    InvalidModel,
    NonLieBracket,
    NotEigenvalue,
    NotTwistor,
    WrongSignature,
)
from .tensors import (apply, curvature as compose_curvature, jacobiator,
                      post, transport)

STRUCT_TOL = 1e-9  #: antisymmetry rel. to max(1, |c|); I, J, F squares to max(1, |F|)^2
PRED_TOL = 1e-10  #: predicate defects rel. to (1 + |c|)^2, curvature to (1 + |c|)^4
LIE_TOL = 1e-9  #: bracket is Lie when its Jacobiator <= this * max(1, |c|)^2
VALUE_TOL = 1e-12  #: absolute: |lam^2 - F^2| of an eigenvalue, |mu -+ 1| of a bad slope
TIE_TOL = 1e-12  #: defects within this fraction of the largest tie for the witness


class PiAQModel:
    """Bracket algebra with an anticommuting twistor pair.

    Args:
        dim: even dimension m of the underlying space.
        c: structure tensor, [e_i, e_j] = c[i, j, k] e_k (antisymmetric in
           i, j; the Jacobi identity is not required, but curvature-based
           predicates warn when it fails).
        I, J: m x m matrices with I^2 = J^2 = alpha id and IJ + JI = 0.
        alpha: signature, -1 or +1.
    """

    def __init__(self, dim: int, c, I, J, alpha: int, name: str = ""):
        if alpha not in (-1, 1):
            raise InvalidModel(f"alpha must be -1 or +1, got {alpha!r}")
        self.dim = int(dim)
        self.alpha = int(alpha)
        self.name = name
        self.c = np.asarray(c, dtype=float)
        self.I = np.asarray(I, dtype=float)
        self.J = np.asarray(J, dtype=float)
        m = self.dim
        if self.c.shape != (m, m, m) or self.I.shape != (m, m) or self.J.shape != (m, m):
            raise InvalidModel("shape mismatch between dim, c, I, J")
        cscale = max(1.0, np.abs(self.c).max())
        if np.abs(self.c + self.c.transpose(1, 0, 2)).max() > STRUCT_TOL * cscale:
            raise InvalidModel("bracket is not antisymmetric")
        ident = np.eye(m)
        oscale = max(1.0, np.abs(self.I).max(), np.abs(self.J).max()) ** 2
        if (np.abs(self.I @ self.I - alpha * ident).max() > STRUCT_TOL * oscale
                or np.abs(self.J @ self.J - alpha * ident).max() > STRUCT_TOL * oscale
                or np.abs(self.I @ self.J + self.J @ self.I).max() > STRUCT_TOL * oscale):
            raise InvalidModel("I, J fail the twistor-pair relations")
        self.K = self.I @ self.J

    def bracket(self, x, y) -> np.ndarray:
        return apply(self.c, x, y)

    @cached_property
    def jacobi_defect(self) -> float:
        return float(np.abs(jacobiator(self.c)).max())

    @property
    def is_lie(self) -> bool:
        return self.jacobi_defect <= LIE_TOL * max(1.0, np.abs(self.c).max()) ** 2

    @cached_property
    def nabla(self) -> np.ndarray:
        """Connection tensor N[a, b, l] = (nabla_{e_a} e_b)^l, eight-term form."""
        a = float(self.alpha)
        I, J, K = self.I, self.J, self.K
        t = partial(transport, self.c)
        total = (
            t(None, None)
            - a * t(I, I)
            + a * post(J, t(None, J))
            - post(J, t(I, K))
            - a * post(I, t(I, None))
            + a * post(I, t(None, I))
            - post(K, t(None, K))
            + post(K, t(I, J))
        )
        return 0.25 * total

    @cached_property
    def nabla_split(self) -> np.ndarray:
        """The same tensor through the eigenspace projectors V, H of I:

            V{[HX, VY] + J^3 [VX, J VY]} + H{[VX, HY] + J^3 [HX, J HY]}

        over the scalar extension R + iR, i^2 = alpha, realified as pairs
        (u, v) = u + iv on R^2m; X, Y and the value are the real block.
        """
        a, m = float(self.alpha), self.dim
        ring = np.array([[[1.0, 0.0], [0.0, 1.0]],  # ring[p, q]: e_p e_q in
                         [[0.0, 1.0], [a, 0.0]]])   # the basis (1, i)
        c = np.kron(ring, self.c)
        J = np.kron(np.eye(2), self.J)
        V = 0.5 * (np.eye(2 * m) + np.kron([[0.0, a], [1.0, 0.0]], a * self.I))
        H = np.eye(2 * m) - V
        n = (post(V, transport(c, H, V) + post(a * J, transport(c, V, J @ V)))
             + post(H, transport(c, V, H) + post(a * J, transport(c, H, J @ H))))
        return n[:m, :m, :m]

    @cached_property
    def torsion_tensor(self) -> np.ndarray:
        """S[a, b, l] = nabla_a b - nabla_b a - [a, b]."""
        n = self.nabla
        return n - n.transpose(1, 0, 2) - self.c

    @cached_property
    def curvature_tensor(self) -> np.ndarray:
        """R[a, b, c, l] of R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
        - nabla_{[X, Y]} Z."""
        return compose_curvature(self.c, self.nabla)


def canonical_connection(M: PiAQModel, X, Y) -> np.ndarray:
    """nabla_X Y by the eight-term expansion."""
    return apply(M.nabla, X, Y)


def canonical_connection_split(M: PiAQModel, X, Y) -> np.ndarray:
    """nabla_X Y through the eigenspace projectors of I (``M.nabla_split``)."""
    return apply(M.nabla_split, X, Y)


def torsion(M: PiAQModel, X, Y) -> np.ndarray:
    """Torsion S(X, Y), which is also the adjoint-algebra product X * Y."""
    return apply(M.torsion_tensor, X, Y)


def curvature(M: PiAQModel, X, Y, Z) -> np.ndarray:
    """R(X, Y)Z of the canonical connection; warns on non-Lie brackets."""
    if not M.is_lie:
        warnings.warn(
            f"bracket fails the Jacobi identity by {M.jacobi_defect:.3e}; "
            "curvature has no integrability meaning",
            NonLieBracket,
            stacklevel=2,
        )
    return apply(M.curvature_tensor, X, Y, Z)


def nijenhuis(M: PiAQModel, F, X, Y) -> np.ndarray:
    """Nijenhuis tensor s[X,Y] + [FX,FY] - F[FX,Y] - F[X,FY], s = scalar of F^2."""
    F = np.asarray(F, dtype=float)
    s = _square_scalar(F)
    FX, FY = F @ np.asarray(X, float), F @ np.asarray(Y, float)
    return (s * M.bracket(X, Y) + M.bracket(FX, FY)
            - F @ M.bracket(FX, Y) - F @ M.bracket(X, FY))


def _square_scalar(F: np.ndarray) -> float:
    m = F.shape[0]
    sq = F @ F
    s = float(np.trace(sq) / m)
    s = 1.0 if s > 0 else -1.0
    if np.abs(sq - s * np.eye(m)).max() > STRUCT_TOL * max(1.0, np.abs(F).max() ** 2):
        raise NotTwistor("operator does not square to a +/- identity multiple")
    return s


def _scale(M: PiAQModel) -> float:
    return (1.0 + np.abs(M.c).max()) ** 2


# Each predicate is decided by one ``_decide_*`` function returning the
# verdict together with the nonnegative defect tensor it was decided on;
# the ``is_*`` functions and :func:`predicate_report` both read that pair,
# so no defect is computed twice.

def _within(M: PiAQModel, defect: np.ndarray):
    return bool(defect.max() <= PRED_TOL * _scale(M)), defect


def _semiholonomic_defect(M: PiAQModel) -> np.ndarray:
    """Pointwise failure of I(X*Y) = I(X)*Y = X*I(Y) on basis pairs."""
    S = M.torsion_tensor
    lhs = post(M.I, S)
    return np.maximum(np.abs(lhs - transport(S, M.I)),
                      np.abs(lhs - transport(S, None, M.I)))


def _decide_three_web(M: PiAQModel):
    if M.alpha != 1:
        raise WrongSignature("webs live in the split signature alpha = +1")
    S = M.torsion_tensor
    # failure of the second involution acting as an automorphism of *
    web = np.abs(post(M.J, S) - transport(S, M.J, M.J))
    return _within(M, np.maximum(_semiholonomic_defect(M), web))


def _decide_integrable(M: PiAQModel):
    s = PRED_TOL * _scale(M)
    ds, dr = np.abs(M.torsion_tensor), np.abs(M.curvature_tensor)
    verdict = bool(ds.max() <= s and dr.max() <= s * _scale(M))
    return verdict, (ds if ds.max() >= dr.max() else dr)


def is_integrable(M: PiAQModel) -> bool:
    """True when both torsion and curvature of the canonical connection vanish."""
    return _decide_integrable(M)[0]


def _decide_semiholonomic(M: PiAQModel):
    return _within(M, _semiholonomic_defect(M))


def is_semiholonomic(M: PiAQModel) -> bool:
    """I(X*Y) = I(X)*Y = X*I(Y) over a basis sweep; equivalent to N_I = 0."""
    return _decide_semiholonomic(M)[0]


_EIGEN_NAMES = {"1": 1.0, "+1": 1.0, "-1": -1.0,
                "i": 1j, "+i": 1j, "-i": -1j}


def _parse_eigenvalue(lam) -> complex:
    if isinstance(lam, str):
        key = lam.strip().lower()
        if key not in _EIGEN_NAMES:
            raise NotEigenvalue(f"unrecognized eigenvalue literal {lam!r}")
        return complex(_EIGEN_NAMES[key])
    return complex(lam)


def fundamental_involutive(M: PiAQModel, F_name: str, lam) -> bool:
    """Involutivity test for the eigendistribution of I, J or K.

    For the principal operator I the distribution is involutive exactly when
    it is an ideal of the adjoint algebra: the complementary projection of
    S(pi+ X, Y) must vanish for all Y.  For J or K (non-principal, on a
    semiholonomic model) the criterion is the identity FX * FY = lam F(X * Y);
    with an imaginary eigenvalue the real and imaginary parts are tested
    separately, which is what evaluation over the scalar extension amounts to.
    """
    return _decide_involutive(M, F_name, lam)[0]


def _decide_involutive(M: PiAQModel, F_name: str, lam):
    if F_name is None or lam is None:
        raise NotEigenvalue("involutivity needs --operator and --eigenvalue")
    F_name = F_name.upper()
    if F_name not in ("I", "J", "K"):
        raise NotEigenvalue("operator must be one of I, J, K")
    F = {"I": M.I, "J": M.J, "K": M.K}[F_name]
    lamc = _parse_eigenvalue(lam)
    fsq = -1.0 if F_name == "K" else float(M.alpha)
    if abs(lamc * lamc - fsq) > VALUE_TOL:
        raise NotEigenvalue(
            f"{lam!r} is not an eigenvalue of {F_name} (square must be {fsq:g})"
        )
    S = M.torsion_tensor
    if F_name == "I":
        ident = np.eye(M.dim, dtype=complex)
        f3 = fsq * F  # F^3 = (F^2 scalar) F
        pi_plus = 0.5 * (ident + lamc * f3)
        pi_minus = ident - pi_plus
        defect = np.abs(post(pi_minus, transport(S, pi_plus)))
    else:
        defect = np.abs(transport(S, F, F) - lamc * post(F, S))
    return _within(M, defect)


def _decide_isoclinic(M: PiAQModel, mu: float):
    if mu is None or abs(mu - 1.0) <= VALUE_TOL or abs(mu + 1.0) <= VALUE_TOL:
        raise InvalidMu("slope must differ from +1 and -1")
    if not _decide_semiholonomic(M)[0]:
        raise InvalidModel("model is not semiholonomic")
    ident = np.eye(M.dim, dtype=complex)
    if M.alpha == 1:
        pi_plus = 0.5 * (ident + M.I)
    else:
        pi_plus = 0.5 * (ident - 1j * M.I)  # projector for eigenvalue +i
    S = M.torsion_tensor
    lhs = post(M.J, transport(S, pi_plus, pi_plus))
    jp = M.J @ pi_plus
    return _within(M, np.abs(lhs - mu * transport(S, jp, jp)))


def is_isoclinic_geodesic_const_mu(M: PiAQModel, mu: float) -> bool:
    """Constant-slope isoclinic-geodesic test J(X*Y) = mu (JX * JY).

    Checked for X, Y spanning a principal eigendistribution of I.  For
    constant slope the obstruction one-form of the non-constant theory
    vanishes identically, so this identity alone decides the property.
    """
    return _decide_isoclinic(M, mu)[0]


def is_three_web(M: PiAQModel) -> bool:
    """Split-signature web criterion.

    The adjoint product must be linear over the first involution
    (I(X*Y) = IX*Y = X*IY) while the second acts as an involutory
    automorphism (J(X*Y) = JX*JY); the three pairwise complementary
    involutive distributions are then the two eigenspaces of I and the
    diagonal one of J.
    """
    return _decide_three_web(M)[0]


def abelian_model(dim: int, I, J, alpha: int, name: str = "abelian") -> PiAQModel:
    """Zero-bracket model; always integrable."""
    return PiAQModel(dim, np.zeros((dim, dim, dim)), I, J, alpha, name=name)


# ---------------------------------------------------------------------------
# Predicate reports with witnesses
# ---------------------------------------------------------------------------

_DECIDE = {"integrable": _decide_integrable,
           "semiholonomic": _decide_semiholonomic,
           "three_web": _decide_three_web,
           "involutive": _decide_involutive,
           "isoclinic_geodesic": _decide_isoclinic}

PREDICATES = tuple(_DECIDE)


def _witness(defect: np.ndarray):
    """Basis index tuple of the first entry within a relative ``TIE_TOL`` of
    the largest defect (value slot dropped), so rounding cannot pick among ties."""
    top = defect >= (1.0 - TIE_TOL) * defect.max()
    idx = np.unravel_index(int(np.argmax(top)), defect.shape)
    return [int(t) for t in idx[:-1]]


def predicate_report(M: PiAQModel, name: str, lam=None, f_name=None, mu=None) -> dict:
    """Verdict plus a failing basis pair for the CLI surface.

    Returns a dict with ``verdict``, ``residual`` (sup norm of the defect
    tensor) and, when the verdict is false, ``witness`` holding 0-based
    basis indices of the worst-failing pair (triple for curvature).
    """
    if name not in _DECIDE:
        raise InvalidModel(f"unknown predicate {name!r}")
    args = {"involutive": (f_name, lam), "isoclinic_geodesic": (mu,)}
    verdict, defect = _DECIDE[name](M, *args.get(name, ()))
    out = {"verdict": verdict, "residual": float(defect.max())}
    if not verdict:
        out["witness"] = _witness(defect)
    return out
