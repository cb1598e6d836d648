"""Canonical connections of parallelizable twistor-pair structures.

A model is a bracket algebra on R^m together with two anticommuting
operators I, J squaring to alpha id.  Such a pair admits exactly one
connection that makes I and J parallel and whose torsion satisfies
S(IX, Y) = S(X, IY); its global expression is the eight-term average

    nabla_X Y = (1/4) { [X,Y] - a [IX,IY] + a J[X,JY] - J[IX,KY]
                        - a I[IX,Y] + a I[X,IY] - K[X,KY] + K[IX,JY] },

with a = alpha and K = I J.  The same connection is the real part of a
four-term expression in the eigenspace projectors of I, evaluated on the
m^3 bracket over the extension by a square root of alpha; neither route
reads the other, and the test suite asserts they agree, which also
certifies uniqueness.

The torsion S equips the tangent space with an anticommutative product
X * Y = S(X, Y) (the adjoint algebra); the integrability predicates below
are all phrased through it.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from operator import attrgetter

import numpy as np

from .errors import (AqlabError, InvalidMu, InvalidModel, NonLieBracket,
                     NotEigenvalue, NotTwistor, WrongSignature)
from .scalars import _check_alpha, _within, is_number
from .tensors import (apply, apply_rows, curvature as compose_curvature,
                      curvature_at, curvature_slab, curvature_slabs, is_lie,
                      jacobi_defect, post, real_array, structure_tensor,
                      transport, twistor_sign)

PRED_TOL = 1e-10  #: predicate defects rel. to |c|, curvature to |c|^2
VALUE_TOL = 1e-12  #: absolute: |lam^2 - F^2| of an eigenvalue, |mu -+ 1| of a bad slope
TIE_TOL = 1e-12  #: defects within this fraction of the largest tie for the witness


class PiAQModel:
    """Bracket algebra with an anticommuting twistor pair.

    Args:
        dim: even dimension m of the underlying space.
        c: structure tensor, [e_i, e_j] = c[i, j, k] e_k (antisymmetric in
           i, j; the Jacobi identity is not required, but curvature-based
           predicates warn when it fails).
        I, J: m x m matrices with I^2 = J^2 = alpha id and IJ + JI = 0,
           read by :func:`aqlab.tensors.real_array` (a string, a bool, a
           complex, NaN or a 400-digit int is no entry).
        alpha: signature -1 or +1 (:func:`aqlab.scalars._check_alpha`).
    """

    def __init__(self, dim: int, c, I, J, alpha: int, name: str = ""):
        self.alpha = _check_alpha(alpha)
        self.dim, self.c, self._c_top = structure_tensor(dim, c)  # |c|
        self.name = name
        self.I = real_array(I, (self.dim,) * 2, "I", InvalidModel)
        self.J = real_array(J, (self.dim,) * 2, "J", InvalidModel)
        if twistor_sign(self.I, self.J) != self.alpha:
            raise InvalidModel("I, J fail the twistor-pair relations")
        self.K = self.I @ self.J

    def bracket(self, x, y) -> np.ndarray:
        d = self.dim
        return apply(self.c, real_array(x, (d,), "x"), real_array(y, (d,), "y"))

    @property
    def is_lie(self) -> bool:
        return is_lie(self.c, self._c_top)

    @cached_property
    def nabla(self) -> np.ndarray:
        """Connection tensor N[a, b, l] = (nabla_{e_a} e_b)^l, eight-term form."""
        a = float(self.alpha)
        I, J, K = self.I, self.J, self.K
        c = self.c
        cI = transport(c, I)  # the one transport in the first slot
        # the eight terms grouped by the operator in the value slot
        total = (c - a * transport(cI, None, I)
                 + post(J, a * transport(c, None, J) - transport(cI, None, K))
                 + a * post(I, transport(c, None, I) - cI)
                 + post(K, transport(cI, None, J) - transport(c, None, K)))
        return 0.25 * total

    @cached_property
    def nabla_split(self) -> np.ndarray:
        """The same tensor through the eigenspace projectors V, H = 1 - V
        of I (:func:`_projector`), J^3 = alpha J:

            V{[HX, VY] + J^3 [VX, J VY]} + H{[VX, HY] + J^3 [HX, J HY]}

        on the m^3 bracket over R + iR, i^2 = alpha, read off as its real
        part.  For alpha = +1, i -> -1 swaps V and H and leaves the sum as
        it is, so i = 1 serves and every product is real.
        """
        J, V = self.J, _projector(self, 1 if self.alpha == 1 else 1j)
        H, aJ = np.eye(self.dim) - V, self.alpha * J
        cV, cH = transport(self.c, V), transport(self.c, H)
        n = (post(V, transport(cH, None, V) + post(aJ, transport(cV, None, J @ V)))
             + post(H, transport(cV, None, H) + post(aJ, transport(cH, None, J @ H))))
        return n.real

    @cached_property
    def torsion_tensor(self) -> np.ndarray:
        """S[a, b, l] = nabla_a b - nabla_b a - [a, b]."""
        n = self.nabla
        return n - n.transpose(1, 0, 2) - self.c

    @cached_property
    def semiholonomic_defect(self) -> np.ndarray:
        """:func:`_semiholonomic_defect`, kept like the d^3 torsion."""
        return _semiholonomic_defect(self)

    @property
    def curvature_tensor(self) -> np.ndarray:
        """R[a, b, c, l] of R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
        - nabla_{[X, Y]} Z, computed on each read into a fresh d^4 array
        that no object keeps."""
        return compose_curvature(self.c, self.nabla)


def canonical_connection(M: PiAQModel, X, Y) -> np.ndarray:
    """nabla_X Y by the eight-term expansion."""
    return apply(M.nabla, real_array(X, (M.dim,), "X"), real_array(Y, (M.dim,), "Y"))


def canonical_connection_split(M: PiAQModel, X, Y) -> np.ndarray:
    """nabla_X Y through the eigenspace projectors of I (``M.nabla_split``)."""
    d = M.dim
    return apply(M.nabla_split, real_array(X, (d,), "X"), real_array(Y, (d,), "Y"))


def curvature(M: PiAQModel, X, Y, Z) -> np.ndarray:
    """R(X, Y)Z of the canonical connection; warns on non-Lie brackets."""
    X, Y, Z = (real_array(v, (M.dim,), k) for k, v in zip("XYZ", (X, Y, Z)))
    if not M.is_lie:
        warnings.warn(f"bracket fails the Jacobi identity by {jacobi_defect(M.c):.3e}; "
                      "curvature has no integrability meaning", NonLieBracket,
                      stacklevel=2)
    return curvature_at(M.c, M.nabla, X, Y, Z)


def nijenhuis(M: PiAQModel, F, X, Y) -> np.ndarray:
    """Nijenhuis tensor s[X,Y] + [FX,FY] - F[FX,Y] - F[X,FY], s = scalar of F^2."""
    d = M.dim
    F = real_array(F, (d, d), "F", NotTwistor)
    s = twistor_sign(F)
    if s is None:
        raise NotTwistor("operator does not square to a +/- identity multiple")
    X, Y = real_array(X, (d,), "X"), real_array(Y, (d,), "Y")
    FX, FY = F @ X, F @ Y
    # the brackets [X, Y], [FX, FY], [FX, Y], [X, FY], row by row
    b = apply_rows(M.c, np.array([X, FX, FX, X]), np.array([Y, FY, Y, FY]))
    Fb = b[2:] @ F.T
    return s * b[0] + b[1] - Fb[0] - Fb[1]


# Each torsion-type predicate is one ``_<name>_defect`` returning its
# nonnegative defect tensor on X * Y = S(X, Y), linear in c like the
# torsion; :func:`predicate_report` alone compares its sup norm with
# ``PRED_TOL`` |c|, finds the witness and answers every verdict.

def _semiholonomic_defect(M: PiAQModel) -> np.ndarray:
    """I(X*Y) = I(X)*Y = X*I(Y), equivalent to N_I = 0, on basis pairs."""
    S = M.torsion_tensor
    lhs = post(M.I, S)
    return np.maximum(np.abs(lhs - transport(S, M.I)),
                      np.abs(lhs - transport(S, None, M.I)))


def _three_web_defect(M: PiAQModel) -> np.ndarray:
    """Split-signature web criterion.

    The adjoint product must be linear over the first involution
    (I(X*Y) = IX*Y = X*IY) while the second acts as an involutory
    automorphism (J(X*Y) = JX*JY); the three pairwise complementary
    involutive distributions are then the two eigenspaces of I and the
    diagonal one of J.
    """
    if M.alpha != 1:
        raise WrongSignature("webs live in the split signature alpha = +1")
    S = M.torsion_tensor
    # failure of the second involution acting as an automorphism of *
    web = np.abs(post(M.J, S) - transport(S, M.J, M.J))
    return np.maximum(M.semiholonomic_defect, web)


def _integrable_report(M: PiAQModel) -> dict:
    """Torsion and curvature of the canonical connection vanish: torsion
    against ``PRED_TOL`` |c|, then the curvature, quadratic in c, against
    ``PRED_TOL`` |c|^2, streamed slab by slab; only the slab maxima are
    kept, and the witness recomputes the first slab that reaches the tie
    threshold, so the rank-4 tensor is never stored."""
    ds = np.abs(M.torsion_tensor)
    top_s = float(ds.max())
    slabs = [(a0, a0 + len(R), float(np.abs(R).max()))
             for a0, R in curvature_slabs(M.c, M.nabla)]
    top_r = float(np.max([t for _, _, t in slabs]))  # propagates NaN
    torsion_top = top_s >= top_r  # false for a NaN curvature, which then shows
    out = {"verdict": (_within(top_s, M._c_top, 1, PRED_TOL)
                       and _within(top_r, M._c_top, 2, PRED_TOL)),
           "residual": top_s if torsion_top else top_r}
    if out["verdict"]:
        return out
    if torsion_top:
        out["witness"] = _witness(ds)
        return out
    a0, a1 = next(((a0, a1) for a0, a1, t in slabs
                   if t >= (1.0 - TIE_TOL) * top_r), slabs[0][:2])
    first, *rest = _witness(np.abs(curvature_slab(M.c, M.nabla, a0, a1)), top_r)
    out["witness"] = [a0 + first, *rest]
    return out


_EIGEN_NAMES = {"1": 1.0, "+1": 1.0, "-1": -1.0,
                "i": 1j, "+i": 1j, "-i": -1j}


def _parse_eigenvalue(lam) -> complex:
    """lam as a complex: a literal, a number (is_number) or a complex."""
    if isinstance(lam, str):
        key = lam.strip().lower()
        if key not in _EIGEN_NAMES:
            raise NotEigenvalue(f"unrecognized eigenvalue literal {lam!r}")
        return complex(_EIGEN_NAMES[key])
    if is_number(lam) or isinstance(lam, (complex, np.complexfloating)):
        return complex(lam)
    raise NotEigenvalue(f"eigenvalue must be a number, got {lam!r}")


def _involutive_defect(M: PiAQModel, F_name: str, lam) -> np.ndarray:
    """Involutivity test for the eigendistribution of I, J or K.

    For the principal operator I the distribution is involutive exactly when
    it is an ideal of the adjoint algebra: the complementary projection of
    S(pi+ X, Y) must vanish for all Y.  For J or K (non-principal, on a
    semiholonomic model) the criterion is the identity FX * FY = lam F(X * Y);
    with an imaginary eigenvalue the real and imaginary parts are tested
    separately, which is what evaluation over the scalar extension amounts to.
    """
    if F_name is None or lam is None:
        raise NotEigenvalue("involutivity needs --operator and --eigenvalue")
    if not (isinstance(F_name, str) and F_name.upper() in ("I", "J", "K")):
        raise NotEigenvalue("operator must be one of I, J, K")
    F_name = F_name.upper()
    F = {"I": M.I, "J": M.J, "K": M.K}[F_name]
    lamc = _parse_eigenvalue(lam)
    fsq = -1.0 if F_name == "K" else float(M.alpha)
    if not abs(lamc * lamc - fsq) <= VALUE_TOL:  # NaN fails too
        raise NotEigenvalue(
            f"{lam!r} is not an eigenvalue of {F_name} (square must be {fsq:g})"
        )
    S = M.torsion_tensor
    if F_name == "I":
        P = _projector(M, lamc)
        return np.abs(post(np.eye(M.dim) - P, transport(S, P)))
    return np.abs(transport(S, F, F) - lamc * post(F, S))


def _projector(M: PiAQModel, lam: complex) -> np.ndarray:
    """(1 + alpha lam I)/2, the projector onto the lam-eigenspace of I over
    the scalar extension (lam^2 = alpha, so I^3 = alpha I)."""
    return 0.5 * (np.eye(M.dim) + (M.alpha * lam) * M.I)


def _isoclinic_geodesic_defect(M: PiAQModel, mu: float) -> np.ndarray:
    """Constant-slope isoclinic-geodesic test J(X*Y) = mu (JX * JY).

    Checked for X, Y spanning a principal eigendistribution of I on a
    semiholonomic model.  For constant slope the obstruction one-form of the
    non-constant theory vanishes identically, so this identity alone decides
    the property.
    """
    if not is_number(mu):
        raise InvalidMu("isoclinic_geodesic needs the slope (--mu), a finite "
                        f"real number, got {mu!r}")
    mu = float(mu)
    if abs(mu - 1.0) <= VALUE_TOL or abs(mu + 1.0) <= VALUE_TOL:
        raise InvalidMu("slope must differ from +1 and -1")
    if not predicate_report(M, "semiholonomic")["verdict"]:
        raise InvalidModel("model is not semiholonomic")
    pi_plus = _projector(M, 1 if M.alpha == 1 else 1j)
    S = M.torsion_tensor
    lhs = post(M.J, transport(S, pi_plus, pi_plus))
    jp = M.J @ pi_plus
    return np.abs(lhs - mu * transport(S, jp, jp))


# ---------------------------------------------------------------------------
# Predicate reports with witnesses
# ---------------------------------------------------------------------------

_DEFECTS = {"semiholonomic": attrgetter("semiholonomic_defect"),
            "three_web": _three_web_defect,
            "involutive": _involutive_defect,
            "isoclinic_geodesic": _isoclinic_geodesic_defect}

PREDICATES = ("integrable", *_DEFECTS)
# the keywords a predicate reads, by their CLI flags, in argument order
_READS = {"involutive": ("operator", "eigenvalue"), "isoclinic_geodesic": ("mu",)}


def _witness(defect: np.ndarray, top=None):
    """Basis index tuple of the first entry within a relative ``TIE_TOL`` of
    the largest defect (value slot dropped), so rounding cannot pick among
    ties; ``top`` is that largest defect when ``defect`` is a slab of it."""
    ties = defect >= (1.0 - TIE_TOL) * (defect.max() if top is None else top)
    idx = np.unravel_index(int(np.argmax(ties)), defect.shape)
    return [int(t) for t in idx[:-1]]


def predicate_report(M: PiAQModel, name: str, lam=None, f_name=None, mu=None) -> dict:
    """Decide the predicate ``name`` of :data:`PREDICATES` on M, the one
    public way to ask a verdict: ``involutive`` takes the operator ``f_name``
    (I, J or K) and its eigenvalue ``lam``, ``isoclinic_geodesic`` the slope
    ``mu`` (:func:`aqlab.scalars.is_number`, else InvalidMu); a keyword the
    predicate does not read is an AqlabError.

    Returns a dict with ``verdict``, ``residual`` (sup norm of the defect
    tensor) and, when the verdict is false, ``witness`` holding 0-based
    basis indices of the worst-failing pair (triple for curvature).
    """
    if name not in PREDICATES:
        raise InvalidModel(f"unknown predicate {name!r}")
    given = {"operator": f_name, "eigenvalue": lam, "mu": mu}
    reads = _READS.get(name, ())
    stray = [f"--{k}" for k, v in given.items() if v is not None and k not in reads]
    if stray:
        raise AqlabError(f"--predicate {name} takes no {' or '.join(stray)}")
    if name == "integrable":
        return _integrable_report(M)
    defect = _DEFECTS[name](M, *(given[k] for k in reads))
    residual = float(defect.max())
    out = {"verdict": _within(residual, M._c_top, 1, PRED_TOL),
           "residual": residual}
    if not out["verdict"]:
        out["witness"] = _witness(defect)
    return out
