"""Structure-constant Lie algebras, trace forms, and the doubled model.

Models are plain structure-constant tensors c[i, j, k] with
[e_i, e_j] = sum_k c[i, j, k] e_k, validated for antisymmetry and the
Jacobi identity.  The trace form used throughout is

    K(X, Y) = -tr(ad X o ad Y),

which is positive definite on the compact catalog algebra su(2) and makes
the contraction identity g^{ij} [[X, e_i], e_j] = -X come out with the
minus sign on every semisimple algebra.

The doubled model m + m carries the componentwise bracket together with the
involutions I(x, y) = (x, -y), J(x, y) = (y, x) and K = I o J; this is the
split-signature structure of a product group and the base space for the
metric family of :mod:`aqlab.gxg`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInner, InvalidModel, NotSemisimple
from .tensors import apply, jacobiator, post, transport

JACOBI_TOL = 1e-10  #: antisymmetry rel. to max(1, |c|), Jacobiator to its square
SEMISIMPLE_TOL = 1e-9  #: degenerate form: least singular value <= this * max(1, top)
SYMMETRY_TOL = 1e-10  #: inner product asymmetry, rel. to max(1, its largest entry)
KILLING_BASE_TOL = 1e-10  #: inner is K when every entry gap <= this * max(1, |K|)
MAX_DIM = 32  #: largest bracket_tensor dim: a doubled curvature is then <= 64^4 floats


@dataclass(frozen=True)
class LieAlgebraModel:
    """Lie algebra given by its structure constants.

    ``c[i, j, k]`` is the e_k coefficient of [e_i, e_j].
    """

    dim: int
    c: np.ndarray
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise InvalidModel(f"structure tensor must be {self.dim}^3")
        object.__setattr__(self, "c", c)
        scale = max(1.0, np.abs(c).max())
        if np.abs(c + c.transpose(1, 0, 2)).max() > JACOBI_TOL * scale:
            raise InvalidModel("structure constants are not antisymmetric")
        jac = jacobiator(c)
        if np.abs(jac).max() > JACOBI_TOL * scale * scale:
            raise InvalidModel(
                f"Jacobi identity fails by {np.abs(jac).max():.3e}"
            )

    def bracket(self, x, y) -> np.ndarray:
        return apply(self.c, x, y)

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(x): y -> [x, y]."""
        return apply(self.c, x).T


def bracket_tensor(dim: int, entries) -> np.ndarray:
    """Structure tensor of sparse bracket records, unchecked for Jacobi.

    ``entries`` is an iterable of (i, j, k, value) with 1-based indices
    meaning [e_i, e_j] contains value * e_k, a finite float; the
    antisymmetric counterpart is filled in and omitted entries are zero.
    ``dim`` must be an integer (an integral float counts) from 1 to
    ``MAX_DIM``; it is checked before anything is allocated.
    """
    if (isinstance(dim, bool) or not isinstance(dim, (int, float))
            or not 1 <= dim <= MAX_DIM or dim != int(dim)):
        raise InvalidModel(f"dim must be an integer from 1 to {MAX_DIM}, "
                           f"got {dim!r}")
    dim = int(dim)
    c = np.zeros((dim, dim, dim))
    for rec in entries:
        i, j, k, v = rec
        i, j, k, v = int(i) - 1, int(j) - 1, int(k) - 1, float(v)
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim and np.isfinite(v)):
            raise InvalidModel(f"bracket record {rec!r} out of range")
        c[i, j, k] += v
        c[j, i, k] -= v
    return c


def from_brackets(dim: int, entries, name: str = "") -> LieAlgebraModel:
    """The Lie algebra of :func:`bracket_tensor`'s records."""
    c = bracket_tensor(dim, entries)
    return LieAlgebraModel(len(c), c, name=name)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def su2() -> LieAlgebraModel:
    """[e1, e2] = e3 and cyclic."""
    return from_brackets(3, [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (3, 1, 2, 1.0)],
                         name="su2")


def sl2r() -> LieAlgebraModel:
    """Standard basis (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H."""
    return from_brackets(3, [(1, 2, 2, 2.0), (1, 3, 3, -2.0), (2, 3, 1, 1.0)],
                         name="sl2r")


def so4() -> LieAlgebraModel:
    """Direct sum of two copies of su(2)."""
    return direct_sum(su2(), su2(), name="so4")


def direct_sum(A: LieAlgebraModel, B: LieAlgebraModel,
               name: str = "") -> LieAlgebraModel:
    n, m = A.dim, B.dim
    c = np.zeros((n + m, n + m, n + m))
    c[:n, :n, :n] = A.c
    c[n:, n:, n:] = B.c
    return LieAlgebraModel(n + m, c, name=name or f"{A.name}+{B.name}")


CATALOG = {"su2": su2, "sl2r": sl2r, "so4": so4}


# ---------------------------------------------------------------------------
# Trace form and the contraction identity
# ---------------------------------------------------------------------------

def killing_form(A: LieAlgebraModel) -> np.ndarray:
    """K[i, j] = -tr(ad e_i o ad e_j); symmetric, nondegenerate iff semisimple."""
    return -np.einsum("iab,jba->ij", A.c, A.c)


def is_semisimple(A: LieAlgebraModel) -> bool:
    k = killing_form(A)
    s = np.linalg.svd(k, compute_uv=False)
    return bool(s[-1] > SEMISIMPLE_TOL * max(1.0, s[0]))


def lemma2_check(A: LieAlgebraModel, X) -> np.ndarray:
    """The contraction g^{ij} [[X, e_i], e_j] with the trace-form metric.

    Equals -X on every semisimple algebra, independently of the basis.
    """
    if not is_semisimple(A):
        raise NotSemisimple(f"{A.name or 'algebra'}: trace form is degenerate")
    kinv = np.linalg.inv(killing_form(A))
    inner = apply(A.c, X)  # inner[i] = [X, e_i]
    return np.tensordot(inner.T @ kinv, A.c, 2)


def pseudo_orthonormalize(A: LieAlgebraModel, inner: np.ndarray | None = None):
    """Basis in which a symmetric inner product becomes diag(+/-1).

    Returns ``(model, eps, basis)`` where ``basis`` columns express the new
    basis in the old one, ``eps`` holds the signs, and ``model`` carries the
    transformed structure constants.  Defaults to the trace form.
    """
    if inner is None:
        inner = killing_form(A)
    inner = np.asarray(inner, dtype=float)
    if np.abs(inner - inner.T).max() > SYMMETRY_TOL * max(1.0, np.abs(inner).max()):
        raise DegenerateInner("inner product must be symmetric")
    w, qmat = np.linalg.eigh(inner)
    if np.abs(w).min() <= SEMISIMPLE_TOL * max(1.0, np.abs(w).max()):
        raise DegenerateInner("inner product is degenerate")
    eps = np.sign(w)
    basis = qmat / np.sqrt(np.abs(w))
    binv = np.linalg.inv(basis)
    c_new = post(binv, transport(A.c, basis, basis))
    model = LieAlgebraModel(A.dim, c_new, name=A.name)
    return model, eps, basis


# ---------------------------------------------------------------------------
# Doubled model
# ---------------------------------------------------------------------------

class DoubledModel:
    """The space m + m with componentwise bracket and its three involutions.

    The working basis is pseudo-orthonormal for the supplied inner product
    (trace form by default), so the base metric of the doubled space is the
    block matrix diag(eps, eps).  Instances are immutable by convention.
    """

    def __init__(self, base: LieAlgebraModel, inner: np.ndarray | None = None):
        self.base = base
        kf = killing_form(base)
        self.obase, self.eps, self.basis = pseudo_orthonormalize(
            base, kf if inner is None else inner)
        self.killing_base = inner is None or bool(np.allclose(
            np.asarray(inner, float), kf, rtol=0.0,
            atol=KILLING_BASE_TOL * max(1.0, np.abs(kf).max())))
        n = base.dim
        self.n = n
        self.dim2 = 2 * n
        c2 = np.zeros((2 * n, 2 * n, 2 * n))
        c2[:n, :n, :n] = self.obase.c
        c2[n:, n:, n:] = self.obase.c
        self.c2 = c2
        eye = np.eye(n)
        zero = np.zeros((n, n))
        self.I = np.block([[eye, zero], [zero, -eye]])
        self.J = np.block([[zero, eye], [eye, zero]])
        self.K = self.I @ self.J
        self.g0 = np.diag(np.concatenate([self.eps, self.eps]))

    @property
    def name(self) -> str:
        return f"({self.base.name or 'g'}) x ({self.base.name or 'g'})"

    def bracket2(self, X, Y) -> np.ndarray:
        """Componentwise bracket; mixed-factor arguments commute."""
        return apply(self.c2, X, Y)

    def as_piaq(self):
        """View as a parallelizable twistor-pair model (alpha = +1)."""
        from .piaq import PiAQModel
        return PiAQModel(self.dim2, self.c2, self.I, self.J, alpha=1,
                         name=self.name)


def doubled(A: LieAlgebraModel, inner: np.ndarray | None = None) -> DoubledModel:
    """Construct the doubled model of a Lie algebra.

    ``inner`` is a symmetric nondegenerate matrix on the base (defaults to
    the trace form).
    """
    return DoubledModel(A, inner)
