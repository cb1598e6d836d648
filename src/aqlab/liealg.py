"""Structure-constant Lie algebras, trace forms, and the doubled model.

Models are plain structure-constant tensors c[i, j, k] with
[e_i, e_j] = sum_k c[i, j, k] e_k, validated for antisymmetry and the
Jacobi identity by :mod:`aqlab.tensors`.  The trace form used throughout is

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

from functools import cached_property

import numpy as np

from .errors import InvalidModel, NotSemisimple
from .scalars import _within, is_integral, is_number
from .tensors import (apply, is_lie, jacobi_defect, post, real_array,
                      structure_tensor, transport)

SEMISIMPLE_TOL = 1e-9  #: degenerate form: least |eigenvalue| <= this * |c|^2
MAX_DIM = 32  #: largest bracket_tensor dim, checked before anything is allocated
_FIELDS = ("i", "j", "k", "value")  #: a bracket record's keys, when it is a dict


class LieAlgebraModel:
    """Lie algebra given by its structure constants.

    ``c[i, j, k]`` is the e_k coefficient of [e_i, e_j].  Instances are
    immutable by convention.
    """

    def __init__(self, dim: int, c: np.ndarray, name: str = ""):
        self.dim, self.c, self._c_top = structure_tensor(dim, c)  # |c|
        self.name = name
        if not is_lie(self.c, self._c_top):
            raise InvalidModel(
                f"Jacobi identity fails by {jacobi_defect(self.c):.3e}")

    def bracket(self, x, y) -> np.ndarray:
        d = self.dim
        return apply(self.c, real_array(x, (d,), "x"), real_array(y, (d,), "y"))

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(x): y -> [x, y]."""
        return apply(self.c, real_array(x, (self.dim,), "x")).T


def bracket_tensor(dim: int, entries) -> np.ndarray:
    """Structure tensor of sparse bracket records, unchecked for Jacobi.

    ``entries`` is a list or tuple of records.  A record, a list or tuple
    (i, j, k, value) or a dict with those keys, puts value * e_k in
    [e_i, e_j]: i, j, k are 1-based integers (an integral float counts; a
    bool or a string does not) and value a finite number, nonzero only for
    i != j.  The antisymmetric counterpart is filled in and omitted entries
    are zero.  ``dim`` must be an integer from 1 to ``MAX_DIM``, checked
    before anything is allocated.
    """
    if not (is_integral(dim) and 1 <= dim <= MAX_DIM):
        raise InvalidModel(f"dim must be an integer from 1 to {MAX_DIM}, "
                           f"got {dim!r}")
    if not isinstance(entries, (list, tuple)):
        raise InvalidModel(f"bracket records must be a list, got {entries!r}")
    dim = int(dim)
    c = np.zeros((dim, dim, dim))
    for rec in entries:
        vals = tuple(map(rec.get, _FIELDS)) if isinstance(rec, dict) else rec
        if not isinstance(vals, (list, tuple)) or len(vals) != 4 or None in vals:
            raise InvalidModel(f"bracket record {rec!r} is not [i, j, k, value]")
        i, j, k, v = vals
        if not (all(is_integral(n) and 1 <= n <= dim for n in (i, j, k))
                and is_number(v) and (i != j or v == 0)):
            raise InvalidModel(
                f"bracket record {rec!r} out of range: i, j, k are integers "
                f"from 1 to {dim}, the value a finite number, nonzero only "
                "for i != j")
        i, j, k = int(i) - 1, int(j) - 1, int(k) - 1
        c[i, j, k] += v
        c[j, i, k] -= v
    return c


def from_brackets(dim: int, entries, name: str = "") -> LieAlgebraModel:
    """The Lie algebra of :func:`bracket_tensor`'s records."""
    return LieAlgebraModel(dim, bracket_tensor(dim, entries), name=name)


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
    """K[i, j] = -tr(ad e_i o ad e_j) = -c[i, a, b] c[j, b, a]; symmetric,
    nondegenerate iff semisimple."""
    c, d = A.c, A.dim
    return -(c.reshape(d, d * d) @ c.transpose(2, 1, 0).reshape(d * d, d))


def is_semisimple(A: LieAlgebraModel, w=None) -> bool:
    """The semisimplicity decision on the eigenvalues w of A's trace form
    (computed when w is None), which is quadratic in c: the least |w| must
    exceed its degree-2 bound (false on NaN)."""
    w = np.linalg.eigvalsh(killing_form(A)) if w is None else w
    least = np.abs(w).min()
    return not (np.isnan(least) or _within(least, A._c_top, 2, SEMISIMPLE_TOL))


def require_semisimple(A: LieAlgebraModel, w=None) -> None:
    """Raise NotSemisimple naming A unless :func:`is_semisimple` passes."""
    if not is_semisimple(A, w):
        raise NotSemisimple(f"{A.name or 'algebra'}: trace form is degenerate")


def lemma2_check(A: LieAlgebraModel, X) -> np.ndarray:
    """The contraction g^{ij} [[X, e_i], e_j] with the trace-form metric.

    Equals -X on every semisimple algebra, independently of the basis.
    """
    X = real_array(X, (A.dim,), "X")
    K = killing_form(A)
    require_semisimple(A, np.linalg.eigvalsh(K))
    xe = apply(A.c, X)  # xe[i] = [X, e_i]
    return (xe.T @ np.linalg.inv(K)).ravel() @ A.c.reshape(A.dim ** 2, A.dim)


def pseudo_orthonormalize(A: LieAlgebraModel):
    """Basis in which the trace form becomes diag(+/-1).

    Returns ``(model, eps, basis)`` where ``basis`` columns express the new
    basis in the old one, ``eps`` holds the signs, and ``model`` carries the
    transformed structure constants.  Raises :class:`NotSemisimple` when the
    trace form is degenerate.
    """
    w, qmat = np.linalg.eigh(killing_form(A))
    require_semisimple(A, w)
    eps = np.sign(w)
    root = np.sqrt(np.abs(w))
    basis = qmat / root
    c_new = post(qmat.T * root[:, None], transport(A.c, basis, basis))
    return LieAlgebraModel(A.dim, c_new, A.name), eps, basis


# ---------------------------------------------------------------------------
# Doubled model
# ---------------------------------------------------------------------------

class DoubledModel:
    """The space m + m with componentwise bracket and its three involutions.

    The base must be semisimple.  The working basis is pseudo-orthonormal
    for its trace form, so the base metric of the doubled space is the
    block matrix diag(eps, eps).  Instances are immutable by convention.
    """

    def __init__(self, base: LieAlgebraModel):
        self.base = base
        self.obase, self.eps, self.basis = pseudo_orthonormalize(base)
        self.n = n = base.dim
        self.dim2 = 2 * n
        self.c2 = c2 = np.zeros((2 * n, 2 * n, 2 * n))
        c2[:n, :n, :n] = c2[n:, n:, n:] = self.obase.c
        # I = diag(1, -1), J swaps the factors, K = IJ and g0 = diag(eps, eps),
        # each written entry by entry
        e, f = np.arange(n), np.arange(n, 2 * n)
        self.I = np.eye(2 * n)
        self.I[n:, n:] *= -1.0
        self.J = np.zeros((2 * n, 2 * n))
        self.J[e, f] = self.J[f, e] = 1.0
        self.K = np.zeros((2 * n, 2 * n))
        self.K[e, f], self.K[f, e] = 1.0, -1.0
        self.g0 = np.zeros((2 * n, 2 * n))
        self.g0[e, e] = self.g0[f, f] = self.eps

    @cached_property
    def ricci_blocks(self) -> tuple:
        """(C1, C2): the sums of eps_a ad(e_a)^2 over the basis of the first
        and of the second factor, the two blocks of the closed Ricci
        operator of :meth:`aqlab.gxg.MetricFamily.ricci_matrix`."""
        d = self.dim2
        ads = self.c2.transpose(0, 2, 1)  # ads[a] is the matrix of ad(e_a)
        w = np.zeros((2, d))  # eps on each factor's half of the basis
        w[0, :self.n] = w[1, self.n:] = self.eps
        return tuple(np.dot(w, (ads @ ads).reshape(d, d * d)).reshape(2, d, d))

    @property
    def name(self) -> str:
        return f"({self.base.name or 'g'}) x ({self.base.name or 'g'})"

    def bracket2(self, X, Y) -> np.ndarray:
        """Componentwise bracket; mixed-factor arguments commute."""
        d = self.dim2
        return apply(self.c2, real_array(X, (d,), "X"), real_array(Y, (d,), "Y"))

    def as_piaq(self):
        """View as a parallelizable twistor-pair model (alpha = +1)."""
        from .piaq import PiAQModel
        return PiAQModel(self.dim2, self.c2, self.I, self.J, alpha=1,
                         name=self.name)


def doubled(A: LieAlgebraModel) -> DoubledModel:
    """Construct the doubled model of a semisimple Lie algebra, with the
    trace form as base metric; :class:`NotSemisimple` otherwise."""
    return DoubledModel(A)
