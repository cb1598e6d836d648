"""Contractions of structure tensors shared by liealg, piaq and gxg.

A structure tensor t[a, b, k] holds the e_k coefficient of a bilinear
product of e_a and e_b (a bracket, a torsion, a connection).  Every basis
change, operator transport, composition and evaluation on vectors (by
:func:`apply`, or row by row by :func:`apply_rows`) goes through the
kernels below, each a chain of two-operand matrix products on reshaped
arrays, so that BLAS does the work; no module calls einsum or tensordot.

The rank-4 quantities (curvature, Jacobiator) are computed in slabs over
their first index of at most ``SLAB_FLOATS`` floats each, so their working
memory is O(d^3); only :func:`curvature` returns the whole rank-4 tensor.

The two relations every model rests on are decided here and nowhere else:
a bracket is antisymmetric (:func:`is_antisymmetric`) and Lie
(:func:`is_lie`), and a twistor pair squares to alpha id and anticommutes,
with alpha read from the operators (:func:`twistor_sign`).  Each fails on
NaN, and each bound goes through the package's one homogeneous rule,
:func:`aqlab.scalars._within`.  Every model takes its dimension and
structure tensor through :func:`structure_tensor`, and every caller's array
through the one array rule, :func:`real_array`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, InvalidModel
from .scalars import _within, is_integral, is_number

SLAB_FLOATS = 32768  #: floats per rank-4 slab (256 KiB), but at least one first index
JACOBI_TOL = 1e-10  #: antisymmetry rel. to |c|, Jacobiator to |c|^2
STRUCT_TOL = 1e-9  #: twistor relations rel. to max |F||G| over the operator pairs


def transport(t: np.ndarray, P=None, Q=None) -> np.ndarray:
    """Tensor of t(P e_a, Q e_b); ``None`` stands for the identity."""
    if P is not None:
        t = (P.T @ t.reshape(len(t), -1)).reshape(t.shape)
    if Q is not None:
        t = Q.T @ t
    return t


def post(F, t: np.ndarray) -> np.ndarray:
    """Apply the matrix F to the value slot: F t(e_a, e_b)."""
    return (t.reshape(-1, t.shape[-1]) @ F.T).reshape(t.shape)


def apply(t: np.ndarray, *vectors) -> np.ndarray:
    """t(v1, v2, ...): the leading slots contracted, one matvec per vector."""
    shape = t.shape[len(vectors):]
    for v in vectors:
        t = np.dot(v, t.reshape(len(v), -1))
    return t.reshape(shape)


def apply_rows(t: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row k is t(U[k], V[k]), by two stacked products, one per slot."""
    tu = (U @ t.reshape(len(t), -1)).reshape(len(U), *t.shape[1:])
    return (V[:, None] @ tu)[:, 0]


def _slabs(d: int):
    """(a0, a1) bounds of the first-index slabs of a d^4 tensor."""
    step = max(1, SLAB_FLOATS // d ** 3)
    return [(a0, min(d, a0 + step)) for a0 in range(0, d, step)]


def jacobi_defect(c: np.ndarray) -> float:
    """Sup norm of the Jacobiator [[x,y],z] + cyclic (zero for Lie brackets),
    reduced slab by slab over x; NaN when the Jacobiator holds one."""
    d = len(c)
    cf, cc = c.reshape(d, d * d), c.reshape(d * d, d)
    top = 0.0
    for a0, a1 in _slabs(d):
        s = a1 - a0
        x = c[:, a0:a1]
        # t[x, j, k] = [[x, j], k] + [[j, k], x] + [[k, x], j], term by term
        t = (c[a0:a1].reshape(s * d, d) @ cf).reshape(s, d, d, d)
        t += (cc @ x.reshape(d, s * d)).reshape(d, d, s, d).transpose(2, 0, 1, 3)
        t += (x.reshape(d * s, d) @ cf).reshape(d, s, d, d).transpose(1, 2, 0, 3)
        top = np.maximum(top, np.abs(t).max())  # propagates NaN
    return float(top)


def real_array(x, shape: tuple | None, name: str, error=InvalidInput) -> np.ndarray:
    """x as a C-contiguous float64 array of ``shape`` (None: any shape) with
    finite entries, else ``error`` naming x ``name``.  A real-dtype ndarray
    is read by its dtype (a C-contiguous float64 one is returned as it is),
    anything else entry by entry through :func:`aqlab.scalars.is_number`."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iuf":
        # a reduction of its own, not a BLAS call, which threads large arrays
        a, ok = x, np.logical_and.reduce(np.isfinite(x), axis=None)
    else:
        try:  # a ragged x holds lists, no numbers, or does not broadcast
            a = np.asarray(x, dtype=object)
            ok = all(map(is_number, a.flat))
        except ValueError:
            ok = False
    if not ok:
        form = {1: "a vector", 2: "rows"}.get(len(shape or ()), "an array")
        raise error(f"{name} must be {form} of finite numbers")
    if shape is not None and a.shape != shape:
        raise error(f"{name} shape must be {' x '.join(map(str, shape))}, got {a.shape}")
    return np.asarray(a, dtype=float, order="C")


def is_antisymmetric(c: np.ndarray, top=None) -> bool:
    """c[a, b] = -c[b, a] to ``JACOBI_TOL`` |c|; ``top`` is |c| when the
    caller has it."""
    top = np.abs(c).max() if top is None else top
    return _within(np.abs(c + c.transpose(1, 0, 2)).max(), top, 1, JACOBI_TOL)


def structure_tensor(dim, c) -> tuple:
    """(dim, c, |c|), dim an int and c a float array, of a model whose dim is
    an integer of at least 1 (an integral float counts) and whose c, read by
    :func:`real_array`, is dim^3 and antisymmetric; else InvalidModel."""
    if not is_integral(dim):
        raise InvalidModel(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise InvalidModel(f"dim must be at least 1, got {dim!r}")
    d = int(dim)
    c = real_array(c, (d, d, d), "structure tensor", InvalidModel)
    if not is_antisymmetric(c, top := np.abs(c).max()):
        raise InvalidModel("structure constants are not antisymmetric")
    return d, c, top


def is_lie(c: np.ndarray, top=None) -> bool:
    """The Jacobi identity of an antisymmetric c, its Jacobiator to
    ``JACOBI_TOL`` |c|^2; with :func:`is_antisymmetric`, c is a Lie
    bracket.  ``top`` is |c| when the caller has it."""
    top = np.abs(c).max() if top is None else top
    return _within(jacobi_defect(c), top, 2, JACOBI_TOL)


def twistor_sign(*ops: np.ndarray):
    """The one twistor check: alpha read from the first operator (+1.0 when
    tr(F^2) > 0, else -1.0), returned when every operator F squares to alpha
    id and each two anticommute, to ``STRUCT_TOL`` times the largest entry
    of |F||G| over all pairs (the rounding of the products that cancel; a
    valid F has (|F||F|)_ii >= 1); ``None`` otherwise, NaN included.  Every
    square F^2 - alpha id and every anticommutator FG + GF is stacked in one
    array whose sup norm meets the bound once."""
    S = np.array(ops)
    k, n = len(S), S.shape[-1]
    rel = np.empty((k * (k + 1) // 2, n, n))
    np.matmul(S, S, out=rel[:k])
    alpha = 1.0 if rel[0].trace() > 0 else -1.0
    rel[:k].reshape(k, n * n)[:, ::n + 1] -= alpha
    for r, (a, b) in enumerate([(a, b) for a in range(1, k) for b in range(a)], k):
        np.add(S[a] @ S[b], S[b] @ S[a], out=rel[r])
    A = np.abs(S)  # block (a, b) of the product is |S[a]||S[b]|
    top = (A.reshape(k * n, n) @ A.transpose(1, 0, 2).reshape(n, k * n)).max()
    return alpha if _within(np.abs(rel).max(), top, 1, STRUCT_TOL) else None


def curvature_slab(c: np.ndarray, nabla: np.ndarray, a0: int, a1: int,
                   out=None) -> np.ndarray:
    """R[a0:a1] of :func:`curvature` in three GEMMs with one slab-sized
    temporary, written into ``out`` when given."""
    d = len(c)
    s = a1 - a0
    if out is None:
        out = np.empty((s, d, d, d), np.result_type(c, nabla))
    np.matmul(nabla.reshape(d * d, d), nabla[a0:a1], out=out.reshape(s, d * d, d))
    tmp = nabla[a0:a1, None] @ nabla  # nabla_{e_b} nabla_{e_a}
    out -= tmp
    np.matmul(c[a0:a1], nabla.reshape(d, d * d), out=tmp.reshape(s, d, d * d))
    out -= tmp
    return out


def curvature_slabs(c: np.ndarray, nabla: np.ndarray):
    """Yield (a0, R[a0:a1]) of :func:`curvature` over the first index, each
    slab a fresh array of at most ``SLAB_FLOATS`` floats (one index when
    d^3 is more)."""
    for a0, a1 in _slabs(len(c)):
        yield a0, curvature_slab(c, nabla, a0, a1)


def curvature(c: np.ndarray, nabla: np.ndarray) -> np.ndarray:
    """R[a, b, c, l] of R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
    - nabla_{[X, Y]} Z for the connection tensor nabla[a, b, l] of the
    bracket c, filled slab by slab with no rank-4 temporary."""
    d = len(c)
    R = np.empty((d,) * 4, np.result_type(c, nabla))
    for a0, a1 in _slabs(d):
        curvature_slab(c, nabla, a0, a1, R[a0:a1])
    return R


def curvature_at(c: np.ndarray, nabla: np.ndarray, X, Y, Z) -> np.ndarray:
    """R(X, Y)Z of :func:`curvature` from vectors alone, with no rank-4
    tensor: nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X, Y]} Z."""
    return (apply(nabla, X, apply(nabla, Y, Z))
            - apply(nabla, Y, apply(nabla, X, Z))
            - apply(nabla, apply(c, X, Y), Z))


def ricci(c: np.ndarray, nabla: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Ricci operator Ric[l, a] = g^{ij} R[a, i, j, l] of :func:`curvature`
    by rank-3 contractions only:

        g^{ij} (N[i,j,m] N[a,m,l] - N[a,j,m] N[i,m,l] - c[a,i,m] N[m,j,l]).
    """
    d = len(c)
    v = ginv.reshape(d * d) @ nabla.reshape(d * d, d)  # g^{ij} N[i, j, m]
    W = ginv.T @ nabla.reshape(d, d * d)  # g^{ij} N[i, m, l], as [j, (m, l)]
    U = ginv @ nabla  # g^{ij} N[m, j, l], as [m, i, l]
    ric = (v @ nabla - nabla.reshape(d, d * d) @ W.reshape(d * d, d)
           - c.reshape(d, d * d) @ U.transpose(1, 0, 2).reshape(d * d, d))
    return ric.T
