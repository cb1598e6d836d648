"""Contractions of structure tensors shared by liealg, piaq and gxg.

A structure tensor t[a, b, k] holds the e_k coefficient of a bilinear
product of e_a and e_b (a bracket, a torsion, a connection).  Every basis
change, operator transport, composition and evaluation on vectors goes
through the five kernels below, each a chain of two-operand matrix products
on reshaped arrays, so that BLAS does the work rather than einsum's loops.
"""

from __future__ import annotations

import numpy as np


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


def jacobiator(c: np.ndarray) -> np.ndarray:
    """[[x,y],z] cyclic sum as a rank-4 tensor; zero for Lie brackets."""
    d = len(c)
    t = (c.reshape(d * d, d) @ c.reshape(d, d * d)).reshape(d, d, d, d)
    return t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)


def curvature(c: np.ndarray, nabla: np.ndarray) -> np.ndarray:
    """R[a, b, c, l] of R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
    - nabla_{[X, Y]} Z for the connection tensor nabla[a, b, l] of the
    bracket c."""
    d = len(c)
    dd = (nabla.reshape(d * d, d) @ nabla).reshape(d, d, d, d)
    R = dd - dd.transpose(1, 0, 2, 3)
    R -= (c.reshape(d * d, d) @ nabla.reshape(d, d * d)).reshape(R.shape)
    return R
