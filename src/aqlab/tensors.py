"""Contractions of structure tensors shared by liealg, piaq and gxg.

A structure tensor t[a, b, k] holds the e_k coefficient of a bilinear
product of e_a and e_b (a bracket, a torsion, a connection).  Every basis
change, operator transport and composition in the package goes through the
four kernels below, each evaluated as a chain of two-operand contractions.
"""

from __future__ import annotations

import numpy as np


def transport(t: np.ndarray, P=None, Q=None) -> np.ndarray:
    """Tensor of t(P e_a, Q e_b); ``None`` stands for the identity."""
    if P is not None:
        t = np.einsum("ia,ijk->ajk", P, t)
    if Q is not None:
        t = np.einsum("jb,ajk->abk", Q, t)
    return t


def post(F, t: np.ndarray) -> np.ndarray:
    """Apply the matrix F to the value slot: F t(e_a, e_b)."""
    return np.einsum("abk,lk->abl", t, F)


def jacobiator(c: np.ndarray) -> np.ndarray:
    """[[x,y],z] cyclic sum as a rank-4 tensor; zero for Lie brackets."""
    t = np.einsum("ijm,mkl->ijkl", c, c)
    return t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)


def curvature(c: np.ndarray, nabla: np.ndarray) -> np.ndarray:
    """R[a, b, c, l] of R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
    - nabla_{[X, Y]} Z for the connection tensor nabla[a, b, l] of the
    bracket c."""
    dd = np.einsum("ajl,bcj->abcl", nabla, nabla)
    return dd - dd.transpose(1, 0, 2, 3) - np.einsum("abk,kcl->abcl", c, nabla)
