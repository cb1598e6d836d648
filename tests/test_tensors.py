"""The shared contraction kernels against literal multi-operand einsums."""

import numpy as np
import pytest

from aqlab import liealg as la
from aqlab import tensors


def close(a, b):
    return np.abs(a - b).max() <= 1e-12 * (1.0 + np.abs(b).max())


@pytest.mark.parametrize("dtype", [float, complex])
def test_transport(rng, dtype):
    t = rng.normal(size=(5, 5, 5))
    P, Q = rng.normal(size=(2, 5, 5)).astype(dtype)
    if dtype is complex:
        P = P + 1j * rng.normal(size=(5, 5))
    assert close(tensors.transport(t, P, Q), np.einsum("ia,jb,ijk->abk", P, Q, t))
    assert close(tensors.transport(t, P), np.einsum("ia,ijk->ajk", P, t))
    assert close(tensors.transport(t, None, Q), np.einsum("jb,ajk->abk", Q, t))
    assert tensors.transport(t) is t


def test_post_and_basis_change(rng):
    c = rng.normal(size=(4, 4, 4))
    s = rng.normal(size=(4, 4))
    F = rng.normal(size=(4, 4))
    assert close(tensors.post(F, c), np.einsum("lk,abk->abl", F, c))
    sinv = np.linalg.inv(s)
    assert close(tensors.post(sinv, tensors.transport(c, s, s)),
                 np.einsum("ia,jb,ijm,km->abk", s, s, c, sinv))


def jacobiator_ref(c):
    return (np.einsum("ijm,mkl->ijkl", c, c) + np.einsum("jkm,mil->ijkl", c, c)
            + np.einsum("kim,mjl->ijkl", c, c))


def curvature_ref(c, n):
    return (np.einsum("ajl,bcj->abcl", n, n) - np.einsum("bjl,acj->abcl", n, n)
            - np.einsum("abk,kcl->abcl", c, n))


def test_jacobiator(rng):
    c = rng.normal(size=(4, 4, 4))
    assert close(tensors.jacobiator(c), jacobiator_ref(c))
    assert np.abs(tensors.jacobiator(la.so4().c)).max() == 0.0


def test_curvature(rng):
    c = rng.normal(size=(4, 4, 4))
    n = rng.normal(size=(4, 4, 4))
    R = tensors.curvature(c, n)
    assert close(R, curvature_ref(c, n))

    def nab(x, y):
        return np.einsum("a,b,abl->l", x, y, n)

    X, Y, Z = rng.normal(size=(3, 4))
    direct = (nab(X, nab(Y, Z)) - nab(Y, nab(X, Z))
              - nab(np.einsum("i,j,ijk->k", X, Y, c), Z))
    assert close(np.einsum("a,b,c,abcl->l", X, Y, Z, R), direct)


@pytest.mark.parametrize("d", [1, 2, 7])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_kernels_across_dimensions(rng, d, layout):
    """Real tensors with complex operators (the projectors of I are
    complex), in C order and as transposed views that are not contiguous."""
    def arr(*shape, cplx=False):
        a = rng.normal(size=shape) + (1j * rng.normal(size=shape) if cplx else 0)
        return a.T if layout == "transposed" else a

    t, n = arr(d, d, d), arr(d, d, d)
    P, Q, F = arr(d, d, cplx=True), arr(d, d, cplx=True), arr(d, d, cplx=True)
    assert t.flags.c_contiguous == (layout == "contiguous" or d == 1)
    assert close(tensors.transport(t, P, Q), np.einsum("ia,jb,ijk->abk", P, Q, t))
    assert close(tensors.transport(t, P), np.einsum("ia,ijk->ajk", P, t))
    assert close(tensors.transport(t, None, Q), np.einsum("jb,ajk->abk", Q, t))
    assert close(tensors.post(F, t), np.einsum("lk,abk->abl", F, t))
    assert close(tensors.jacobiator(t), jacobiator_ref(t))
    assert close(tensors.curvature(t, n), curvature_ref(t, n))


@pytest.mark.parametrize("d", [1, 2, 7])
def test_apply(rng, d):
    t3, t4 = rng.normal(size=(d,) * 3), rng.normal(size=(d,) * 4)
    X, Y, Z = rng.normal(size=(3, d))
    assert close(tensors.apply(t3, X, Y), np.einsum("a,b,abl->l", X, Y, t3))
    assert close(tensors.apply(t3, X), np.einsum("a,abl->bl", X, t3))
    assert close(tensors.apply(t4, X, Y, Z),
                 np.einsum("a,b,c,abcl->l", X, Y, Z, t4))
    assert close(tensors.apply(t4.T, X, Y, Z),
                 np.einsum("a,b,c,abcl->l", X, Y, Z, t4.T))
    assert close(tensors.apply(t3, X.tolist(), Y.tolist()),
                 np.einsum("a,b,abl->l", X, Y, t3))
