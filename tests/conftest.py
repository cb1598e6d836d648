"""Shared fixtures and numerical helpers for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from aqlab import fourdim as fd
from aqlab import liealg as la
from aqlab import piaq as pq

_coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
#: (re, im) of a ring value: unrestricted, or within a relative 1e-9 of the
#: isotropic cone re = +-im of the double numbers
ring_pairs = st.one_of(
    st.tuples(_coord, _coord),
    st.builds(lambda r, s, t: (r, s * r * (1.0 + t)), _coord,
              st.sampled_from([-1.0, 1.0]), st.floats(-1e-9, 1e-9)))


def bits(*values):
    """Exact fields of scalars, spin vectors and spin matrices: the type and
    the hex form of every float, and alpha; bit-equal values agree here
    (signed zeros included), and a numpy scalar field does not."""
    out = []
    for v in values:
        if hasattr(v, "re"):
            floats = (v.re, v.im)
        else:  # a spin matrix holds its floats in e, a spin vector in v
            floats = v.e if hasattr(v, "e") else v.v
        out.append((*((type(x), x.hex()) for x in floats), v.alpha))
    return out


def scalar_close(x, y, tol: float = 1e-12) -> bool:
    """Two scalars of one signature agree componentwise up to ``tol``."""
    assert x.alpha == y.alpha
    return abs(x.re - y.re) <= tol and abs(x.im - y.im) <= tol


def abs2norm(x) -> float:
    """Euclidean size sqrt(re^2 + im^2) of a scalar."""
    return math.hypot(x.re, x.im)


def smat_close(x, y, tol: float = 1e-9) -> bool:
    """Two spin matrices agree entry by entry up to ``tol``."""
    return all(scalar_close(x[r, c], y[r, c], tol)
               for r in range(2) for c in range(2))


def hodge_star_matrix(g) -> np.ndarray:
    """The 6x6 matrix of ``fourdim.hodge_star`` in the PAIRS component
    basis: column r is the star of the r-th basis form."""
    return np.array([fd.hodge_star(g, fd.TwoForm4(e)).comp
                     for e in np.eye(6)]).T


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling, truncated series, and squaring."""
    a = np.asarray(a, dtype=float)
    squarings = 0
    while np.abs(a).max() > 0.25:
        a = a / 2.0
        squarings += 1
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 20):
        term = term @ a / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def random_pseudo_rotation(gram: np.ndarray, rng, scale: float = 0.7) -> np.ndarray:
    """Random element of the identity component of the gram-preserving group.

    exp(G^-1 S) with S skew-symmetric preserves the quadratic form of G and
    has unit determinant.
    """
    n = gram.shape[0]
    s = rng.normal(size=(n, n), scale=scale)
    return expm(np.linalg.inv(gram) @ (s - s.T))


# Standard anticommuting operator pairs used to seed random models.

I0_COMPLEX = np.array([[0.0, -1, 0, 0], [1, 0, 0, 0],
                       [0, 0, 0, -1], [0, 0, 1, 0]])
J0_COMPLEX = np.array([[0.0, 0, -1, 0], [0, 0, 0, 1],
                       [1, 0, 0, 0], [0, -1, 0, 0]])


def standard_pair(dim: int, alpha: int):
    """An anticommuting pair with I^2 = J^2 = alpha id on R^dim."""
    if alpha == 1:
        h = dim // 2
        eye, zero = np.eye(h), np.zeros((h, h))
        return (np.block([[eye, zero], [zero, -eye]]),
                np.block([[zero, eye], [eye, zero]]))
    if dim % 4:
        raise ValueError("alpha = -1 needs dimension divisible by 4")
    blocks = dim // 4
    I = np.kron(np.eye(blocks), I0_COMPLEX)
    J = np.kron(np.eye(blocks), J0_COMPLEX)
    return I, J


def _well_conditioned(rng, n: int) -> np.ndarray:
    while True:
        s = rng.normal(size=(n, n))
        if np.linalg.cond(s) < 20.0:
            return s


def conjugate_structure(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Structure constants in the basis given by the columns of s."""
    sinv = np.linalg.inv(s)
    return np.einsum("ia,jb,ijm,km->abk", s, s, c, sinv)


def _base_algebra_4(kind: str) -> la.LieAlgebraModel:
    line = la.LieAlgebraModel(1, np.zeros((1, 1, 1)), name="R")
    if kind == "abelian":
        return la.LieAlgebraModel(4, np.zeros((4, 4, 4)), name="R4")
    if kind == "u2":
        return la.direct_sum(la.su2(), line, name="u2")
    if kind == "gl2":
        return la.direct_sum(la.sl2r(), line, name="gl2")
    raise ValueError(kind)


def so_algebra(n: int) -> la.LieAlgebraModel:
    """so(n) in the basis L_ij = E_ij - E_ji, i < j; the L_ab coefficient
    of a skew matrix is its (a, b) entry."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    L = np.zeros((len(pairs), n, n))
    for k, (i, j) in enumerate(pairs):
        L[k, i, j], L[k, j, i] = 1.0, -1.0
    com = L[:, None] @ L[None] - L[None] @ L[:, None]
    rows, cols = zip(*pairs)
    return la.LieAlgebraModel(len(pairs), com[:, :, rows, cols], name=f"so{n}")


# the nonzero f_abc of [e_a, e_b] = f_abc e_c for e_a = -i lambda_a / 2, the
# Gell-Mann matrices: each triple stands for its three cyclic orders
_SU3_F = ((1, 2, 3, 1.0), (1, 4, 7, 0.5), (2, 4, 6, 0.5), (2, 5, 7, 0.5),
          (3, 4, 5, 0.5), (1, 5, 6, -0.5), (3, 6, 7, -0.5),
          (4, 5, 8, math.sqrt(3) / 2), (6, 7, 8, math.sqrt(3) / 2))


def su3_algebra() -> la.LieAlgebraModel:
    """su(3) in the Gell-Mann basis."""
    return la.from_brackets(8, [(i, j, k, f) for a, b, c, f in _SU3_F
                                for i, j, k in ((a, b, c), (b, c, a), (c, a, b))],
                            name="su3")


def random_piaq_model(rng, alpha: int, kind: str = "u2") -> pq.PiAQModel:
    """A 4-dimensional Lie model with randomly conjugated bracket and pair."""
    base = _base_algebra_4(kind)
    c = conjugate_structure(base.c, _well_conditioned(rng, 4))
    i0, j0 = standard_pair(4, alpha)
    t = _well_conditioned(rng, 4)
    tinv = np.linalg.inv(t)
    return pq.PiAQModel(4, c, t @ i0 @ tinv, t @ j0 @ tinv, alpha,
                        name=f"random-{base.name}")


def random_aq_pair(rng, dim: int, alpha: int):
    """Random conjugate of the standard pair, for orbit-dimension tests."""
    t = _well_conditioned(rng, dim)
    tinv = np.linalg.inv(t)
    i0, j0 = standard_pair(dim, alpha)
    return t @ i0 @ tinv, t @ j0 @ tinv
