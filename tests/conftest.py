"""Shared fixtures and numerical helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

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
    the hex form of every re and im, and alpha; bit-equal values agree here
    (signed zeros included), and a numpy scalar field does not."""
    out = []
    for v in values:
        if hasattr(v, "m"):
            out += bits(*v.m[0], *v.m[1])
        elif hasattr(v, "x1"):
            out += bits(v.x1, v.x2)
        else:
            out.append((type(v.re), v.re.hex(), type(v.im), v.im.hex(), v.alpha))
    return out


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
