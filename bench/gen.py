"""Seeded input generators for the benchmark.

Everything the workloads feed to ``aqlab`` is built here from the seed:
classical Lie algebras from matrix bases, randomly rebased, pseudo-rotated
spin triples, conjugated twistor-pair models and the files the CLI reads.
Nothing here calls into ``aqlab``; the program sees only the results.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Classical Lie algebras from matrix bases
# ---------------------------------------------------------------------------


def _unit(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def so_basis(n: int) -> list[np.ndarray]:
    """Skew-symmetric real matrices E_ij - E_ji, i < j."""
    return [_unit(n, i, j) - _unit(n, j, i)
            for i in range(n) for j in range(i + 1, n)]


def su_basis(n: int) -> list[np.ndarray]:
    """Anti-Hermitian traceless matrices, as a real vector space."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(_unit(n, i, j) - _unit(n, j, i))
            out.append(1j * (_unit(n, i, j) + _unit(n, j, i)))
    for i in range(n - 1):
        out.append(1j * (_unit(n, i, i) - _unit(n, i + 1, i + 1)))
    return out


def sl_basis(n: int) -> list[np.ndarray]:
    """Traceless real matrices: off-diagonal units and diagonal differences."""
    out = [_unit(n, i, j) for i in range(n) for j in range(n) if i != j]
    out += [_unit(n, i, i) - _unit(n, i + 1, i + 1) for i in range(n - 1)]
    return out


def structure_constants(basis: list[np.ndarray]) -> np.ndarray:
    """c[i, j, k] with [B_i, B_j] = sum_k c[i, j, k] B_k (matrix commutator).

    Coordinates come from a least-squares solve over the real and imaginary
    parts; a basis that is not closed under the commutator is rejected.
    """
    d = len(basis)
    flat = np.array([np.concatenate([b.real.ravel(), b.imag.ravel()])
                     for b in basis]).T
    pinv = np.linalg.pinv(flat)
    c = np.zeros((d, d, d))
    worst = 0.0
    for i in range(d):
        for j in range(d):
            com = basis[i] @ basis[j] - basis[j] @ basis[i]
            vec = np.concatenate([com.real.ravel(), com.imag.ravel()])
            c[i, j] = pinv @ vec
            worst = max(worst, float(np.abs(flat @ c[i, j] - vec).max()))
    if worst > 1e-12:
        raise ValueError(f"basis is not closed under the bracket ({worst:.1e})")
    return np.round(c, 12) + 0.0


# Rungs of the dimension ladder, compact (su, so) and indefinite (sl), as
# (name, matrix basis).  Doubled dimensions run 6, 6, 12, 16, 16, 20, 30,
# 30, 42.
LADDER = (
    ("su2", lambda: su_basis(2)),
    ("sl2r", lambda: sl_basis(2)),
    ("so4", lambda: so_basis(4)),
    ("sl3r", lambda: sl_basis(3)),
    ("su3", lambda: su_basis(3)),
    ("so5", lambda: so_basis(5)),
    ("sl4r", lambda: sl_basis(4)),
    ("so6", lambda: so_basis(6)),
    ("so7", lambda: so_basis(7)),
)


def well_conditioned(rng, n: int, limit: float = 20.0) -> np.ndarray:
    """Random n x n matrix with condition number below ``limit``."""
    while True:
        s = rng.normal(size=(n, n))
        if np.linalg.cond(s) < limit:
            return s


def conjugate_structure(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Structure constants in the basis given by the columns of ``s``."""
    sinv = np.linalg.inv(s)
    t = np.einsum("ia,ijm->ajm", s, c)
    t = np.einsum("jb,ajm->abm", s, t)
    return np.einsum("abm,km->abk", t, sinv)


def rebased(rng, c: np.ndarray) -> np.ndarray:
    """The algebra ``c`` in a random well-conditioned basis."""
    return conjugate_structure(c, well_conditioned(rng, c.shape[0]))


def off_point(rng) -> tuple[float, float]:
    """A (lambda, mu) well inside the disc and away from the Einstein points
    and the nearly Kaehler point, so every verdict there is clear-cut."""
    special = ((0.0, 0.0), (0.0, -0.5), (1 / 3, -2 / 3), (-1 / 3, -2 / 3))
    while True:
        lam, mu = rng.uniform(-0.75, 0.75, size=2)
        if lam * lam + mu * mu > 0.75 ** 2:
            continue
        if min(np.hypot(lam - a, mu - b) for a, b in special) > 0.1:
            return float(lam), float(mu)


# ---------------------------------------------------------------------------
# Spin triples, operator pairs and twistor-pair models
# ---------------------------------------------------------------------------


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling, a truncated series and squaring."""
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


def pseudo_rotation(rng, gram: np.ndarray, scale: float) -> np.ndarray:
    """exp(G^-1 S), S skew: a random element of the identity component of
    the group preserving the quadratic form ``gram``."""
    n = gram.shape[0]
    s = rng.normal(size=(n, n), scale=scale)
    return expm(np.linalg.inv(gram) @ (s - s.T))


def spin_triple(rng, alpha: int, scale: float, reverse: bool = False):
    """Orthonormal imaginary triple (rows: coefficients of i, j, k).

    The columns of a pseudo-rotation for diag(-alpha, -alpha, 1) carry the
    Gram pattern the spin-basis construction expects; negating the third
    reverses the orientation.
    """
    gram = np.diag([-float(alpha), -float(alpha), 1.0])
    rot = pseudo_rotation(rng, gram, scale)
    triple = rot.T.copy()
    if reverse:
        triple[2] = -triple[2]
    return triple


def standard_pair(dim: int, alpha: int):
    """An anticommuting pair with I^2 = J^2 = alpha id on R^dim."""
    if alpha == 1:
        h = dim // 2
        eye, zero = np.eye(h), np.zeros((h, h))
        return (np.block([[eye, zero], [zero, -eye]]),
                np.block([[zero, eye], [eye, zero]]))
    i0 = np.array([[0.0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    j0 = np.array([[0.0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    blocks = dim // 4
    return np.kron(np.eye(blocks), i0), np.kron(np.eye(blocks), j0)


def conjugated_pair(rng, dim: int, alpha: int):
    """Random conjugate T P T^-1 of the standard pair."""
    t = well_conditioned(rng, dim)
    tinv = np.linalg.inv(t)
    i0, j0 = standard_pair(dim, alpha)
    return t @ i0 @ tinv, t @ j0 @ tinv


def base_algebra_4(kind: str) -> np.ndarray:
    """Structure constants of a 4-dimensional Lie algebra: R^4, u(2), gl(2)."""
    c = np.zeros((4, 4, 4))
    if kind == "u2":
        c[:3, :3, :3] = structure_constants(su_basis(2))
    elif kind == "gl2":
        c[:3, :3, :3] = structure_constants(sl_basis(2))
    elif kind != "abelian":
        raise ValueError(kind)
    return c


def conjugated_model(rng, c: np.ndarray, I: np.ndarray, J: np.ndarray):
    """(c, I, J) rewritten in a random well-conditioned basis."""
    t = well_conditioned(rng, c.shape[0])
    tinv = np.linalg.inv(t)
    return conjugate_structure(c, t), tinv @ I @ t, tinv @ J @ t


def doubled_structure(c: np.ndarray):
    """Bracket and involutions of m + m in the product basis (alpha = +1)."""
    n = c.shape[0]
    c2 = np.zeros((2 * n, 2 * n, 2 * n))
    c2[:n, :n, :n] = c
    c2[n:, n:, n:] = c
    I, J = standard_pair(2 * n, 1)
    return c2, I, J


def bracket_records(c: np.ndarray) -> list[list]:
    """1-based sparse records (i, j, k, value) for i < j, as the CLI reads."""
    d = c.shape[0]
    return [[i + 1, j + 1, k + 1, float(c[i, j, k])]
            for i in range(d) for j in range(i + 1, d) for k in range(d)
            if c[i, j, k] != 0.0]


def join_floats(values) -> str:
    """Comma-joined shortest round-trip reprs, as one CLI argument value."""
    return ",".join(repr(float(v)) for v in values)
