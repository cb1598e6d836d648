"""Independent oracles the benchmark checks the program's outputs against.

Each one is written from the paper's statements or from plain linear
algebra, not from ``aqlab``: the four Einstein points, real-matrix models
of the scalar ring and of the spin representation, the self-dual
parametrization, the trace form through adjoint matrices, and an SVD rank.
"""

from __future__ import annotations

import numpy as np

#: (lambda, mu, Ricci constant) of the four Einstein metrics of the family.
EINSTEIN_POINTS = ((0.0, 0.0, 1 / 4), (0.0, -0.5, 5 / 18),
                   (1 / 3, -2 / 3, 3 / 8), (-1 / 3, -2 / 3, 3 / 8))


def close(a, b, tol: float = 1e-9) -> bool:
    """max |a - b| <= tol * (1 + max |a|), elementwise over arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = 1.0 + (float(np.abs(a).max()) if a.size else 0.0)
    return a.size == 0 or float(np.abs(a - b).max()) <= tol * scale


def einstein_points_ok(points, tol: float = 1e-9) -> bool:
    """Exactly the four points, with their constants, in any order."""
    got = sorted((float(l), float(m), float(e)) for l, m, e in points)
    want = sorted(EINSTEIN_POINTS)
    return len(got) == 4 and all(
        abs(g - w) <= tol for gp, wp in zip(got, want) for g, w in zip(gp, wp))


def trace_form(c: np.ndarray) -> np.ndarray:
    """K[i, j] = -tr(ad e_i ad e_j) through explicit adjoint matrices."""
    ads = np.transpose(c, (0, 2, 1))  # ads[i][k, j] = c[i, j, k]
    d = c.shape[0]
    return -np.array([[np.trace(ads[i] @ ads[j]) for j in range(d)]
                      for i in range(d)])


def disc_grid_size(res: float, margin: float = 1e-9) -> int:
    """Number of points of the res-grid strictly inside the unit disc."""
    k = int(np.floor((1.0 - 1e-12) / res))
    ticks = res * np.arange(-k, k + 1)
    lam, mu = np.meshgrid(ticks, ticks, indexing="ij")
    return int(np.count_nonzero(lam ** 2 + mu ** 2 < 1.0 - margin))


def svd_rank(cols: np.ndarray, rel: float = 1e-8) -> int:
    s = np.linalg.svd(cols, compute_uv=False)
    return int(np.sum(s > rel * s[0]))


# ---------------------------------------------------------------------------
# The scalar ring, quaternions and the spin representation as real matrices
# ---------------------------------------------------------------------------


def scalar_mul(x, y, alpha: int) -> tuple[float, float]:
    """(a + ib)(c + id) with i^2 = alpha."""
    a, b = x
    c, d = y
    return a * c + alpha * b * d, a * d + b * c


def _quat_table(alpha: int) -> np.ndarray:
    """T[p, q, r]: coefficient of e_r in e_p e_q, basis (1, i, j, k) with
    i^2 = j^2 = alpha, k = ij (hence k^2 = -1, ik = alpha j, jk = -alpha i)."""
    a = float(alpha)
    t = np.zeros((4, 4, 4))
    prods = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (2, 0): (2, 1), (3, 0): (3, 1),
        (1, 1): (0, a), (2, 2): (0, a), (3, 3): (0, -1.0),
        (1, 2): (3, 1), (2, 1): (3, -1.0),
        (1, 3): (2, a), (3, 1): (2, -a),
        (2, 3): (1, -a), (3, 2): (1, a),
    }
    for (p, q), (r, v) in prods.items():
        t[p, q, r] = v
    return t


QUAT_TABLES = {alpha: _quat_table(alpha) for alpha in (-1, 1)}


def quat_mul(p, q, alpha: int) -> np.ndarray:
    return np.einsum("p,q,pqr->r", np.asarray(p, float), np.asarray(q, float),
                     QUAT_TABLES[alpha])


def scalar_block(re: float, im: float, alpha: int) -> np.ndarray:
    """Real 2x2 matrix of multiplication by re + i im."""
    return np.array([[re, alpha * im], [im, re]])


def spin_real(entries, alpha: int) -> np.ndarray:
    """4x4 real matrix of a 2x2 matrix over K_alpha given as [[[re, im]]]."""
    return np.block([[scalar_block(*entries[r][c], alpha) for c in range(2)]
                     for r in range(2)])


def quat_spin_entries(q, alpha: int):
    """[[z1, alpha conj z2], [z2, conj z1]] for q = z1 + j z2,
    z1 = a + ib, z2 = c - id, as (re, im) pairs."""
    a, b, c, d = (float(t) for t in q)
    return [[(a, b), (alpha * c, alpha * d)], [(c, -d), (a, -b)]]


def quat_spin_real(q, alpha: int) -> np.ndarray:
    return spin_real(quat_spin_entries(q, alpha), alpha)


def smat_entries(m) -> list:
    """(re, im) entries of an ``aqlab.quat.SpinMatrix``."""
    return [[(m[r, c].re, m[r, c].im) for c in range(2)] for r in range(2)]


def pauli_entries(alpha: int):
    """sigma1 = [[i, 0], [0, -i]], sigma2 = [[0, alpha], [1, 0]],
    sigma3 = [[0, alpha i], [-i, 0]]."""
    return ([[(0.0, 1.0), (0.0, 0.0)], [(0.0, 0.0), (0.0, -1.0)]],
            [[(0.0, 0.0), (float(alpha), 0.0)], [(1.0, 0.0), (0.0, 0.0)]],
            [[(0.0, 0.0), (0.0, float(alpha))], [(0.0, -1.0), (0.0, 0.0)]])


def spinbasis_ok(triple: np.ndarray, change, sign: int, alpha: int,
                 want_sign: int, tol: float = 1e-9) -> bool:
    """The change matrix conjugates the triple to (s1, s2, sign * s3).

    ``change`` holds (re, im) entries.  The tolerance is relative to the
    conditioning of the conjugation, since the triples' entries grow with
    the pseudo-rotation scale.
    """
    if sign != want_sign:
        return False
    p = spin_real(change, alpha)
    try:
        pinv = np.linalg.inv(p)
    except np.linalg.LinAlgError:
        return False
    paulis = [spin_real(e, alpha) for e in pauli_entries(alpha)]
    paulis[2] = sign * paulis[2]
    for coeffs, want in zip(triple, paulis):
        s = quat_spin_real([0.0, *coeffs], alpha)
        got = pinv @ s @ p
        scale = np.abs(pinv).max() * np.abs(s).max() * np.abs(p).max()
        if np.abs(got - want).max() > tol * (1.0 + scale):
            return False
    return True


# ---------------------------------------------------------------------------
# Self-dual two-forms on the model fibre, metric diag(1, -alpha, -alpha, 1)
# ---------------------------------------------------------------------------

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def form_matrix(comp) -> np.ndarray:
    w = np.zeros((4, 4))
    for (i, j), v in zip(PAIRS, comp):
        w[i, j] = v
        w[j, i] = -v
    return w


def fibre_metric(alpha: int) -> np.ndarray:
    return np.diag([1.0, -float(alpha), -float(alpha), 1.0])


def selfdual_split_ok(alpha: int, omega, plus, minus, tol=1e-12) -> bool:
    """Self-dual forms read (x, y, z, z, alpha y, -alpha x), anti-self-dual
    ones (x, y, z, -z, -alpha y, alpha x), and the halves sum to omega."""
    p = np.asarray(plus, float)
    m = np.asarray(minus, float)
    a = float(alpha)
    scale = 1.0 + float(np.abs(omega).max())
    pat_p = np.array([p[0], p[1], p[2], p[2], a * p[1], -a * p[0]])
    pat_m = np.array([m[0], m[1], m[2], -m[2], -a * m[1], a * m[0]])
    return (np.abs(p - pat_p).max() <= tol * scale
            and np.abs(m - pat_m).max() <= tol * scale
            and np.abs(p + m - np.asarray(omega, float)).max() <= tol * scale)


def endo_ok(alpha: int, plus, endo, lam_sq=None, tol=1e-10) -> bool:
    """J = g^-1 W for the self-dual half, with J^2 = -lambda^2 id."""
    want = np.linalg.inv(fibre_metric(alpha)) @ form_matrix(plus)
    J = np.asarray(endo, float)
    scale = 1.0 + float(np.abs(want).max()) ** 2
    if np.abs(J - want).max() > tol * scale:
        return False
    l2 = -np.trace(want @ want) / 4.0
    if lam_sq is not None and abs(lam_sq - l2) > tol * scale:
        return False
    return np.abs(want @ want + l2 * np.eye(4)).max() <= tol * scale


def aq_triple_ok(alpha: int, J1, J2, J3, tol=1e-12) -> bool:
    """J1^2 = J2^2 = alpha id, J1 J2 = -J2 J1 = J3 and J3^2 = -id."""
    eye = np.eye(4)
    return (np.abs(J1 @ J1 - alpha * eye).max() <= tol
            and np.abs(J2 @ J2 - alpha * eye).max() <= tol
            and np.abs(J1 @ J2 + J2 @ J1).max() <= tol
            and np.abs(J1 @ J2 - J3).max() <= tol
            and np.abs(J3 @ J3 + eye).max() <= tol)
