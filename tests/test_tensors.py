"""The shared contraction kernels against literal multi-operand einsums, and
the relation predicates that every model check reads."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqlab import liealg as la
from aqlab import piaq as pq
from aqlab import spinor as sp
from aqlab import tensors
from aqlab.errors import InvalidModel, NotAQStructure
from conftest import random_aq_pair, so_algebra, standard_pair


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


def curvature_oneshot(c, n):
    """The whole-tensor GEMM expression the blocked kernel replaced: three
    d^4 temporaries besides the result."""
    d = len(c)
    dd = (n.reshape(d * d, d) @ n).reshape(d, d, d, d)
    R = dd - dd.transpose(1, 0, 2, 3)
    R -= (c.reshape(d * d, d) @ n.reshape(d, d * d)).reshape(R.shape)
    return R


def jacobi_close(c):
    want = np.abs(jacobiator_ref(c)).max()
    return abs(tensors.jacobi_defect(c) - want) <= 1e-12 * (1.0 + want)


def test_jacobiator(rng):
    """The slab-wise sup norm of the Jacobiator against the rank-4 einsums."""
    c = rng.normal(size=(4, 4, 4))
    assert jacobi_close(c)
    assert tensors.jacobi_defect(la.so4().c) == 0.0
    c[1, 2, 3] = np.nan
    assert np.isnan(tensors.jacobi_defect(c))


@pytest.mark.parametrize("d", [5, 18, 33])
def test_jacobi_defect_across_slabs(rng, d):
    """One slab, several with a short last one, one index per slab."""
    assert jacobi_close(rng.normal(size=(d, d, d)))


def slab_lengths(d):
    z = np.zeros((d, d, d))
    return [len(R) for _, R in tensors.curvature_slabs(z, z)]


def test_slab_layout():
    """Up to d = 13 one slab; then several of at most SLAB_FLOATS floats;
    from d^3 > SLAB_FLOATS / 2 (doubled so(6) and so(7)) one index each."""
    assert tensors.SLAB_FLOATS == 2 ** 15
    assert slab_lengths(4) == [4] and slab_lengths(13) == [13]
    assert slab_lengths(14) == [11, 3] and slab_lengths(18) == [5, 5, 5, 3]
    assert slab_lengths(30) == [1] * 30 and slab_lengths(42) == [1] * 42


@pytest.mark.parametrize("d", [4, 18, 30, 42, 51])
def test_blocked_curvature(rng, d):
    """The blocked kernel against the one-shot expression (one slab, a short
    last slab, one index per slab); its slabs are the rows of its result."""
    c, n = rng.normal(size=(2, d, d, d))
    R = tensors.curvature(c, n)
    ref = curvature_oneshot(c, n)
    assert np.abs(R - ref).max() <= 1e-12 * np.abs(ref).max()
    del ref
    a1 = 0
    for a0, slab in tensors.curvature_slabs(c, n):
        assert a0 == a1 and slab.size <= max(tensors.SLAB_FLOATS, d ** 3)
        a1 = a0 + len(slab)
        assert np.array_equal(slab, R[a0:a1])
    assert a1 == d


@pytest.mark.parametrize("d", [3, 18])
def test_curvature_at_and_ricci(rng, d):
    """R(X, Y)Z from vectors and the rank-3 Ricci against the rank-4 tensor."""
    c, n = rng.normal(size=(2, d, d, d))
    R = curvature_ref(c, n)
    X, Y, Z = rng.normal(size=(3, d))
    assert close(tensors.curvature_at(c, n, X, Y, Z),
                 np.einsum("a,b,c,abcl->l", X, Y, Z, R))
    g = rng.normal(size=(d, d))
    ginv = np.linalg.inv(g + g.T)
    assert close(tensors.ricci(c, n, ginv), np.einsum("ij,aijl->la", ginv, R))


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
    assert jacobi_close(t)
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


@pytest.mark.parametrize("d", [1, 2, 7])
def test_apply_rows(rng, d):
    t = rng.normal(size=(d, d, 3))  # a value slot of its own size
    U, V = rng.normal(size=(2, 5, d))
    rows = tensors.apply_rows(t, U, V)
    assert rows.shape == (5, 3)
    for k in range(5):
        assert close(rows[k], tensors.apply(t, U[k], V[k]))


def u2_bracket(delta: float = 0.0) -> np.ndarray:
    """su(2) + R, with [e1, e4] = delta e1 added: Jacobi fails by delta."""
    c = np.zeros((4, 4, 4))
    c[:3, :3, :3] = la.su2().c
    c[0, 3, 0], c[3, 0, 0] = delta, -delta
    return c


def test_relation_predicates():
    c = u2_bracket()
    assert tensors.is_antisymmetric(c) and tensors.is_lie(c)
    c[0, 1, 2] += 1e-9  # no antisymmetric counterpart
    assert not tensors.is_antisymmetric(c)
    assert not tensors.is_antisymmetric(np.full((2, 2, 2), np.nan))
    assert not tensors.is_lie(np.full((2, 2, 2), np.nan))
    for alpha in (-1, 1):
        I, J = standard_pair(4, alpha)
        assert tensors.twistor_sign(I, J) == alpha and tensors.twistor_sign(I) == alpha
        assert tensors.twistor_sign(I, J) != -alpha
        assert tensors.twistor_sign(I, I) is None  # squares, but commutes
        assert tensors.twistor_sign(I, np.full((4, 4), np.nan)) is None


def test_twistor_sign():
    """alpha read from tr(F^2) and confirmed by the relations; None when the
    operators fail them, NaN included."""
    for alpha in (-1, 1):
        sign = tensors.twistor_sign(*standard_pair(4, alpha))
        assert sign == alpha and type(sign) is float
    eye = np.eye(4)
    assert tensors.twistor_sign(eye, eye) is None  # squares, but commutes
    assert tensors.twistor_sign(np.diag([1.0, 1.0, 2.0, 1.0])) is None
    I, _ = standard_pair(4, -1)
    I[0, 1] = np.nan
    assert tensors.twistor_sign(I) is None
    # the bound follows |F||F|, not |F|^2: an operator with F^2 = 1.5 id and
    # an entry of 1e5 is no involution, its exact partner with 1e-5 is one
    assert tensors.twistor_sign(np.array([[0, 1e5], [1.5e-5, 0]])) is None
    assert tensors.twistor_sign(np.array([[0, 1e5], [1e-5, 0]])) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((4, 8)),
       st.sampled_from((-1, 1)), st.booleans(), st.booleans())
def test_piaq_model_takes_exactly_the_twistor_sign(seed, dim, alpha, flip,
                                                   commuting):
    """PiAQModel accepts (I, J, alpha) exactly when twistor_sign(I, J) is
    alpha: a conjugated standard pair with its own alpha builds, the same
    pair with alpha flipped and a commuting pair (I, I) do not."""
    I, J = random_aq_pair(np.random.default_rng(seed), dim, alpha)
    if commuting:
        J = I
    given_alpha = -alpha if flip else alpha
    try:
        pq.PiAQModel(dim, np.zeros((dim,) * 3), I, J, given_alpha)
        accepted = True
    except InvalidModel:
        accepted = False
    assert accepted == (tensors.twistor_sign(I, J) == given_alpha)
    assert accepted == (not flip and not commuting)


@pytest.mark.parametrize("alpha", (-1, 1))
def test_one_jacobi_bound_for_every_caller(alpha):
    """A Jacobiator between JACOBI_TOL and ten times it, at |c| = 1: the
    algebra is rejected and the twistor-pair model calls it non-Lie."""
    c = u2_bracket(5e-10)
    assert 1e-10 < tensors.jacobi_defect(c) < 1e-9
    with pytest.raises(InvalidModel, match="Jacobi identity fails"):
        la.LieAlgebraModel(4, c)
    assert not pq.PiAQModel(4, c, *standard_pair(4, alpha), alpha).is_lie
    assert pq.PiAQModel(4, u2_bracket(), *standard_pair(4, alpha), alpha).is_lie


def non_antisymmetric_bracket() -> np.ndarray:
    c = np.zeros((4, 4, 4))
    c[0, 1, 2] = 1.0  # no [e_2, e_1] counterpart
    return c


@pytest.mark.parametrize("dim,c", [
    pytest.param(4.5, np.zeros((4, 4, 4)), id="fractional-dim"),
    pytest.param(0, np.zeros((0, 0, 0)), id="dim-0"),
    pytest.param(4, np.zeros((4, 4, 3)), id="wrong-shape"),
    pytest.param(4, non_antisymmetric_bracket(), id="not-antisymmetric"),
])
def test_one_structure_rule_for_both_models(dim, c):
    """LieAlgebraModel and PiAQModel take (dim, c) through
    tensors.structure_tensor: each fault is one InvalidModel message."""
    with pytest.raises(InvalidModel) as rule:
        tensors.structure_tensor(dim, c)
    with pytest.raises(InvalidModel) as algebra:
        la.LieAlgebraModel(dim, c)
    with pytest.raises(InvalidModel) as model:
        pq.PiAQModel(dim, c, *standard_pair(4, 1), 1)
    assert str(algebra.value) == str(model.value) == str(rule.value)


def test_structure_tensor_gives_dim_c_and_its_size():
    """An integral float dim comes back as an int and c as a float array,
    with |c|, the size that both models keep for their bounds."""
    c = (3 * la.su2().c).astype(int).tolist()
    dim, arr, top = tensors.structure_tensor(3.0, c)
    assert type(dim) is int and dim == 3
    assert arr.dtype == float and np.array_equal(arr, 3 * la.su2().c)
    assert top == 3.0
    assert la.LieAlgebraModel(3, c)._c_top == top
    assert pq.PiAQModel(4, 3 * u2_bracket(), *standard_pair(4, -1),
                        -1)._c_top == top


@pytest.mark.parametrize("alpha", (-1, 1))
def test_one_twistor_bound_for_every_caller(alpha):
    """A pair off its relations by about 5e-9, between STRUCT_TOL and the
    1e-8 (1 + max(|I|, |J|)^2) that orbit_dimension once applied: both the
    orbit and the model reject it."""
    I, J = standard_pair(4, alpha)
    I = (1.0 + 2.5e-9) * I
    assert 1e-9 < np.abs(I @ I - alpha * np.eye(4)).max() < 2e-8
    with pytest.raises(NotAQStructure):
        sp.orbit_dimension(I, J, np.ones(4))
    with pytest.raises(InvalidModel, match="twistor-pair"):
        pq.PiAQModel(4, np.zeros((4, 4, 4)), I, J, alpha)
    assert sp.orbit_dimension(*standard_pair(4, alpha), np.ones(4)) in (2, 4)


def bracket_relations(c):
    return tensors.is_antisymmetric(c), tensors.is_lie(c)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 6.0))
@example(0, -12.0)
@example(0, -6.0)
@example(0, 6.0)
def test_bracket_relations_do_not_depend_on_scale(seed, log_t):
    """Antisymmetry (degree 1 in c) and the Jacobiator (degree 2) against
    bounds of the same degree: the catalog brackets keep passing both, a
    tensor that is not antisymmetric and an antisymmetric one that is not
    Lie keep failing, at every scale t (1e-12 too)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 4, 4))
    cases = [(la.su2().c, (True, True)), (la.sl2r().c, (True, True)),
             (la.so4().c, (True, True)), (so_algebra(4).c, (True, True)),
             (x, (False, False)), (x - x.transpose(1, 0, 2), (True, False)),
             (u2_bracket(1e-3), (True, False))]
    for c, want in cases:
        assert bracket_relations(10.0 ** log_t * c) == want


def test_zero_bracket_meets_its_bounds_exactly():
    """c = 0: a zero residual meets a zero bound."""
    assert bracket_relations(np.zeros((3, 3, 3))) == (True, True)
    assert not tensors._within(np.nan, 1.0, 1, 1e-10)
    assert not tensors._within(0.0, np.nan, 1, 1e-10)
