"""Canonical connections of twistor-pair models and their predicates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqlab import liealg as la
from aqlab import piaq as pq
from aqlab import tensors
from aqlab.errors import (
    AqlabError,
    InvalidModel,
    InvalidMu,
    NonLieBracket,
    NotEigenvalue,
    NotTwistor,
    WrongSignature,
)
from aqlab.tensors import post, transport
from conftest import (_well_conditioned, conjugate_structure, random_piaq_model,
                      standard_pair)

ALPHAS = (-1, 1)


@pytest.fixture(scope="module")
def doubled_su2():
    return la.doubled(la.su2()).as_piaq()


def abelian(alpha, dim=4):
    """The zero-bracket model, which is always integrable."""
    return pq.PiAQModel(dim, np.zeros((dim,) * 3), *standard_pair(dim, alpha),
                        alpha)


def holds(M, name, **kw):
    """The verdict of ``predicate_report``."""
    return pq.predicate_report(M, name, **kw)["verdict"]


def nabla_split_by_kron(M):
    """``nabla_split`` with the realified bracket, J and V written as
    Kronecker products (``ring`` the structure constants of R + iR), the
    extension realified on R^2m; the reference for the model's evaluation
    over the extension itself."""
    a, m = float(M.alpha), M.dim
    ring = np.array([[[1.0, 0.0], [0.0, 1.0]],
                     [[0.0, 1.0], [a, 0.0]]])
    c = np.kron(ring, M.c)
    J = np.kron(np.eye(2), M.J)
    V = 0.5 * (np.eye(2 * m) + np.kron([[0.0, a], [1.0, 0.0]], a * M.I))
    H = np.eye(2 * m) - V
    n = (post(V, transport(c, H, V) + post(a * J, transport(c, V, J @ V)))
         + post(H, transport(c, V, H) + post(a * J, transport(c, H, J @ H))))
    return n[:m, :m, :m]


def nijenhuis_stacked(M, F, s, X, Y):
    """The stacked bracket products ``nijenhuis`` wrote out by hand before
    ``tensors.apply_rows``; its reference, bit for bit."""
    d = M.dim
    FX, FY = F @ X, F @ Y
    t = (np.array([X, FX, FX, X]) @ M.c.reshape(d, d * d)).reshape(4, d, d)
    b = (np.array([Y, FY, Y, FY])[:, None] @ t)[:, 0]
    Fb = b[2:] @ F.T
    return s * b[0] + b[1] - Fb[0] - Fb[1]


class TestModelValidation:
    def test_rejects_commuting_pair(self):
        with pytest.raises(InvalidModel):
            pq.PiAQModel(4, np.zeros((4, 4, 4)), np.eye(4), np.eye(4), 1)

    @pytest.mark.parametrize("alpha", [0, 2, -1.5, True, "1", 0.9999999])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(InvalidModel, match="alpha"):
            pq.PiAQModel(4, np.zeros((4, 4, 4)), *standard_pair(4, 1), alpha)

    @pytest.mark.parametrize("dim", [4.9, 4.5, True, "4", None, float("nan"),
                                     float("inf")])
    def test_rejects_a_non_integral_dim(self, dim):
        with pytest.raises(InvalidModel, match="dim must be an integer"):
            pq.PiAQModel(dim, np.zeros((4, 4, 4)), *standard_pair(4, 1), 1)

    def test_keeps_an_integral_float_dim_as_int(self):
        M = pq.PiAQModel(4.0, np.zeros((4, 4, 4)), *standard_pair(4, 1), 1)
        assert M.dim == 4 and type(M.dim) is int

    def test_rejects_empty_model(self):
        with pytest.raises(InvalidModel, match="dim must be at least 1"):
            pq.PiAQModel(0, np.zeros((0, 0, 0)), np.zeros((0, 0)),
                         np.zeros((0, 0)), 1)

    def test_rejects_shape_mismatch(self):
        I, J = standard_pair(4, 1)
        with pytest.raises(InvalidModel, match="shape"):
            pq.PiAQModel(4, np.zeros((4, 4, 3)), I, J, 1)
        with pytest.raises(InvalidModel, match="shape"):
            pq.PiAQModel(2, np.zeros((2, 2, 2)), I, J, 1)

    def test_rejects_asymmetric_bracket(self):
        c = np.zeros((4, 4, 4))
        c[0, 1, 2] = 1.0  # no antisymmetric counterpart
        I, J = standard_pair(4, 1)
        with pytest.raises(InvalidModel):
            pq.PiAQModel(4, c, I, J, 1)

    @pytest.mark.parametrize("entry", ["1", True, 1j, 10**400, None, [1.0]],
                             ids=["str", "bool", "complex", "int-400-digits",
                                  "None", "list"])
    @pytest.mark.parametrize("name", ["I", "J"])
    def test_rejects_an_operator_entry_that_is_no_number(self, name, entry):
        """An entry is taken as given, not converted: a string or a bool is
        no number, nor is a complex or an int past the float range."""
        ops = {key: F.tolist() for key, F in zip("IJ", standard_pair(4, 1))}
        ops[name][0][0] = entry
        with pytest.raises(InvalidModel,
                           match=f"^{name} must be rows of finite numbers$"):
            pq.PiAQModel(4, np.zeros((4, 4, 4)), ops["I"], ops["J"], 1)

    @pytest.mark.parametrize("I", [
        np.eye(4, dtype=bool), np.eye(4, dtype=complex),
        np.array([["1", 0, 0, 0]] * 4, dtype=object), [[1, 0], [0]]],
        ids=["bool-array", "complex-array", "object-array", "ragged"])
    def test_rejects_an_operator_of_no_real_numbers(self, I):
        with pytest.raises(InvalidModel, match="^I must be rows of finite"):
            pq.PiAQModel(4, np.zeros((4, 4, 4)), I, standard_pair(4, 1)[1], 1)

    def test_takes_real_operators_of_any_form_as_floats(self):
        I, J = standard_pair(4, 1)
        for given in (I.astype(int), I.astype(np.float32), I.tolist(),
                      [list(map(np.float64, row)) for row in I],
                      np.array(I.tolist(), dtype=object)):
            M = pq.PiAQModel(4, np.zeros((4, 4, 4)), given, J, 1)
            assert M.I.dtype == float and np.array_equal(M.I, I)

    def test_rejects_nan(self):
        I, J = standard_pair(4, -1)
        with pytest.raises(InvalidModel, match="^I must be rows of finite numbers$"):
            pq.PiAQModel(4, np.zeros((4, 4, 4)), np.full((4, 4), np.nan), J, -1)
        with pytest.raises(InvalidModel, match="^structure tensor must be an array of finite numbers$"):
            pq.PiAQModel(4, np.full((4, 4, 4), np.nan), I, J, -1)

    def test_jacobi_flag(self, rng):
        m = random_piaq_model(rng, 1)
        assert m.is_lie
        c = np.zeros((4, 4, 4))
        c[0, 1, 2] = c[1, 2, 0] = c[2, 0, 1] = 1.0
        c -= c.transpose(1, 0, 2)
        c[0, 3, 0] = 1.0
        c[3, 0, 0] = -1.0
        bad = pq.PiAQModel(4, c, *standard_pair(4, 1), 1)
        assert not bad.is_lie
        with pytest.warns(NonLieBracket):
            pq.curvature(bad, np.eye(4)[0], np.eye(4)[1], np.eye(4)[2])


class TestCanonicalConnection:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_abelian_connection_vanishes(self, alpha):
        m = abelian(alpha)
        assert np.abs(m.nabla).max() == 0.0

    def test_doubled_connection_vanishes_exactly(self, doubled_su2):
        assert np.abs(doubled_su2.nabla).max() == 0.0
        assert np.abs(doubled_su2.torsion_tensor + doubled_su2.c).max() == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("kind", ("abelian", "u2", "gl2"))
    def test_two_evaluations_agree(self, alpha, kind, rng):
        for _ in range(5):
            m = random_piaq_model(rng, alpha, kind)
            for _ in range(6):
                x, y = rng.normal(size=(2, 4))
                direct = pq.canonical_connection(m, x, y)
                split = pq.canonical_connection_split(m, x, y)
                assert np.abs(direct - split).max() < 1e-11 * (
                    1 + np.abs(direct).max())

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("kind", ("abelian", "u2", "gl2"))
    def test_projector_tensor_equals_eight_term_tensor(self, alpha, kind, rng):
        for _ in range(20):
            m = random_piaq_model(rng, alpha, kind)
            split = m.nabla_split
            assert "nabla" not in vars(m)  # built without the eight-term tensor
            assert np.abs(split - m.nabla).max() <= 1e-12 * max(
                1.0, np.abs(m.nabla).max())

    @pytest.mark.parametrize("name", sorted(la.CATALOG))
    def test_projector_tensor_on_doubled_catalog(self, name):
        m = la.doubled(la.CATALOG[name]()).as_piaq()
        split = m.nabla_split
        assert "nabla" not in vars(m)
        assert np.abs(split - m.nabla).max() <= 1e-12 * max(
            1.0, np.abs(m.nabla).max())

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("kind", ("abelian", "u2", "gl2"))
    def test_block_assembly_equals_kron_form(self, alpha, kind, rng):
        for _ in range(10):
            m = random_piaq_model(rng, alpha, kind)
            kron = nabla_split_by_kron(m)
            assert np.abs(m.nabla_split - kron).max() <= 1e-13 * max(
                1.0, np.abs(kron).max())

    @pytest.mark.parametrize("name", sorted(la.CATALOG))
    def test_block_assembly_equals_kron_form_on_doubled_catalog(self, name):
        m = la.doubled(la.CATALOG[name]()).as_piaq()
        assert np.array_equal(m.nabla_split, nabla_split_by_kron(m))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_structure_operators_are_parallel(self, alpha, rng):
        for _ in range(10):
            m = random_piaq_model(rng, alpha)
            n = m.nabla
            scale = 1e-10 * (1 + np.abs(n).max())
            for f in (m.I, m.J):
                lhs = np.einsum("abk,lk->abl", n, f)     # nabla_a (F e_b)
                rhs = np.einsum("jb,ajl->abl", f, n)     # F nabla_a e_b
                assert np.abs(lhs - rhs).max() < scale

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_torsion_symmetry(self, alpha, rng):
        for _ in range(10):
            m = random_piaq_model(rng, alpha)
            s = m.torsion_tensor
            lhs = np.einsum("ia,ijk->ajk", m.I, s)   # S(IX, Y)
            rhs = np.einsum("jb,ajk->abk", m.I, s)   # S(X, IY)
            assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(s).max())

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_torsion_antisymmetric_and_bilinear(self, alpha, rng):
        m = random_piaq_model(rng, alpha)
        for _ in range(20):
            x, y = rng.normal(size=(2, 4))
            s = tensors.apply(m.torsion_tensor, x, y)
            sym = s + tensors.apply(m.torsion_tensor, y, x)
            assert np.abs(sym).max() < 1e-10 * (1 + np.abs(s).max())


class TestCurvature:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_abelian_curvature_vanishes(self, alpha):
        assert np.abs(abelian(alpha).curvature_tensor).max() == 0.0

    def test_doubled_velocity_flat_but_torsive(self, doubled_su2):
        assert np.abs(doubled_su2.curvature_tensor).max() == 0.0
        assert np.abs(doubled_su2.torsion_tensor).max() > 0.1
        assert not holds(doubled_su2, "integrable")

    def test_linearity(self, rng):
        m = random_piaq_model(rng, -1)
        x, y, z, w = rng.normal(size=(4, 4))
        a, b = rng.normal(size=2)
        lhs = pq.curvature(m, x, y, a * z + b * w)
        rhs = a * pq.curvature(m, x, y, z) + b * pq.curvature(m, x, y, w)
        assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(lhs).max())
        assert np.abs(pq.curvature(m, x, y, z)
                      + pq.curvature(m, y, x, z)).max() < 1e-10


class TestNijenhuis:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_abelian_vanishes(self, alpha):
        m = abelian(alpha)
        x, y = np.eye(4)[0], np.eye(4)[1]
        assert np.abs(pq.nijenhuis(m, m.I, x, y)).max() == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_operator_shift_identity(self, alpha, rng):
        """F N_F(X, Y) + N_F(FX, Y) = 0."""
        for _ in range(5):
            m = random_piaq_model(rng, alpha)
            for f in (m.I, m.J):
                for _ in range(5):
                    x, y = rng.normal(size=(2, 4))
                    lhs = f @ pq.nijenhuis(m, f, x, y) + pq.nijenhuis(m, f, f @ x, y)
                    assert np.abs(lhs).max() < 1e-10 * (1 + np.abs(f @ x).max())

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_torsion_expression(self, alpha, rng):
        """N_F = -s S(X, Y) - S(FX, FY) + F S(FX, Y) + F S(X, FY), s = F^2."""
        for _ in range(5):
            m = random_piaq_model(rng, alpha)
            for f, s in ((m.I, alpha), (m.J, alpha), (m.K, -1.0)):
                for _ in range(5):
                    x, y = rng.normal(size=(2, 4))
                    fx, fy = f @ x, f @ y
                    S = m.torsion_tensor
                    want = (-s * tensors.apply(S, x, y)
                            - tensors.apply(S, fx, fy)
                            + f @ tensors.apply(S, fx, y)
                            + f @ tensors.apply(S, x, fy))
                    got = pq.nijenhuis(m, f, x, y)
                    assert np.abs(got - want).max() < 1e-11 * (
                        1 + np.abs(want).max())

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_stacked_brackets_match_the_four_bracket_formula(self, alpha, rng):
        """s[X, Y] + [FX, FY] - F[FX, Y] - F[X, FY] bracket by bracket, to
        1e-12: nijenhuis evaluates the four brackets in one product."""
        models = [random_piaq_model(rng, alpha) for _ in range(5)]
        if alpha == 1:
            models.append(la.doubled(la.so4()).as_piaq())
        for m in models:
            for f, s in ((m.I, alpha), (m.J, alpha), (m.K, -1.0)):
                for _ in range(5):
                    x, y = rng.normal(size=(2, m.dim))
                    fx, fy = f @ x, f @ y
                    want = (s * m.bracket(x, y) + m.bracket(fx, fy)
                            - f @ m.bracket(fx, y) - f @ m.bracket(x, fy))
                    got = pq.nijenhuis(m, f, x, y)
                    assert np.abs(got - want).max() <= 1e-12 * (
                        1 + np.abs(want).max())

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_row_kernel_equals_stacked_products(self, alpha, rng):
        for kind in ("abelian", "u2", "gl2"):
            m = random_piaq_model(rng, alpha, kind)
            for f, s in ((m.I, alpha), (m.J, alpha), (m.K, -1.0)):
                x, y = rng.normal(size=(2, m.dim))
                assert np.array_equal(pq.nijenhuis(m, f, x, y),
                                      nijenhuis_stacked(m, f, s, x, y))

    def test_doubled_principal_operator_integrable(self, doubled_su2, rng):
        m = doubled_su2
        for _ in range(20):
            x, y = rng.normal(size=(2, m.dim))
            assert np.abs(pq.nijenhuis(m, m.I, x, y)).max() < 1e-12

    def test_rejects_non_twistor(self, rng):
        m = random_piaq_model(rng, 1)
        with pytest.raises(NotTwistor):
            pq.nijenhuis(m, np.diag([1.0, 2.0, 1.0, 1.0]), np.eye(4)[0],
                         np.eye(4)[1])

    def test_rejects_nan_operator(self, rng):
        m = random_piaq_model(rng, 1)
        with pytest.raises(NotTwistor):
            pq.nijenhuis(m, np.full((4, 4), np.nan), np.eye(4)[0], np.eye(4)[1])


class TestPredicates:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_abelian_everything_holds(self, alpha):
        m = abelian(alpha)
        assert holds(m, "integrable")
        assert holds(m, "semiholonomic")
        if alpha == 1:
            assert holds(m, "three_web")
            assert holds(m, "involutive", f_name="I", lam=1)
            assert holds(m, "involutive", f_name="J", lam=-1)
        else:
            assert holds(m, "involutive", f_name="I", lam="i")
            assert holds(m, "involutive", f_name="J", lam="-i")
        assert holds(m, "involutive", f_name="K", lam="i")
        assert holds(m, "isoclinic_geodesic", mu=0.5)

    def test_doubled_profile(self, doubled_su2):
        m = doubled_su2
        assert not holds(m, "integrable")
        assert holds(m, "semiholonomic")
        assert holds(m, "three_web")
        assert holds(m, "involutive", f_name="I", lam=1)
        assert holds(m, "involutive", f_name="I", lam=-1)
        assert holds(m, "involutive", f_name="J", lam=1)   # diagonal factor
        assert not holds(m, "involutive", f_name="J", lam=-1)
        assert not holds(m, "involutive", f_name="K", lam="i")
        assert not holds(m, "isoclinic_geodesic", mu=0.5)

    def test_eigenvalue_validation(self, doubled_su2):
        with pytest.raises(NotEigenvalue):
            holds(doubled_su2, "involutive", f_name="K", lam=1)
        with pytest.raises(NotEigenvalue):
            holds(doubled_su2, "involutive", f_name="I", lam="i")
        with pytest.raises(NotEigenvalue):
            holds(doubled_su2, "involutive", f_name="Q", lam=1)

    def test_invalid_mu(self, doubled_su2):
        with pytest.raises(InvalidMu):
            holds(doubled_su2, "isoclinic_geodesic", mu=1.0)
        with pytest.raises(InvalidMu):
            holds(doubled_su2, "isoclinic_geodesic", mu=-1.0)

    def test_missing_mu_names_the_slope(self, doubled_su2):
        with pytest.raises(InvalidMu, match=r"needs the slope \(--mu\)"):
            pq.predicate_report(doubled_su2, "isoclinic_geodesic")

    def test_three_web_needs_split_signature(self, rng):
        with pytest.raises(WrongSignature):
            holds(random_piaq_model(rng, -1), "three_web")

    def test_random_bracket_is_negative_control(self, rng):
        """Generic brackets break the web identities."""
        failures = 0
        for _ in range(10):
            m = random_piaq_model(rng, 1, "u2")
            if not holds(m, "semiholonomic") or not holds(m, "three_web"):
                failures += 1
        assert failures >= 8

    def test_trivial_plane_model_integrable(self):
        m = abelian(1, dim=2)
        assert holds(m, "integrable")


def random_bracket_model(rng, dim, scale):
    """A twistor-pair model on a random antisymmetric bracket of the given
    size: its curvature (quadratic in the bracket) dominates the torsion
    for a large scale and is dominated by it for a small one.  A relative
    1e-14 of noise makes the ties R[a, b] = -R[b, a] inexact."""
    x = scale * rng.normal(size=(dim,) * 3)
    c = (x - x.transpose(1, 0, 2)) * (1.0 + 1e-14 * rng.normal(size=x.shape))
    return pq.PiAQModel(dim, c, *standard_pair(dim, -1), -1)


class TestPredicateReport:
    @pytest.mark.parametrize("slab_floats", [tensors.SLAB_FLOATS, 64])
    @pytest.mark.parametrize("dim,scale,worst", [
        (4, 10.0, "curvature"), (20, 10.0, "curvature"), (20, 0.05, "torsion")])
    def test_streamed_integrable_matches_dense(self, rng, monkeypatch,
                                               slab_floats, dim, scale, worst):
        """Residual and witness of the slab-wise verdict against ``_witness``
        on the dense defect; with 64-float slabs every first index is its
        own slab, so the tie R[a, b] = -R[b, a] spans two slabs."""
        monkeypatch.setattr(tensors, "SLAB_FLOATS", slab_floats)
        M = random_bracket_model(rng, dim, scale)
        ds, dr = np.abs(M.torsion_tensor), np.abs(M.curvature_tensor)
        defect = ds if worst == "torsion" else dr
        assert (ds.max() >= dr.max()) == (worst == "torsion")
        rep = pq.predicate_report(M, "integrable")
        assert rep == {"verdict": False, "residual": float(defect.max()),
                       "witness": pq._witness(defect)}

    def test_semiholonomic_defect_computed_once(self, monkeypatch):
        """semiholonomic, three_web and the isoclinic precondition all read
        the model's one semiholonomic defect."""
        calls = []
        inner = pq._semiholonomic_defect
        monkeypatch.setattr(pq, "_semiholonomic_defect",
                            lambda M: calls.append(M) or inner(M))
        M = la.doubled(la.su2()).as_piaq()
        for name, kw in (("semiholonomic", {}), ("three_web", {}),
                         ("isoclinic_geodesic", {"mu": 0.5})):
            pq.predicate_report(M, name, **kw)
        assert calls == [M]

    def test_verdict_with_witness(self, doubled_su2):
        rep = pq.predicate_report(doubled_su2, "integrable")
        assert rep["verdict"] is False
        assert rep["residual"] > 0.1
        assert len(rep["witness"]) == 2

    def test_true_verdict_has_no_witness(self, doubled_su2):
        rep = pq.predicate_report(doubled_su2, "three_web")
        assert rep["verdict"] is True
        assert "witness" not in rep

    def test_involutive_report_requires_operator(self, doubled_su2):
        with pytest.raises(NotEigenvalue):
            pq.predicate_report(doubled_su2, "involutive")

    @pytest.mark.parametrize("name,kw,stray", [
        ("three_web", {"mu": 0.5}, "--mu"),
        ("semiholonomic", {"lam": "1"}, "--eigenvalue"),
        ("integrable", {"f_name": "K", "lam": "i"}, "--operator or --eigenvalue"),
        ("isoclinic_geodesic", {"mu": 0.5, "f_name": "I"}, "--operator"),
        ("involutive", {"f_name": "J", "lam": "1", "mu": 0.5}, "--mu"),
    ])
    def test_keyword_of_another_predicate_is_refused(self, doubled_su2, name,
                                                     kw, stray):
        """A keyword the predicate does not read is refused where the verdict
        is decided, in the words of the CLI flags, not ignored."""
        with pytest.raises(AqlabError) as info:
            pq.predicate_report(doubled_su2, name, **kw)
        assert type(info.value) is AqlabError
        assert str(info.value) == f"--predicate {name} takes no {stray}"

    def test_unknown_predicate(self, doubled_su2):
        with pytest.raises(InvalidModel, match="unknown predicate"):
            pq.predicate_report(doubled_su2, "holonomic")

    @pytest.mark.parametrize("lam", ["2i", "j", "one"])
    def test_unrecognized_eigenvalue_literal(self, doubled_su2, lam):
        with pytest.raises(NotEigenvalue, match="unrecognized"):
            pq.predicate_report(doubled_su2, "involutive", lam=lam, f_name="I")

    def test_isoclinic_report(self, doubled_su2):
        rep = pq.predicate_report(doubled_su2, "isoclinic_geodesic", mu=0.5)
        assert rep["verdict"] is False and rep["residual"] > 0.01

    def test_witness_is_first_of_rounding_ties(self):
        defect = np.zeros((3, 3, 2))
        defect[2, 0, 1] = 1.0
        defect[0, 1, 0] = 1.0 - 1e-15  # the same maximum up to rounding
        assert pq._witness(defect) == [0, 1]
        defect[0, 1, 0] = 1.0 - 1e-9  # a smaller entry, not a tie
        assert pq._witness(defect) == [2, 0]

    @pytest.mark.parametrize("base", [la.su2, la.so4])
    @pytest.mark.parametrize("seed", range(4))
    def test_witness_on_conjugated_doubled_models(self, base, seed):
        """Antisymmetric pairs tie on doubled models in a random basis; the
        report names the first of them, whatever rounding left largest."""
        A = la.direct_sum(base(), base())
        t = _well_conditioned(np.random.default_rng(seed), A.dim)
        tinv = np.linalg.inv(t)
        I, J = standard_pair(A.dim, 1)
        M = pq.PiAQModel(A.dim, conjugate_structure(A.c, t), tinv @ I @ t,
                         tinv @ J @ t, 1)
        for name, kw in (("integrable", {}), ("isoclinic_geodesic", {"mu": 0.3})):
            defect = (np.abs(M.torsion_tensor) if name == "integrable"
                      else pq._DEFECTS[name](M, **kw))
            ties = np.argwhere(defect >= (1.0 - 1e-9) * defect.max())
            assert len(ties) >= 2
            rep = pq.predicate_report(M, name, **kw)
            assert rep["witness"] == ties[0][:-1].tolist()


def applicable(M):
    """(name, keywords) of every predicate M admits: each operator with each
    of its eigenvalues, the web in the split signature only."""
    out = [("integrable", {}), ("semiholonomic", {}),
           ("isoclinic_geodesic", {"mu": 0.5})]
    if M.alpha == 1:
        out.append(("three_web", {}))
    for f_name, square in (("I", M.alpha), ("J", M.alpha), ("K", -1)):
        for lam in ((1, -1) if square == 1 else ("i", "-i")):
            out.append(("involutive", {"f_name": f_name, "lam": lam}))
    return out


def verdicts(M) -> list:
    """The verdict of every applicable predicate, or the name of the error
    it raises (an isoclinic slope on a model that is not semiholonomic)."""
    out = []
    for name, kw in applicable(M):
        try:
            out.append(holds(M, name, **kw))
        except AqlabError as exc:
            out.append(type(exc).__name__)
    return out


def rescaled(M, t, s=None):
    """M with its bracket scaled by t, in the basis of the columns of s."""
    c, I, J = t * M.c, M.I, M.J
    if s is not None:
        sinv = np.linalg.inv(s)
        c, I, J = conjugate_structure(c, s), sinv @ I @ s, sinv @ J @ s
    return pq.PiAQModel(M.dim, c, I, J, M.alpha)


class TestRescaling:
    """Every defect is homogeneous in the bracket (torsion-type of degree 1,
    curvature of degree 2), and so is its bound: no verdict moves when the
    bracket is rescaled by t or the basis changed."""

    @staticmethod
    def models(rng):
        M = la.doubled(la.su2()).as_piaq()
        E = rng.normal(size=M.c.shape)
        perturbed = pq.PiAQModel(M.dim, M.c + 1e-6 * (E - E.transpose(1, 0, 2)),
                                 M.I, M.J, 1)
        return [M, perturbed, *(random_piaq_model(rng, alpha, kind)
                                for kind in ("u2", "gl2", "abelian")
                                for alpha in ALPHAS)]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 6.0))
    @example(0, 6.0)
    @example(0, -5.0)
    def test_verdicts_do_not_depend_on_scale_or_basis(self, seed, log_t):
        rng = np.random.default_rng(seed)
        for M in self.models(rng):
            want = verdicts(M)
            assert verdicts(rescaled(M, 10.0 ** log_t)) == want
            s = _well_conditioned(rng, M.dim)
            assert verdicts(rescaled(M, 10.0 ** log_t, s)) == want

    def test_perturbed_doubled_su2_fails_at_every_scale(self):
        """The bracket of doubled su(2) off by 1e-6: its semiholonomic
        residual grows like t and stays above PRED_TOL t |c|."""
        M = self.models(np.random.default_rng(0))[1]
        for t in (1e-8, 1e-5, 1.0, 1e6):
            rep = pq.predicate_report(rescaled(M, t), "semiholonomic")
            assert rep["verdict"] is False
            assert rep["residual"] > 1e3 * pq.PRED_TOL * t * M._c_top
