"""Structure-constant algebras, the trace form, and the doubled model."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqlab import liealg as la
from aqlab.errors import InvalidModel, NotSemisimple
from aqlab.tensors import apply
from conftest import (_well_conditioned, conjugate_structure, so_algebra,
                      su3_algebra)


def doubled_by_block(dm):
    """Operators, base metric and bracket of a doubled model as block and
    Kronecker products; the reference for its index assignment."""
    n = dm.n
    eye, zero = np.eye(n), np.zeros((n, n))
    diag = np.zeros((2, 2, 2))
    diag[0, 0, 0] = diag[1, 1, 1] = 1.0
    return {"I": np.block([[eye, zero], [zero, -eye]]),
            "J": np.block([[zero, eye], [eye, zero]]),
            "K": np.block([[zero, eye], [-eye, zero]]),
            "g0": np.kron(np.eye(2), np.diag(dm.eps)),
            "c2": np.kron(diag, dm.obase.c)}


def bracket_loop(dim, records) -> np.ndarray:
    """Every record put in list form first, a dict by its four keys, then
    added one by one; the reference for the one-pass reader
    ``bracket_tensor``."""
    entries = [[rec.get(k) for k in ("i", "j", "k", "value")]
               if isinstance(rec, dict) else list(rec) for rec in records]
    c = np.zeros((int(dim),) * 3)
    for i, j, k, v in entries:
        i, j, k = int(i) - 1, int(j) - 1, int(k) - 1
        c[i, j, k] += v
        c[j, i, k] -= v
    return c


def as_dict(rec) -> dict:
    return dict(zip(("i", "j", "k", "value"), rec))


def dense_so8_records() -> list:
    """so(8) in a random orthonormal basis, every record (i < j, all k)
    written out: 378 * 28 = 10,584, nearly all of them nonzero."""
    q = np.linalg.qr(np.random.default_rng(8).normal(size=(28, 28)))[0]
    c = conjugate_structure(so_algebra(8).c, q)
    return [[i + 1, j + 1, k + 1, float(c[i, j, k])] for i in range(28)
            for j in range(i + 1, 28) for k in range(28)]


SU2_RECORDS = [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (3, 1, 2, 1.0)]
#: a repeated record and its (j, i, k) reverse, whose sum depends on the order
ORDERED_RECORDS = [(1, 2, 3, 0.1), (1, 2, 3, 0.2), (2, 1, 3, 0.3),
                   (1, 2, 3, 1e-17), (2, 3, 1, 0.7), (3, 2, 1, 0.1)]


class TestRecordReader:
    @pytest.mark.parametrize("records", [
        [list(r) for r in SU2_RECORDS],
        [as_dict(r) for r in SU2_RECORDS],
        SU2_RECORDS,
        [as_dict(SU2_RECORDS[0]), list(SU2_RECORDS[1]), SU2_RECORDS[2]],
        ORDERED_RECORDS,
        [as_dict(r) if n % 2 else list(r) for n, r in enumerate(ORDERED_RECORDS)],
        [(float(i), float(j), float(k), v) for i, j, k, v in ORDERED_RECORDS],
        [{"value": v, "k": k, "j": j * 1.0, "i": i} for i, j, k, v in SU2_RECORDS],
    ], ids=["lists", "dicts", "tuples", "mixed", "ordered", "ordered-mixed",
            "float-indices", "dict-key-order"])
    def test_equals_the_loop_to_the_bit(self, records):
        got = la.bracket_tensor(3, records)
        assert got.tobytes() == bracket_loop(3, records).tobytes()

    def test_dense_so8_equals_the_loop_to_the_bit(self):
        records = dense_so8_records()
        assert len(records) == 10_584
        for form in (records, [as_dict(r) for r in records]):
            got = la.bracket_tensor(28, form)
            assert got.tobytes() == bracket_loop(28, form).tobytes()
        assert la.is_semisimple(la.from_brackets(28, records))

    @pytest.mark.parametrize("rec", [
        [1, 2, 3], [1, 2, 3, 1.0, 5], {"i": 1, "j": 2, "k": 3},
        {"i": 1, "j": 2, "k": 3, "value": None}, [1, None, 3, 1.0], "1231",
        7, None, {1, 2, 3, 4}])
    def test_a_record_of_the_wrong_form_is_named(self, rec):
        with pytest.raises(InvalidModel) as err:
            la.bracket_tensor(3, [SU2_RECORDS[0], rec])
        assert str(err.value) == f"bracket record {rec!r} is not [i, j, k, value]"


class TestModelValidation:
    def test_from_brackets_antisymmetrizes(self):
        m = la.from_brackets(3, [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (3, 1, 2, 1.0)])
        assert m.c[0, 1, 2] == 1.0 and m.c[1, 0, 2] == -1.0

    def test_jacobi_failure_rejected(self):
        entries = [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (3, 1, 2, 1.0),
                   (1, 2, 1, 0.5)]
        with pytest.raises(InvalidModel):
            la.from_brackets(3, entries)

    def test_out_of_range_index(self):
        with pytest.raises(InvalidModel):
            la.from_brackets(2, [(1, 3, 1, 1.0)])

    @pytest.mark.parametrize("dim", [la.MAX_DIM + 1, 10**6, 0, -3, True, 2.5,
                                     float("nan"), float("inf"), "3", None])
    def test_dim_outside_bound_rejected_before_allocation(self, dim):
        with pytest.raises(InvalidModel, match="dim must be an integer"):
            la.from_brackets(dim, [])

    def test_integral_float_dim_accepted(self):
        assert la.from_brackets(3.0, [(1, 2, 3, 1.0), (2, 3, 1, 1.0),
                                      (3, 1, 2, 1.0)]).dim == 3

    def test_bracket_tensor_skips_jacobi(self):
        """The records of a non-Lie bracket give its tensor; only the model
        checks the Jacobi identity."""
        recs = [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (3, 1, 2, 1.0), (1, 2, 1, 0.5)]
        c = la.bracket_tensor(3, recs)
        assert c[0, 1, 0] == 0.5 and c[1, 0, 0] == -0.5
        with pytest.raises(InvalidModel, match="Jacobi"):
            la.LieAlgebraModel(3, c)
        with pytest.raises(InvalidModel, match="dim must be an integer"):
            la.bracket_tensor(la.MAX_DIM + 1, recs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e400])
    def test_non_finite_bracket_value_rejected(self, value):
        with pytest.raises(InvalidModel, match="out of range"):
            la.bracket_tensor(3, [(1, 2, 3, value)])

    def test_integral_index_and_zero_diagonal_accepted(self):
        c = la.bracket_tensor(3, [(1.0, 2, 3, 1), (2, 2, 1, 0.0)])
        assert c[0, 1, 2] == 1.0 and np.abs(c).sum() == 2.0

    @pytest.mark.parametrize("dim", [3.5, True, "3", None, float("nan"),
                                     float("inf")])
    def test_model_rejects_a_non_integral_dim(self, dim):
        with pytest.raises(InvalidModel, match="dim must be an integer"):
            la.LieAlgebraModel(dim, la.su2().c)

    def test_model_keeps_an_integral_float_dim_as_int(self):
        A = la.LieAlgebraModel(3.0, la.su2().c)
        assert A.dim == 3 and type(A.dim) is int

    def test_empty_model_rejected(self):
        with pytest.raises(InvalidModel, match="dim must be at least 1"):
            la.LieAlgebraModel(0, np.zeros((0, 0, 0)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidModel, match="must be 3"):
            la.LieAlgebraModel(3, np.zeros((3, 3, 2)))

    def test_non_antisymmetric_rejected(self):
        c = np.zeros((2, 2, 2))
        c[0, 1, 0] = 1.0  # no [e_2, e_1] counterpart
        with pytest.raises(InvalidModel, match="not antisymmetric"):
            la.LieAlgebraModel(2, c)

    def test_nan_structure_constant_rejected(self):
        """NaN compares false, so a bound written as a failure test let it by."""
        c = la.su2().c.copy()
        c[0, 1, 2] = c[1, 0, 2] = np.nan
        with pytest.raises(InvalidModel):
            la.LieAlgebraModel(3, c)

    def test_doubled_computes_the_trace_form_once(self, monkeypatch):
        calls = []
        real = la.killing_form
        monkeypatch.setattr(la, "killing_form",
                            lambda A: calls.append(A) or real(A))
        la.doubled(la.su2())
        assert len(calls) == 1

    def test_bracket_and_ad(self):
        m = la.su2()
        assert np.allclose(m.bracket([1, 0, 0], [0, 1, 0]), [0, 0, 1])
        ad1 = m.ad([1, 0, 0])
        assert np.allclose(ad1 @ np.array([0, 1, 0]), [0, 0, 1])
        assert np.allclose(ad1 @ np.array([0, 0, 1]), [0, -1, 0])


class TestKillingForm:
    def test_su2_is_twice_identity(self):
        assert np.allclose(la.killing_form(la.su2()), 2 * np.eye(3))

    def test_abelian_is_zero(self):
        flat = la.LieAlgebraModel(3, np.zeros((3, 3, 3)), name="R3")
        assert np.abs(la.killing_form(flat)).max() == 0.0
        assert not la.is_semisimple(flat)

    def test_sl2r_signature(self):
        """With K = -tr(ad ad) the split form has one positive direction.

        Eigenvalues come out as (-8, -4, +4) in the (H, E, F) basis.
        """
        eig = np.linalg.eigvalsh(la.killing_form(la.sl2r()))
        assert np.allclose(sorted(eig), [-8.0, -4.0, 4.0])
        assert la.is_semisimple(la.sl2r())

    def test_ad_invariance(self, rng):
        for model in (la.su2(), la.sl2r(), la.so4()):
            k = la.killing_form(model)
            for _ in range(50):
                x, y, w = rng.normal(size=(3, model.dim))
                lhs = model.bracket(w, x) @ k @ y + x @ k @ model.bracket(w, y)
                assert abs(lhs) < 1e-10 * (1 + np.abs(k).max())

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 6.0))
    @example(0, -5.0)
    @example(0, -6.0)
    def test_semisimplicity_does_not_depend_on_scale_or_basis(self, seed,
                                                              log_t):
        """The decision is a ratio of the trace form's eigenvalues, which
        all scale by t^2: su(2), sl(2, R), so(4) and so(5) stay semisimple
        and u(2), the affine algebra and the Heisenberg algebra stay
        degenerate, rescaled by t and in a random basis."""
        line = la.LieAlgebraModel(1, np.zeros((1, 1, 1)))
        cases = [(la.su2(), True), (la.sl2r(), True), (la.so4(), True),
                 (so_algebra(5), True), (la.direct_sum(la.su2(), line), False),
                 (la.from_brackets(2, [(1, 2, 2, 1.0)]), False),
                 (la.from_brackets(3, [(1, 2, 3, 1.0)]), False)]
        rng = np.random.default_rng(seed)
        t = 10.0 ** log_t
        for A, want in cases:
            s = _well_conditioned(rng, A.dim)
            for c in (t * A.c, conjugate_structure(t * A.c, s)):
                assert la.is_semisimple(la.LieAlgebraModel(A.dim, c)) is want


class TestReshapedProducts:
    """killing_form and lemma2_check against the einsum and tensordot
    expressions they were before, on su(3) and so(5) rebased at random."""

    @pytest.mark.parametrize("make", (su3_algebra, lambda: so_algebra(5)),
                             ids=("su3", "so5"))
    def test_agree_with_the_references(self, make, rng):
        A = make()
        for _ in range(5):
            c = conjugate_structure(A.c, _well_conditioned(rng, A.dim))
            model = la.LieAlgebraModel(A.dim, c)
            scale = A.dim ** 2 * np.abs(c).max() ** 2
            want = -np.einsum("iab,jba->ij", c, c)
            assert np.abs(la.killing_form(model) - want).max() <= 1e-14 * scale
            kinv = np.linalg.inv(want)
            for x in rng.normal(size=(5, A.dim)):
                ref = np.tensordot(apply(c, x).T @ kinv, c, 2)
                got = la.lemma2_check(model, x)
                assert np.abs(got - ref).max() <= 1e-12 * (1 + np.abs(ref).max())


class TestContractionIdentity:
    def test_su2_basis_vector_by_hand(self):
        got = la.lemma2_check(la.su2(), [1.0, 0.0, 0.0])
        assert np.allclose(got, [-1.0, 0.0, 0.0])

    def test_zero_vector(self):
        assert np.abs(la.lemma2_check(la.su2(), np.zeros(3))).max() == 0.0

    @pytest.mark.parametrize("name", ("su2", "sl2r", "so4"))
    def test_random_vectors(self, name, rng):
        model = la.CATALOG[name]()
        for _ in range(50):
            x = rng.normal(size=model.dim)
            assert np.abs(la.lemma2_check(model, x) + x).max() < 1e-10 * (
                1 + np.abs(x).max())

    def test_rejects_degenerate(self):
        flat = la.LieAlgebraModel(2, np.zeros((2, 2, 2)))
        with pytest.raises(NotSemisimple):
            la.lemma2_check(flat, [1.0, 0.0])

    @pytest.mark.parametrize("name", ("su2", "sl2r", "so4"))
    def test_signed_orthonormal_corollary(self, name, rng):
        """sum_i eps_i [[X, f_i], f_i] = -X in a pseudo-orthonormal basis."""
        model, eps, _ = la.pseudo_orthonormalize(la.CATALOG[name]())
        kform = la.killing_form(model)
        assert np.allclose(kform, np.diag(eps), atol=1e-10)
        for _ in range(20):
            x = rng.normal(size=model.dim)
            total = sum(
                eps[i] * model.bracket(model.bracket(x, np.eye(model.dim)[i]),
                                       np.eye(model.dim)[i])
                for i in range(model.dim))
            assert np.abs(total + x).max() < 1e-10 * (1 + np.abs(x).max())


class TestDoubledModel:
    def test_operator_relations(self):
        dm = la.doubled(la.su2())
        eye = np.eye(dm.dim2)
        assert np.array_equal(dm.I @ dm.I, eye)
        assert np.array_equal(dm.J @ dm.J, eye)
        assert np.abs(dm.I @ dm.J + dm.J @ dm.I).max() == 0.0
        assert np.array_equal(dm.K @ dm.K, -eye)

    def test_mixed_factors_commute(self, rng):
        dm = la.doubled(la.su2())
        n = dm.n
        for _ in range(20):
            x = np.concatenate([rng.normal(size=n), np.zeros(n)])
            y = np.concatenate([np.zeros(n), rng.normal(size=n)])
            assert np.abs(dm.bracket2(x, y)).max() == 0.0

    def test_operator_bracket_identities(self, rng):
        """[IX, Y] = [X, IY] = I[X, Y] and J[X, Y] = [JX, JY]."""
        dm = la.doubled(la.su2())
        for _ in range(500):
            x, y = rng.normal(size=(2, dm.dim2))
            bxy = dm.bracket2(x, y)
            assert np.abs(dm.bracket2(dm.I @ x, y) - dm.I @ bxy).max() < 1e-12
            assert np.abs(dm.bracket2(x, dm.I @ y) - dm.I @ bxy).max() < 1e-12
            assert np.abs(dm.bracket2(dm.J @ x, dm.J @ y)
                          - dm.J @ bxy).max() < 1e-12

    def test_orthonormalized_metric_blocks(self):
        for name in ("su2", "sl2r"):
            dm = la.doubled(la.CATALOG[name]())
            assert np.allclose(dm.g0, np.diag(np.concatenate([dm.eps, dm.eps])))

    def test_degenerate_inner_rejected(self):
        """The base metric is the trace form, so a nilpotent base, whose
        trace form is zero, is rejected as the contraction identity
        rejects it."""
        heis = la.from_brackets(3, [(1, 2, 3, 1.0)], name="heis")
        with pytest.raises(NotSemisimple, match="heis: trace form is degenerate"):
            la.doubled(heis)

    def test_abelian_base_rejected(self):
        flat = la.LieAlgebraModel(2, np.zeros((2, 2, 2)), name="R2")
        with pytest.raises(NotSemisimple):
            la.doubled(flat)  # trace form is zero

    @pytest.mark.parametrize("base", [*sorted(la.CATALOG), "so5"])
    def test_index_assignment_equals_block_form(self, base):
        dm = la.doubled(so_algebra(5) if base == "so5" else la.CATALOG[base]())
        for name, want in doubled_by_block(dm).items():
            assert np.array_equal(getattr(dm, name), want), name

    def test_as_piaq_roundtrip(self):
        model = la.doubled(la.su2()).as_piaq()
        assert model.alpha == 1 and model.dim == 6


class TestDirectSum:
    def test_so4_is_block_sum(self):
        so4 = la.so4()
        assert so4.dim == 6
        assert np.abs(so4.c[:3, 3:, :]).max() == 0.0
        assert np.allclose(la.killing_form(so4), 2 * np.eye(6))
