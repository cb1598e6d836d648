"""One rule per kind of caller input.

Every number a caller passes to the library is read by
``scalars.is_number`` and every array by ``tensors.real_array``; a refused
value raises the caller's typed error (``InvalidModel``, ``Degenerate``,
``InvalidMu``, ``NotAQStructure``, ``NotEigenvalue``, ``NotTwistor``) or,
for a vector or matrix argument, ``InvalidInput`` naming it.  Nothing
raises a bare ``TypeError`` and nothing only warns.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqlab import family
from aqlab import fourdim as fd
from aqlab import gxg
from aqlab import liealg as la
from aqlab import piaq as pq
from aqlab import quat as qt
from aqlab import spinor as sp
from aqlab.errors import (AqlabError, Degenerate, InvalidInput, InvalidModel,
                          InvalidMu, NotAQStructure, NotEigenvalue)
from aqlab.scalars import is_number
from aqlab.tensors import real_array
from conftest import standard_pair

NAN, INF = float("nan"), float("inf")
SU2 = la.su2()
DSU2 = la.doubled(SU2)
MODEL = DSU2.as_piaq()
FAM = gxg.MetricFamily(DSU2, 0.1, 0.2)
X6 = np.arange(1.0, 7.0)
I4, J4 = standard_pair(4, -1)


def strict(call):
    """call() with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


# ---------------------------------------------------------------------------
# The probes that gave wrong, silent or untyped results
# ---------------------------------------------------------------------------

PROBES = {
    "mu nan": (InvalidMu, lambda: pq.predicate_report(
        MODEL, "isoclinic_geodesic", mu=NAN)),
    "mu 1j": (InvalidMu, lambda: pq.predicate_report(
        MODEL, "isoclinic_geodesic", mu=1j)),
    "mu inf": (InvalidMu, lambda: pq.predicate_report(
        MODEL, "isoclinic_geodesic", mu=INF)),
    "mu str": (InvalidMu, lambda: pq.predicate_report(
        MODEL, "isoclinic_geodesic", mu="x")),
    "mu bool": (InvalidMu, lambda: pq.predicate_report(
        MODEL, "isoclinic_geodesic", mu=True)),
    "lam nan": (NotEigenvalue, lambda: pq.predicate_report(
        MODEL, "involutive", f_name="J", lam=NAN)),
    "lam complex nan": (NotEigenvalue, lambda: pq.predicate_report(
        MODEL, "involutive", f_name="J", lam=complex(NAN, 0.0))),
    "lam bool": (NotEigenvalue, lambda: pq.predicate_report(
        MODEL, "involutive", f_name="J", lam=True)),
    "lam object": (NotEigenvalue, lambda: pq.predicate_report(
        MODEL, "involutive", f_name="J", lam=object())),
    "operator int": (NotEigenvalue, lambda: pq.predicate_report(
        MODEL, "involutive", f_name=1, lam=1)),
    "family str": (Degenerate, lambda: gxg.MetricFamily(DSU2, "0.1", 0.2)),
    "family bool": (Degenerate, lambda: gxg.MetricFamily(DSU2, True, 0.2)),
    "family complex": (Degenerate, lambda: gxg.MetricFamily(DSU2, 0.1 + 0j, 0.2)),
    "family array": (Degenerate, lambda: gxg.MetricFamily(
        DSU2, np.array([0.1]), 0.2)),
    "complex c": (InvalidModel, lambda: la.LieAlgebraModel(3, SU2.c * (1 + 1j))),
    "inf in c": (InvalidModel, lambda: la.LieAlgebraModel(
        3, np.where(SU2.c == 1.0, INF, SU2.c))),
    "complex I, J": (InvalidModel, lambda: pq.PiAQModel(
        4, np.zeros((4, 4, 4)), I4 * (1 + 0j), J4 * (1 + 0j), -1)),
    "complex vector": (InvalidInput, lambda: FAM.ricci_closed(1j * X6)),
    "complex orbit vector": (NotAQStructure, lambda: sp.orbit_dimension(
        I4, J4, 1j * np.ones(4))),
    "ragged vectors": (InvalidInput, lambda: FAM.levi_civita(X6, [X6])),
    "sweep resolution str": (gxg.InvalidResolution,
                             lambda: gxg.check_sweep_resolution("0.1")),
    "sweep resolution bool": (gxg.InvalidResolution,
                              lambda: gxg.check_sweep_resolution(True)),
    "residuals on the circle": (Degenerate, lambda: gxg.einstein_residuals(
        [0.0, 1.0], [0.5, 0.0])),
    "residuals of strings": (InvalidInput, lambda: gxg.einstein_residuals(
        np.array(["0.1", "0.2"]), 0.3)),
    "residuals that do not broadcast": (InvalidInput, lambda: gxg.einstein_residuals(
        [0.1, 0.2, 0.3], [0.1, 0.2])),
    "operator name": (InvalidInput, lambda: FAM.nabla_endo_closed(5, X6, X6)),
    "NaN in a bracket": (InvalidInput, lambda: SU2.bracket([NAN, 0, 0], [0, 1, 0])),
    "short bracket vector": (InvalidInput, lambda: SU2.bracket([1, 0], [0, 1, 0])),
    "string in a bracket": (InvalidInput, lambda: SU2.bracket(["1", 0, 0], [0, 1, 0])),
    "complex ad": (InvalidInput, lambda: SU2.ad([1j, 0, 0])),
    "short bracket2 vector": (InvalidInput, lambda: DSU2.bracket2(X6[:5], X6)),
    "inf in a piaq bracket": (InvalidInput, lambda: MODEL.bracket(
        np.where(X6 == 1.0, INF, X6), X6)),
    "records not iterable": (InvalidModel, lambda: la.bracket_tensor(3, None)),
    "records an int": (InvalidModel, lambda: la.bracket_tensor(3, 5)),
    "ragged rows": (InvalidInput, lambda: real_array(
        [np.zeros((2, 2)), np.zeros((2, 3))], None, "rows")),
    "two-form of five components": (InvalidInput, lambda: fd.TwoForm4(
        (1.0, 2.0, 3.0, 4.0, 5.0))),
    "orientation 0": (InvalidInput, lambda: fd.canonical_aq_basis(
        fd.Metric4(1), 0)),
    "spin value of six floats": (InvalidInput, lambda: qt.SpinMatrix(range(6), 1)),
}


@pytest.mark.parametrize("error,call", PROBES.values(), ids=PROBES)
def test_a_refused_input_raises_its_typed_error(error, call):
    with pytest.raises(error):
        strict(call)


@pytest.mark.parametrize("probe", ["two-form of five components", "orientation 0",
                                   "spin value of six floats"])
def test_a_shape_fault_is_still_a_value_error(probe):
    """InvalidInput subclasses ValueError, which these raised before it."""
    with pytest.raises(ValueError):
        PROBES[probe][1]()


@pytest.mark.parametrize("form", [np.array, np.ndarray.tolist,
                                  lambda a: a.astype(object)],
                         ids=["array", "list", "object-array"])
@pytest.mark.parametrize("bad", [NAN, INF])
def test_a_non_finite_operator_entry_has_one_message(form, bad):
    I = I4.copy()
    I[1, 2] = bad
    with pytest.raises(InvalidModel, match="^I must be rows of finite numbers$"):
        pq.PiAQModel(4, np.zeros((4, 4, 4)), form(I), J4, -1)


@pytest.mark.parametrize("name,X", [
    ("Y", [1.0, 2.0, 3.0, 4.0, 5.0, "6"]), ("Y", X6[:5]), ("X", None)])
def test_invalid_input_names_the_refused_vector(name, X):
    args = (X6, X) if name == "Y" else (X, X6)
    with pytest.raises(InvalidInput, match=f"^{name} "):
        pq.canonical_connection(MODEL, *args)


def test_einstein_residuals_broadcast_like_the_formulas():
    lam, mu = np.meshgrid([0.0, 0.1, -0.3], [0.2, -0.5], indexing="ij")
    off, aniso = gxg.einstein_residuals(lam, mu)
    assert off.shape == aniso.shape == (3, 2)
    assert np.array_equal(gxg.einstein_residuals(lam[:, :1], mu[0])[1], aniso)
    point = gxg.einstein_residuals(0.1, 0.2)
    assert np.ndim(point[0]) == 0 and point == (off[1, 0], aniso[1, 0])


@pytest.mark.parametrize("lam", [1j, -1j, np.complex64(1j), np.complex128(-1j)])
def test_a_numpy_complex_eigenvalue_is_a_number(lam):
    assert strict(lambda: pq.predicate_report(
        MODEL, "involutive", f_name="K", lam=lam))["verdict"] in (True, False)


def test_operator_names_are_read_as_strings_only():
    assert np.array_equal(FAM.nabla_endo_closed("i", X6, X6),
                          FAM.nabla_endo_closed("I", X6, X6))
    for name in (None, 1, b"I", "calj"):
        with pytest.raises(InvalidInput, match="unknown operator name"):
            FAM.nabla_endo_closed(name, X6, X6)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_finite_entries_whose_squares_overflow_are_read(dtype):
    X = np.full(6, np.finfo(dtype).max, dtype)[::-1]
    assert np.array_equal(strict(lambda: real_array(X, (6,), "X")), X)
    X[2] = np.inf
    with pytest.raises(InvalidInput, match="^X must be a vector of finite numbers$"):
        real_array(X, (6,), "X")


def test_finiteness_is_decided_without_blas(monkeypatch):
    """A BLAS call threads a large array, and the threads cost more than
    the check; ``real_array`` reads finiteness with no dot product."""
    def refuse(*args):
        raise AssertionError("real_array called BLAS")

    monkeypatch.setattr(np, "vdot", refuse)
    monkeypatch.setattr(np, "dot", refuse)
    grid = np.linspace(-1.0, 1.0, 31397)
    assert real_array(grid, None, "lam") is grid
    grid[100] = NAN
    with pytest.raises(InvalidInput, match="^lam must be an array of finite numbers$"):
        real_array(grid, None, "lam")


def test_exact_int_and_float_are_decided_by_type():
    assert is_number(1) and is_number(-2.5) and is_number(10**308)
    assert not (is_number(10**309) or is_number(NAN) or is_number(-INF))
    assert is_number(np.float32(2.0)) and is_number(Fraction(1, 3))
    assert not (is_number(True) or is_number(np.True_) or is_number(1j)
                or is_number("1") or is_number(np.array(1.0)))


# ---------------------------------------------------------------------------
# Every entry point under every kind of value
# ---------------------------------------------------------------------------

FINITE = st.floats(-4.0, 4.0, allow_nan=False)
#: entries no array of numbers holds
BAD_ENTRIES = st.sampled_from([NAN, INF, -INF, 1j, complex(1.0, 0.0), True,
                               np.True_, "1", None, object(), 10**400, [1.0],
                               np.float64(NAN)])
#: numbers and the values that are none, by is_number
NUMBERS = st.one_of(
    FINITE, st.integers(-4, 4),
    st.sampled_from([np.float64(0.3), np.int64(2), Fraction(1, 3)]),
    BAD_ENTRIES, st.sampled_from([np.array(0.1), np.array([0.1]), False]))


def _with_entry(a, e):
    """a as nested lists with its first entry e."""
    rows = inner = a.tolist()
    for _ in range(a.ndim - 1):
        inner = inner[0]
    inner[0] = e
    return rows


def _ragged(a):
    rows = a.tolist()
    if a.ndim == 1:
        return [rows[0], rows[1:]]
    rows[0] = rows[0][:-1]
    return rows


#: how a valid array is passed: the first seven hold it, the rest do not
FORMS = {
    "float": lambda a, e: a,
    "list": lambda a, e: a.tolist(),
    "int": lambda a, e: np.rint(a).astype(int),
    "object": lambda a, e: a.astype(object),
    "float32": lambda a, e: a.astype(np.float32),
    "view": lambda a, e: np.repeat(a, 2, axis=-1)[..., ::2],
    "fortran": lambda a, e: np.asfortranarray(a),
    "complex": lambda a, e: a.astype(complex),
    "bool": lambda a, e: a != 0,
    "str": lambda a, e: a.astype(str),
    "bad entry": lambda a, e: _with_entry(a, e),
    "non-finite": lambda a, e: np.where(np.arange(a.size).reshape(a.shape) == 0,
                                        NAN, a),
    "0-d": lambda a, e: np.array(1.0),
    "scalar": lambda a, e: 1.0,
    "none": lambda a, e: None,
    "ragged": lambda a, e: _ragged(a),
    "short": lambda a, e: a[:-1],
    "extra axis": lambda a, e: a[..., None],
    "empty": lambda a, e: np.zeros((0,) * a.ndim),
}


HOLDING = list(FORMS)[:7]


def arrays(base):
    """``base`` (an array or a strategy of arrays) in one of ``FORMS``, half
    of the time one that holds it."""
    bases = base if isinstance(base, st.SearchStrategy) else st.just(base)
    forms = st.one_of(st.sampled_from(HOLDING),
                      st.sampled_from(list(FORMS)[7:]))
    return st.builds(lambda b, form, e: FORMS[form](b, e), bases, forms,
                     BAD_ENTRIES)


def vectors(d):
    return arrays(st.lists(FINITE, min_size=d, max_size=d).map(np.array))


NAMES = st.sampled_from(["I", "J", "K", "calJ", "i", "x", None, 1, object()])
EIGENVALUES = st.booleans().flatmap(lambda named: st.sampled_from(
    [1, -1, 1.0, "1", "-1", "i", "-i", 1j, -1j, complex(NAN, 0.0)]) if named
    else NUMBERS)

#: name: (call, strategies of its arguments)
ENTRIES = {
    "PiAQModel": (lambda c, I, J, alpha: pq.PiAQModel(6, c, I, J, alpha),
                  [arrays(MODEL.c), arrays(MODEL.I), arrays(MODEL.J),
                   st.booleans().flatmap(lambda one: st.just(1) if one
                                         else NUMBERS)]),
    "LieAlgebraModel": (lambda c: la.LieAlgebraModel(3, c), [arrays(SU2.c)]),
    "LieAlgebraModel.bracket": (SU2.bracket, [vectors(3)] * 2),
    "LieAlgebraModel.ad": (SU2.ad, [vectors(3)]),
    "bracket2": (DSU2.bracket2, [vectors(6)] * 2),
    "PiAQModel.bracket": (MODEL.bracket, [vectors(6)] * 2),
    "orbit_dimension": (sp.orbit_dimension,
                        [arrays(I4), arrays(J4), vectors(4)]),
    "lemma2_check": (lambda X: la.lemma2_check(SU2, X), [vectors(3)]),
    "MetricFamily": (lambda lam, mu: gxg.MetricFamily(DSU2, lam, mu),
                     [NUMBERS, NUMBERS]),
    "einstein_constant": (family.einstein_constant, [NUMBERS, NUMBERS]),
    "check_sweep_resolution": (gxg.check_sweep_resolution, [NUMBERS]),
    "einstein_residuals": (gxg.einstein_residuals, [vectors(3), vectors(3)]),
    "levi_civita": (FAM.levi_civita, [vectors(6)] * 2),
    "levi_civita_koszul": (FAM.levi_civita_koszul, [vectors(6)] * 2),
    "MetricFamily.curvature": (FAM.curvature, [vectors(6)] * 3),
    "curvature_closed": (FAM.curvature_closed, [vectors(6)] * 3),
    "ricci_closed": (FAM.ricci_closed, [vectors(6)]),
    "ricci_contracted": (FAM.ricci_contracted, [vectors(6)]),
    "nabla_endo": (FAM.nabla_endo, [arrays(DSU2.J), *[vectors(6)] * 2]),
    "nabla_endo_closed": (FAM.nabla_endo_closed, [NAMES, *[vectors(6)] * 2]),
    "canonical_connection": (lambda X, Y: pq.canonical_connection(MODEL, X, Y),
                             [vectors(6)] * 2),
    "canonical_connection_split": (
        lambda X, Y: pq.canonical_connection_split(MODEL, X, Y),
        [vectors(6)] * 2),
    "piaq.curvature": (lambda X, Y, Z: pq.curvature(MODEL, X, Y, Z),
                       [vectors(6)] * 3),
    "nijenhuis": (lambda F, X, Y: pq.nijenhuis(MODEL, F, X, Y),
                  [arrays(MODEL.I), *[vectors(6)] * 2]),
    "isoclinic_geodesic": (lambda mu: pq.predicate_report(
        MODEL, "isoclinic_geodesic", mu=mu), [NUMBERS]),
    "involutive": (lambda f, lam: pq.predicate_report(
        MODEL, "involutive", f_name=f, lam=lam), [NAMES, EIGENVALUES]),
}


def assert_finite(out):
    """A model holds its arrays as finite C-contiguous float64; any other
    result is finite."""
    if isinstance(out, (pq.PiAQModel, la.LieAlgebraModel)):
        for a in (out.c, *(getattr(out, F, out.c) for F in "IJ")):
            assert a.dtype == np.float64 and a.flags.c_contiguous
            assert np.isfinite(a).all()
        return
    if isinstance(out, gxg.MetricFamily):
        out = (out.lam, out.mu, out.d0)
    elif isinstance(out, dict):
        out = out["residual"]
    assert np.isfinite(np.asarray(out if out is not None else 0.0, float)).all()


@pytest.mark.parametrize("name", sorted(ENTRIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_entry_point_returns_a_finite_result_or_raises_a_typed_error(
        name, data):
    call, kinds = ENTRIES[name]
    args = [data.draw(kind, label=f"argument {k}") for k, kind in enumerate(kinds)]
    try:
        out = strict(lambda: call(*args))
    except AqlabError:
        return
    assert_finite(out)
