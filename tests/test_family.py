"""The scalar closed forms of the metric family against the doubled model."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqlab import family
from aqlab import gxg
from aqlab import liealg as la
from aqlab.errors import Degenerate, Overflow
from conftest import _well_conditioned, conjugate_structure, so_algebra

BASES = ("su2", "sl2r", "so4", "so5-rebased")


@functools.cache
def doubled(name: str) -> la.DoubledModel:
    """The doubled catalog algebra, or so(5) in a random basis."""
    if name in la.CATALOG:
        return la.doubled(la.CATALOG[name]())
    c = so_algebra(5).c
    s = _well_conditioned(np.random.default_rng(5), len(c))
    return la.doubled(la.LieAlgebraModel(len(c), conjugate_structure(c, s)))


#: a candidate, or a point inside or outside the disc off the circle
POINTS = st.one_of(
    st.sampled_from(family.EINSTEIN_CANDIDATES),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
        lambda p: abs(family._d0(*p)) > 1e-6))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * abs(b)


class TestScalarVerdict:
    @settings(max_examples=150, deadline=None)
    @given(base=st.sampled_from(BASES), point=POINTS)
    @example(base="su2", point=(1.0, -2.0))
    @example(base="su2", point=(0.5301788587837568, -1.7707358797398696))
    def test_agrees_with_the_model(self, base, point):
        """The verdict and its constant are those of ``einstein_check``, and
        eps = -(A + B) / (2 d0) is the trace of the Ricci matrix over its
        dimension at every point.  A + B may cancel (to 0 at (1, -2), to
        3.5e-5 of A at the second example), and its rounding is relative to
        |A| + |B|, so the bound is too."""
        fam = gxg.MetricFamily(doubled(base), *point)
        got, want = family.einstein_constant(*point), fam.einstein_check()
        assert (got is None) == (want is None)
        if got is not None:
            assert close(got, want)
        A, B, _, _ = family.ricci_coefficients(fam.lam, fam.mu)
        trace = float(np.trace(fam.ricci_matrix())) / fam.model.dim2
        assert (abs(-(A + B) / (2.0 * fam.d0) - trace)
                <= 1e-12 * (abs(A) + abs(B)) / (2.0 * abs(fam.d0)))

    def test_candidates_are_the_points(self):
        got = family.einstein_points()
        assert [p[:2] for p in got] == list(family.EINSTEIN_CANDIDATES)
        assert [p[2] for p in got] == [0.25, 5.0 / 18.0, 0.375, 0.375]

    def test_model_classification_reads_the_same_candidates(self):
        for base in BASES:
            got = gxg.classify_einstein(doubled(base))
            assert [p[:2] for p in got] == list(family.EINSTEIN_CANDIDATES)

    def test_off_points_are_not_einstein(self):
        for point in ((0.2, 0.3), (0.0, 0.5), (1.2, 0.3), (0.0, -1.5)):
            assert family.einstein_constant(*point) is None

    def test_overflowing_coefficient_gives_no_verdict(self):
        """lam = mu = 1e150: d0 is finite, but B and D overflow."""
        assert not math.isfinite(family.ricci_coefficients(1e150, 1e150)[1])
        assert family.einstein_constant(1e150, 1e150) is None


class TestCheckPoint:
    def test_floats_and_d0(self):
        assert family.check_point(np.float64(0.5), 0) == (0.5, 0.0, 0.75)

    @pytest.mark.parametrize("lam,mu,error", [
        (math.nan, 0.0, Degenerate), (0.0, math.inf, Degenerate),
        (0.6, 0.8, Degenerate), (1e200, 0.0, Overflow)])
    def test_faults_are_the_model_faults(self, lam, mu, error):
        """The same error and message from the scalar route and from
        ``MetricFamily``, which calls it."""
        with pytest.raises(error) as scalar:
            family.einstein_constant(lam, mu)
        with pytest.raises(error) as model:
            gxg.MetricFamily(doubled("su2"), lam, mu)
        assert str(scalar.value) == str(model.value)

    def test_gxg_reexports_the_closed_forms(self):
        for name in ("_d0", "_cd_cofactors", "ricci_coefficients",
                     "DEGENERACY_TOL", "EINSTEIN_TOL"):
            assert getattr(gxg, name) is getattr(family, name)
