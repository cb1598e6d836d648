"""Self-dual two-form calculus on the model fibre."""

import math

import numpy as np
import pytest

from aqlab import fourdim as fd
from aqlab import quat as qt
from aqlab.errors import InvalidSignature, Overflow
from conftest import hodge_star_matrix

ALPHAS = (-1, 1)


def rand_form(rng):
    return fd.TwoForm4(tuple(rng.normal(size=6)))


def rand_selfdual(rng, alpha):
    return fd.selfdual_form(alpha, *rng.normal(size=3))


def parity(perm) -> int:
    """The sign of a permutation of (0, 1, 2, 3): -1 per inversion."""
    return math.prod(-1 if perm[a] > perm[b] else 1
                     for a in range(4) for b in range(a + 1, 4))


def definitional_star(g, w) -> tuple:
    """(star w)_ij = (1/2) eta_ijkl g^km g^ln w_mn with eta_0123 = +1; on
    the diagonal metric, whose inverse is itself, the sum over k < l of
    eta_ijkl g^kk g^ll w_kl.  Independent of ``fourdim._star_signs``."""
    gd = g.diagonal()
    return tuple(sum(parity((i, j, k, l)) * gd[k] * gd[l] * x
                     for (k, l), x in zip(fd.PAIRS, w.comp)
                     if len({i, j, k, l}) == 4)
                 for i, j in fd.PAIRS)


class TestMetric:
    @pytest.mark.parametrize("alpha", [True, False, 0, 2, 0.5, np.True_,
                                       1 + 0j, 1.5, "1", None, [1]])
    def test_alpha_refused(self, alpha):
        """A bool is no signature, as for the ring values and ``PiAQModel``:
        ``Metric4`` calls the same check, ``scalars._check_alpha``."""
        with pytest.raises(InvalidSignature, match="alpha must be") as err:
            fd.Metric4(alpha)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("alpha", [
        1.0, -1.0, np.int64(1), 1, -1,
        pytest.param(np.float64(-1.0), id="float64(-1.0)")])
    def test_alpha_stored_as_an_int(self, alpha):
        g = fd.Metric4(alpha)
        assert type(g.alpha) is int and g.alpha == alpha
        assert g.diagonal() == fd.Metric4(int(alpha)).diagonal()


class TestHodgeStar:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_basis_images_are_definitional(self, alpha):
        g = fd.Metric4(alpha)
        for e in np.eye(6):
            w = fd.TwoForm4(e)
            assert fd.hodge_star(g, w).comp == definitional_star(g, w)

    def test_euclidean_basis_image(self):
        g = fd.Metric4(-1)
        sw = fd.hodge_star(g, fd.TwoForm4((1, 0, 0, 0, 0, 0)))
        assert sw.comp == (0, 0, 0, 0, 0, 1.0)  # e1^e2 -> e3^e4

    def test_neutral_basis_image(self):
        g = fd.Metric4(1)
        sw = fd.hodge_star(g, fd.TwoForm4((1, 0, 0, 0, 0, 0)))
        assert sw.comp == (0, 0, 0, 0, 0, -1.0)  # eps(1,2) = -1 here

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_involution_on_basis(self, alpha):
        g = fd.Metric4(alpha)
        s = hodge_star_matrix(g)
        assert np.abs(s @ s - np.eye(6)).max() == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_complementary_pair_signs(self, alpha):
        """Star pairs complementary index pairs weighted by eps(i, j)."""
        g = fd.Metric4(alpha)
        complement = {0: 5, 1: 4, 2: 3, 3: 2, 4: 1, 5: 0}
        orient = [1, -1, 1, 1, -1, 1]  # parity of (i, j, comp) as permutation
        for idx, (i, j) in enumerate(fd.PAIRS):
            comps = [0.0] * 6
            comps[idx] = 1.0
            sw = fd.hodge_star(g, fd.TwoForm4(tuple(comps)))
            want = [0.0] * 6
            want[complement[idx]] = g.eps(i, j) * orient[idx]
            assert np.allclose(sw.comp, want)


class TestDecomposition:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_selfdual_is_fixed(self, alpha, rng):
        g = fd.Metric4(alpha)
        w = rand_selfdual(rng, alpha)
        wp, wm = fd.sd_decompose(g, w)
        assert np.allclose(wp.comp, w.comp)
        assert np.abs(np.array(wm.comp)).max() < 1e-15

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_projector_formula(self, alpha):
        g = fd.Metric4(alpha)
        w = fd.TwoForm4((1, 0, 0, 0, 0, 0))
        sw = fd.hodge_star(g, w)
        wp, wm = fd.sd_decompose(g, w)
        assert np.allclose(wp.comp, 0.5 * (np.array(w.comp) + np.array(sw.comp)))
        assert np.allclose(wm.comp, 0.5 * (np.array(w.comp) - np.array(sw.comp)))
        assert np.allclose((wp + wm).comp, w.comp)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_parametrized_form_roundtrip(self, alpha):
        g = fd.Metric4(alpha)
        w = fd.selfdual_form(alpha, 1.0, 2.0, 3.0)
        wp, _ = fd.sd_decompose(g, w)
        assert np.allclose(wp.comp, w.comp)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_eigenspace_dimensions(self, alpha):
        g = fd.Metric4(alpha)
        s = hodge_star_matrix(g)
        for sign in (1, -1):
            proj = 0.5 * (np.eye(6) + sign * s)
            assert np.linalg.matrix_rank(proj) == 3

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_halves_are_orthogonal(self, alpha, rng):
        g = fd.Metric4(alpha)
        for _ in range(50):
            wp, _ = fd.sd_decompose(g, rand_form(rng))
            _, vm = fd.sd_decompose(g, rand_form(rng))
            assert abs(fd.inner_lambda2(g, wp, vm)) < 1e-12


class TestFormToEndo:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_explicit_matrix(self, alpha):
        g = fd.Metric4(alpha)
        J = fd.form_to_endo(g, fd.selfdual_form(alpha, 1, 0, 0))
        want = np.array([[0, 1, 0, 0], [alpha, 0, 0, 0],
                         [0, 0, 0, 1], [0, 0, alpha, 0]], float)
        assert np.array_equal(J, want)
        assert np.array_equal(J @ J, alpha * np.eye(4))
        assert fd.lambda_sq(g, fd.selfdual_form(alpha, 1, 0, 0)) == -alpha

    def test_zero_form(self):
        g = fd.Metric4(-1)
        assert np.abs(fd.form_to_endo(g, fd.TwoForm4((0.0,) * 6))).max() == 0.0

    @pytest.mark.parametrize("comps", [(1e300, 0, 2e300, 0, 0, 0),
                                       (1e300, 0, 0, 0, 0, 0)])
    def test_lambda_sq_overflow_is_typed(self, comps):
        """J^2 overflows (NaN and -inf before): one typed error naming it,
        also where numpy's own warning is not escalated."""
        g = fd.Metric4(1)
        w = fd.sd_decompose(g, fd.TwoForm4(comps))[0]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Overflow, match="overflows"):
                fd.lambda_sq(g, w)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_square_is_minus_lambda_sq(self, alpha, rng):
        g = fd.Metric4(alpha)
        for _ in range(100):
            x, y, z = rng.normal(size=3)
            w = fd.selfdual_form(alpha, x, y, z)
            J = fd.form_to_endo(g, w)
            l2 = z * z - alpha * x * x - alpha * y * y
            assert np.abs(J @ J + l2 * np.eye(4)).max() < 1e-12 * (1 + abs(l2))
            assert abs(fd.lambda_sq(g, w) - l2) < 1e-12 * (1 + abs(l2))
            assert abs(0.5 * fd.inner_lambda2(g, w, w) - l2) < 1e-12 * (1 + abs(l2))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_skew_adjointness_and_inverse_map(self, alpha, rng):
        g = fd.Metric4(alpha)
        gm = np.diag(g.diagonal())
        for _ in range(20):
            w = rand_form(rng)
            J = fd.form_to_endo(g, w)
            assert np.abs(gm @ J + (gm @ J).T).max() < 1e-12
            # lowering the index of J gives back the form
            assert np.array_equal(gm @ J, np.array(w.rows()))


class TestWedgeOrientation:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_selfdual_wedge_is_twice_lambda_sq(self, alpha, rng):
        g = fd.Metric4(alpha)
        for _ in range(50):
            w = rand_selfdual(rng, alpha)
            l2 = fd.lambda_sq(g, w)
            assert fd.wedge_coefficient(w) == pytest.approx(2 * l2, abs=1e-12,
                                                            rel=1e-10)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_antiselfdual_wedge_is_opposite(self, alpha, rng):
        g = fd.Metric4(alpha)
        for _ in range(50):
            w = fd.antiselfdual_form(alpha, *rng.normal(size=3))
            l2 = fd.lambda_sq(g, w)
            assert fd.wedge_coefficient(w) == pytest.approx(-2 * l2, abs=1e-12,
                                                            rel=1e-10)


class TestInnerProduct:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_norm_example(self, alpha):
        g = fd.Metric4(alpha)
        w = fd.selfdual_form(alpha, 0, 0, 1)
        assert fd.inner_lambda2(g, w, w) == 2.0
        zero = fd.TwoForm4((0.0,) * 6)
        assert fd.inner_lambda2(g, zero, zero) == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_orthogonality_is_anticommutation(self, alpha, rng):
        g = fd.Metric4(alpha)
        for _ in range(100):
            w1 = rand_selfdual(rng, alpha)
            w2 = rand_selfdual(rng, alpha)
            J1 = fd.form_to_endo(g, w1)
            J2 = fd.form_to_endo(g, w2)
            anti = np.abs(J1 @ J2 + J2 @ J1).max()
            ip = fd.inner_lambda2(g, w1, w2)
            if abs(ip) < 1e-12:
                assert anti < 1e-10
            else:
                assert anti > 1e-10
            # the anticommutator is exactly -<w1, w2> id
            assert np.abs(J1 @ J2 + J2 @ J1 + ip * np.eye(4)).max() < 1e-12 * (
                1 + abs(ip))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_forced_pair_anticommutes(self, alpha, rng):
        g = fd.Metric4(alpha)
        w1 = fd.selfdual_form(alpha, 1.0, 2.0, 0.5)
        # choose z so <w1, w2> = 2(z1 z2 - alpha x1 x2 - alpha y1 y2) = 0
        z = alpha * (1.0 * 2.0 + 2.0 * -1.0) / 0.5
        w2 = fd.selfdual_form(alpha, 2.0, -1.0, z)
        assert abs(fd.inner_lambda2(g, w1, w2)) < 1e-12
        J1, J2 = fd.form_to_endo(g, w1), fd.form_to_endo(g, w2)
        assert np.abs(J1 @ J2 + J2 @ J1).max() < 1e-12


class TestCanonicalBasis:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("orientation", (1, -1))
    def test_quaternion_relations(self, alpha, orientation):
        g = fd.Metric4(alpha)
        J1, J2, J3 = fd.canonical_aq_basis(g, orientation)
        eye = np.eye(4)
        assert np.abs(J1 @ J1 - alpha * eye).max() == 0.0
        assert np.abs(J2 @ J2 - alpha * eye).max() == 0.0
        assert np.abs(J1 @ J2 + J2 @ J1).max() == 0.0
        assert np.abs(J3 @ J3 + eye).max() == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_norm_pattern_of_generating_forms(self, alpha):
        g = fd.Metric4(alpha)
        forms = [fd.selfdual_form(alpha, 1, 0, 0),
                 fd.selfdual_form(alpha, 0, 1, 0),
                 fd.selfdual_form(alpha, 0, 0, 1)]
        norms = [fd.inner_lambda2(g, w, w) for w in forms]
        assert norms == [-2.0 * alpha, -2.0 * alpha, 2.0]
        for a in range(3):
            for b in range(a + 1, 3):
                assert fd.inner_lambda2(g, forms[a], forms[b]) == 0.0

    def test_classical_case_relations(self):
        J1, J2, J3 = fd.canonical_aq_basis(fd.Metric4(-1), 1)
        eye = np.eye(4)
        assert np.array_equal(J1 @ J1, -eye)
        assert np.array_equal(J2 @ J2, -eye)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("orientation", (1, -1))
    def test_sixteen_product_isomorphism(self, alpha, orientation):
        """id, J1, J2, J3 multiply exactly like the quaternion basis."""
        g = fd.Metric4(alpha)
        J1, J2, J3 = fd.canonical_aq_basis(g, orientation)
        mats = [np.eye(4), J1, J2, J3]
        quats = [qt.one(alpha), qt.i_(alpha), qt.j_(alpha), qt.k_(alpha)]
        for a in range(4):
            for b in range(4):
                prod = qt.qmul(quats[a], quats[b]).coeffs()
                want = sum(prod[m] * mats[m] for m in range(4))
                assert np.abs(mats[a] @ mats[b] - want).max() < 1e-14


class TestLambdaSqSum:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_agrees_with_the_matrix_trace(self, alpha, rng):
        """The row-by-column sum in index order agrees with -tr(J @ J)/4 to
        4 ulp of the sum of the magnitudes of its terms; at alpha = +1 the
        terms cancel, so the result's own ulp would be no bound."""
        g = fd.Metric4(alpha)
        for _ in range(1000):
            w = rand_form(rng)
            J = fd.form_to_endo(g, w)
            scale = float((J * J).sum()) / 4.0
            assert (abs(fd.lambda_sq(g, w) + np.trace(J @ J) / 4.0)
                    <= 4 * math.ulp(scale))
