"""Ring arithmetic of the complex and double numbers."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqlab import scalars as sk
from aqlab.errors import IsotropicScalar, SignatureMismatch
from conftest import bits, ring_pairs

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
alphas = st.sampled_from([-1, 1])


def z(re, im, alpha):
    return sk.ScalarKA(re, im, alpha)


class TestMul:
    def test_imaginary_unit_squares_to_alpha(self):
        for alpha in (-1, 1):
            i = sk.imag_unit(alpha)
            assert sk.mul(i, i) == sk.from_real(alpha, alpha)

    def test_zero_divisor_in_double_numbers(self):
        prod = sk.mul(z(1, 1, 1), z(1, -1, 1))
        assert prod.re == 0.0 and prod.im == 0.0

    def test_hand_expansion(self):
        # (1 + 2i)(3 + i) over the complex numbers
        assert sk.mul(z(1, 2, -1), z(3, 1, -1)) == z(1, 7, -1)

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            sk.mul(z(1, 0, -1), z(1, 0, 1))
        with pytest.raises(SignatureMismatch):
            sk.add(z(1, 0, -1), z(1, 0, 1))

    @given(alphas, *(finite,) * 6)
    @settings(max_examples=300)
    def test_commutative_associative(self, alpha, a, b, c, d, e, f):
        x, y, w = z(a, b, alpha), z(c, d, alpha), z(e, f, alpha)
        xy = sk.mul(x, y)
        assert sk.close(xy, sk.mul(y, x), tol=1e-12 * (1 + sk.abs2norm(xy)))
        lhs = sk.mul(sk.mul(x, y), w)
        rhs = sk.mul(x, sk.mul(y, w))
        assert sk.close(lhs, rhs, tol=1e-12 * (1 + sk.abs2norm(lhs)))

    @given(alphas, *(finite,) * 4)
    @settings(max_examples=300)
    @example(1, 1.0, 2.0, 1000.0, 999.9999999999999)
    def test_norm_is_multiplicative(self, alpha, a, b, c, d):
        # The rounding error of mul followed by the cancellation of normsq
        # near the isotropic cone scales with |x|^2 |y|^2 (Euclidean), not
        # with |rhs|; the smallest normal float absorbs products that fall
        # below the normal range.
        x, y = z(a, b, alpha), z(c, d, alpha)
        lhs = sk.normsq(sk.mul(x, y))
        rhs = sk.normsq(x) * sk.normsq(y)
        bound = 1e-14 * sk.abs2norm(x) ** 2 * sk.abs2norm(y) ** 2
        assert abs(lhs - rhs) <= bound + sys.float_info.min


class TestConj:
    def test_fixed_points_and_flip(self):
        for alpha in (-1, 1):
            assert sk.conj(z(1, 0, alpha)) == z(1, 0, alpha)
            assert sk.conj(z(0, 1, alpha)) == z(0, -1, alpha)

    def test_double_number_isotropy(self):
        assert sk.normsq(z(1, 1, 1)) == 0.0

    def test_involution_and_norm(self):
        for alpha in (-1, 1):
            x = z(2.5, -0.75, alpha)
            assert sk.conj(sk.conj(x)) == x
            assert sk.mul(sk.conj(x), x).re == pytest.approx(sk.normsq(x))
            assert sk.mul(sk.conj(x), x).im == pytest.approx(0.0)

    @given(alphas, *(finite,) * 4)
    @settings(max_examples=200)
    def test_ring_involution(self, alpha, a, b, c, d):
        x, y = z(a, b, alpha), z(c, d, alpha)
        lhs = sk.conj(sk.mul(x, y))
        rhs = sk.mul(sk.conj(x), sk.conj(y))
        assert sk.close(lhs, rhs, tol=1e-12 * (1 + sk.abs2norm(lhs)))


class TestInv:
    def test_complex_imaginary_unit(self):
        assert sk.inv(sk.imag_unit(-1)) == z(0, -1, -1)

    def test_isotropic_rejected(self):
        with pytest.raises(IsotropicScalar):
            sk.inv(z(1, 1, 1))
        with pytest.raises(IsotropicScalar):
            sk.inv(sk.zero(-1))

    def test_double_number_inverse(self):
        got = sk.inv(z(2, 1, 1))
        assert sk.close(got, z(2 / 3, -1 / 3, 1), tol=1e-15)
        assert sk.close(sk.mul(z(2, 1, 1), got), sk.one(1), tol=1e-15)

    def test_isotropy_boundary(self):
        """ISOTROPY_TOL (1e-9) is absolute: |z|^2 at 8e-10 raises, 2e-9 inverts."""
        assert sk.ISOTROPY_TOL == 1e-9
        inside = z(1, 1 + 4e-10, 1)  # normsq about -8e-10
        assert -1e-9 < sk.normsq(inside) < -6e-10
        with pytest.raises(IsotropicScalar):
            sk.inv(inside)
        assert sk.is_isotropic(inside)
        outside = z(1, 1 + 1e-9, 1)  # normsq about -2e-9
        assert -3e-9 < sk.normsq(outside) < -1e-9
        got = sk.inv(outside)
        assert not sk.is_isotropic(outside)
        assert sk.close(sk.mul(outside, got), sk.one(1), tol=1e-6)

    def test_isotropy_predicate(self):
        assert sk.is_isotropic(z(1, 1, 1))
        assert not sk.is_isotropic(z(1, 1, -1))
        assert math.isclose(sk.normsq(z(1, 1, -1)), 2.0)


class TestBulkRandomSweep:
    def test_thousand_random_triples(self):
        """Associativity, commutativity, and norm multiplicativity in bulk."""
        import numpy as np

        rng = np.random.default_rng(11)
        for _ in range(1000):
            alpha = int(rng.choice([-1, 1]))
            x, y, w = (z(*rng.normal(size=2), alpha) for _ in range(3))
            lhs = sk.mul(sk.mul(x, y), w)
            rhs = sk.mul(x, sk.mul(y, w))
            assert abs(lhs.re - rhs.re) < 1e-12 * (1 + sk.abs2norm(lhs))
            assert abs(lhs.im - rhs.im) < 1e-12 * (1 + sk.abs2norm(lhs))
            xy, yx = sk.mul(x, y), sk.mul(y, x)
            assert xy.re == yx.re and xy.im == yx.im
            nprod = sk.normsq(x) * sk.normsq(y)
            assert abs(sk.normsq(xy) - nprod) < 1e-10 * (1 + abs(nprod))


class TestUnvalidatedResults:
    """Operations build their results without revalidating the fields; the
    references are the formulas through the validating constructor."""

    @given(alphas, ring_pairs, ring_pairs)
    @settings(max_examples=300)
    def test_bit_equal_to_validated_construction(self, alpha, p, q):
        x, y = z(*p, alpha), z(*q, alpha)
        assert bits(sk.mul(x, y)) == bits(z(x.re * y.re + x.alpha * x.im * y.im,
                                            x.re * y.im + x.im * y.re, alpha))
        assert bits(sk.add(x, y), sk.neg(x), sk.conj(x)) == bits(
            z(x.re + y.re, x.im + y.im, alpha), z(-x.re, -x.im, alpha),
            z(x.re, -x.im, alpha))
        n = sk.normsq(x)
        if abs(n) <= sk.ISOTROPY_TOL:
            with pytest.raises(IsotropicScalar):
                sk.inv(x)
        else:
            assert bits(sk.inv(x)) == bits(z(x.re / n, -x.im / n, alpha))

    def test_caller_values_are_coerced(self):
        x = sk.scale(np.float64(2.0), z(1.5, -0.5, 1))
        assert type(x.re) is float and type(x.im) is float
        y = z(np.float64(1.0), np.int64(2), -1)
        assert type(y.re) is float and type(y.im) is float

    def test_fields_are_frozen(self):
        x = z(1, 2, -1)
        for name in ("re", "im", "alpha"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, 0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            z(1, 0, 0)
