"""Ring arithmetic of the complex and double numbers."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aqlab import piaq as pq
from aqlab import quat as qt
from aqlab import scalars as sk
from aqlab import spinor as sp
from aqlab.errors import (InvalidModel, InvalidSignature, IsotropicScalar,
                          Overflow, SignatureMismatch)
from conftest import abs2norm, bits, ring_pairs, scalar_close, standard_pair

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
    @example(1, 499.0, 499.0, 9.0, -8.999999999999886, 0.0, 3.0)
    def test_commutative_associative(self, alpha, a, b, c, d, e, f):
        # As for the norm below, the rounding error of a double product
        # near the isotropic cone scales with |x| |y| |w|, not with |lhs|.
        x, y, w = z(a, b, alpha), z(c, d, alpha), z(e, f, alpha)
        xy = sk.mul(x, y)
        assert scalar_close(xy, sk.mul(y, x), tol=1e-12 * (1 + abs2norm(xy)))
        lhs = sk.mul(sk.mul(x, y), w)
        rhs = sk.mul(x, sk.mul(y, w))
        bound = 1e-14 * abs2norm(x) * abs2norm(y) * abs2norm(w)
        assert scalar_close(lhs, rhs, tol=bound + sys.float_info.min)

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
        bound = 1e-14 * abs2norm(x) ** 2 * abs2norm(y) ** 2
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
        assert scalar_close(lhs, rhs, tol=1e-12 * (1 + abs2norm(lhs)))


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
        assert scalar_close(got, z(2 / 3, -1 / 3, 1), tol=1e-15)
        assert scalar_close(sk.mul(z(2, 1, 1), got), sk.one(1), tol=1e-15)

    def test_isotropy_boundary(self):
        """ISOTROPY_TOL (1e-9) is relative to the squared sup norm, here
        about 1: |z|^2 at 8e-10 raises, 2e-9 inverts."""
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
        assert scalar_close(sk.mul(outside, got), sk.one(1), tol=1e-6)

    def test_isotropy_predicate(self):
        assert sk.is_isotropic(z(1, 1, 1))
        assert not sk.is_isotropic(z(1, 1, -1))
        assert math.isclose(sk.normsq(z(1, 1, -1)), 2.0)


def inverts(x) -> bool:
    try:
        sk.inv(x)
    except IsotropicScalar:
        return False
    return True


class TestRelativeIsotropy:
    """Isotropy is |z|^2 against the squared sup norm of z, one rule for
    every value whose squared norm is decided."""

    def test_small_complex_number_inverts(self):
        """For alpha = -1 only zero is isotropic, at any size."""
        x = z(1e-5, 0, -1)
        assert not sk.is_isotropic(x)
        assert sk.inv(x).re == pytest.approx(1e5, rel=1e-15)
        assert sk.is_isotropic(sk.zero(-1)) and sk.is_isotropic(sk.zero(1))

    def test_finite_value_whose_norm_overflows(self):
        """1e200 is finite, its squared norm is not: Overflow, not 0."""
        for x in (z(1e200, 0, -1), z(1e200, 0, 1), z(1e200, 1e200, 1)):
            with pytest.raises(Overflow):
                sk.inv(x)
            with pytest.raises(Overflow):
                sk.is_isotropic(x)

    def test_non_finite_value_is_not_isotropic(self):
        for x in (z(math.inf, 0, -1), z(math.nan, 0, 1), z(0, math.nan, 1)):
            assert not sk.is_isotropic(x)

    @given(ring_pairs, ring_pairs)
    @settings(max_examples=300)
    def test_helper_is_the_bound_rule(self, p, q):
        """``_isotropic`` is ``_within``'s bound of degree 2 on the sup
        norm, though it tries the floats one by one."""
        n = p[0] * q[1] - p[1] * q[0]
        floats = (*p, *q)
        assert sk._isotropic(n, *floats) == sk._within(
            abs(n), max(map(abs, floats)), 2, sk.ISOTROPY_TOL)


class TestRescaling:
    """The isotropy verdict, so whether inv succeeds, does not move when
    the value is scaled by t, log-uniform in [1e-6, 1e6].  A value whose
    squared norm underflows at either scale is left out: its square is not
    homogeneous in floating point."""

    @given(alphas, ring_pairs, st.floats(-6.0, 6.0))
    @settings(max_examples=300)
    @example(-1, (1e-5, 0.0), 5.0)
    @example(1, (1.0, 1.0 + 4e-10), -6.0)
    def test_isotropy_and_inverse(self, alpha, p, log_t):
        x = z(*p, alpha)
        y = sk.scale(10.0 ** log_t, x)
        assume(not any(0 < max(abs(v.re), abs(v.im)) < 1e-140
                       for v in (x, y)))
        assert sk.is_isotropic(y) == sk.is_isotropic(x)
        assert inverts(y) == inverts(x)


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
            assert abs(lhs.re - rhs.re) < 1e-12 * (1 + abs2norm(lhs))
            assert abs(lhs.im - rhs.im) < 1e-12 * (1 + abs2norm(lhs))
            xy, yx = sk.mul(x, y), sk.mul(y, x)
            assert xy.re == yx.re and xy.im == yx.im
            nprod = sk.normsq(x) * sk.normsq(y)
            assert abs(sk.normsq(xy) - nprod) < 1e-10 * (1 + abs(nprod))


class TestUnvalidatedResults:
    """Operations build their results bit for bit as the validating
    constructor does from the written-out formulas."""

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
        if sk._isotropic(n, x.re, x.im):
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
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(x, name, 0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            z(1, 0, 0)


SIGNED_TYPES = {
    "ScalarKA": lambda alpha: sk.ScalarKA(1, 2, alpha),
    "QuaternionA": lambda alpha: qt.QuaternionA(1, 2, 3, 4, alpha),
    "SpinMatrix": lambda alpha: qt.SpinMatrix(range(8), alpha),
    "SpinVector": lambda alpha: sp.SpinVector(range(4), alpha),
    "PiAQModel": lambda alpha: pq.PiAQModel(
        4, np.zeros((4, 4, 4)), *standard_pair(4, 1 if alpha == 1 else -1),
        alpha),
}


@pytest.mark.parametrize("make", SIGNED_TYPES.values(), ids=SIGNED_TYPES)
class TestOneAlphaCheck:
    """Every ring value and ``PiAQModel`` take their signature through
    ``scalars._check_alpha`` and store the int it returns; what it refuses
    is an ``InvalidSignature``, both an ``InvalidModel`` and a
    ``ValueError``."""

    @pytest.mark.parametrize("alpha", [True, False, 0, 2, 1.5, "1", None,
                                       np.True_, 1 + 0j, [1]])
    def test_refused(self, make, alpha):
        with pytest.raises(InvalidSignature) as err:
            make(alpha)
        assert str(err.value) == f"alpha must be -1 or +1, got {alpha!r}"
        assert isinstance(err.value, InvalidModel)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("alpha", [1, -1, 1.0, -1.0, np.int64(1),
                                       np.float64(-1.0)])
    def test_stored_as_an_int(self, make, alpha):
        x = make(alpha)
        assert type(x.alpha) is int and x.alpha == alpha
        if isinstance(x, sk.Record):  # the ring values compare by fields
            assert x == make(int(alpha)) and hash(x) == hash(make(int(alpha)))
            assert repr(x) == repr(make(int(alpha)))  # a float alpha broke :+d


def ring_values(alpha):
    """One value of each ring type, each built twice from the same fields."""
    return [(make(), make()) for make in (
        lambda: z(1.5, -2.0, alpha),
        lambda: qt.QuaternionA(1, 2, 3, 4, alpha),
        lambda: qt.spin_matrix(qt.QuaternionA(1, 2, 3, 4, alpha)),
        lambda: sp.svec((1, 2), 3, alpha))]


class TestValueSemantics:
    """The ring values compare, hash and print by their fields."""

    @pytest.mark.parametrize("alpha", [-1, 1])
    def test_equal_values_hash_equally_and_key_sets_and_dicts(self, alpha):
        pairs = ring_values(alpha)
        for x, y in pairs:
            assert x is not y and x == y and not x != y
            assert hash(x) == hash(y)
        firsts = [x for x, _ in pairs]
        seconds = [y for _, y in pairs]
        assert set(firsts) == set(seconds) and len(set(firsts + seconds)) == 4
        table = dict(zip(firsts, range(4)))
        assert [table[y] for y in seconds] == [0, 1, 2, 3]
        others = [x for x, _ in ring_values(-alpha)]
        assert not set(firsts) & set(others)

    def test_scalar_is_not_a_tuple_or_another_type(self):
        x = z(1, 0, 1)
        assert x != (1.0, 0.0, 1) and (1.0, 0.0, 1) != x
        assert x != qt.QuaternionA(1, 0, 0, 0, 1)
        assert x != sp.svec(1, 0, 1) and x != 1.0
        assert z(1, 2, 1) != z(1, 2, -1) and z(1, 2, 1) != z(1, 3, 1)

    def test_fields_cannot_be_deleted(self):
        for x, _ in ring_values(1):
            for name in x.__slots__:
                with pytest.raises(AttributeError):
                    delattr(x, name)
                assert hasattr(x, name)

    def test_spin_reprs_name_their_fields(self):
        m = qt.spin_matrix(qt.i_(-1))
        assert repr(m) == f"SpinMatrix(e={m.e!r}, alpha=-1)"
        X = sp.svec(1, (0, 2), -1)
        assert repr(X) == f"SpinVector(v={X.v!r}, alpha=-1)"
