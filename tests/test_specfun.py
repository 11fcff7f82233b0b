"""In-repo Bessel J0 against golden values and the angular-average reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import examples
from recoilsim.specfun import CROSSOVER, bessel_j0
from recoilsim.specfun import _j0_asymptotic, _j0_series
from references import j0_by_angular_average

# Reference values (Abramowitz & Stegun / mpmath, 16 significant digits).
J0_AT_1 = 0.7651976865579666
J0_AT_5 = -0.1775967713  # known good to the digits shown
FIRST_ZERO = 2.4048255576957727686


class TestGoldenValues:
    def test_at_origin_exactly_one(self):
        assert bessel_j0(0.0) == 1.0

    def test_at_one(self):
        assert bessel_j0(1.0) == pytest.approx(J0_AT_1, abs=1e-13)

    def test_near_first_zero(self):
        # 2.404825558 sits within 2e-10 of the true root, so J0 there is tiny.
        assert abs(bessel_j0(2.404825558)) < 1e-9

    def test_sign_change_brackets_first_zero(self):
        assert bessel_j0(FIRST_ZERO - 1e-6) > 0 > bessel_j0(FIRST_ZERO + 1e-6)


class TestAgainstQuadratureOracle:
    """The series/asymptotic route and the integral route share no code;
    their agreement is the implementation's primary correctness evidence."""

    def test_scan_meets_accuracy_contract(self):
        z = np.arange(0.0, 30.0 + 1e-9, 0.1)
        reference = j0_by_angular_average(z, n=1024)
        worst = np.max(np.abs(bessel_j0(z) - reference))
        assert worst <= 1e-12

    def test_oracle_at_zero_is_exactly_one(self):
        assert j0_by_angular_average(0.0) == 1.0

    def test_oracle_matches_golden_values(self):
        assert j0_by_angular_average(1.0, n=256) == pytest.approx(J0_AT_1, abs=1e-12)
        assert j0_by_angular_average(5.0, n=512) == pytest.approx(J0_AT_5, abs=1e-10)


class TestBranchStructure:
    def test_eval_reports_series_below_crossover(self):
        assert bessel_j0(3.0) == _j0_series(np.array([3.0]))[0]
        assert bessel_j0(3.0) != _j0_asymptotic(np.array([3.0]))[0]

    def test_eval_reports_asymptotic_above_crossover(self):
        assert bessel_j0(20.0) == _j0_asymptotic(np.array([20.0]))[0]
        assert bessel_j0(20.0) != _j0_series(np.array([20.0]))[0]

    def test_crossover_itself_uses_the_series(self):
        assert bessel_j0(CROSSOVER) == _j0_series(np.array([CROSSOVER]))[0]

    def test_branches_agree_where_they_meet(self):
        # J0'(12) ~ -0.22, so the function itself moves by ~2e-9 across a
        # 1e-8 step; continuity at the switch therefore means the two
        # branches produce the same numbers near z = 12, not that the
        # function is flat there.  Both are accurate in a window around the
        # crossover, and their pointwise gap stays below 1e-11.
        z = np.linspace(CROSSOVER - 0.1, CROSSOVER + 0.1, 41)
        gap = np.max(np.abs(_j0_series(z) - _j0_asymptotic(z)))
        assert gap <= 1e-11

    def test_asymptotic_envelope_bounds_the_square(self):
        # |J0(a)|^2 <= (2/(pi*a)) * (1 + small) for a >= 3: the squared
        # decoherence factor decays at least as fast as the Hankel envelope.
        a = np.linspace(3.0, 40.0, 741)
        ratio = bessel_j0(a) ** 2 * (np.pi * a / 2.0)
        assert np.max(ratio) <= 1.05


class TestArgumentHandling:
    def test_even_in_argument(self):
        z = np.array([0.3, 1.7, 5.0, 11.99, 12.01, 25.0])
        assert np.array_equal(bessel_j0(-z), bessel_j0(z))

    def test_scalar_in_float_out(self):
        assert isinstance(bessel_j0(2.0), float)

    def test_array_shape_preserved(self):
        z = np.linspace(0, 20, 12).reshape(3, 4)
        out = bessel_j0(z)
        assert out.shape == (3, 4)

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                bessel_j0(bad)
        with pytest.raises(ValueError):
            bessel_j0(np.array([1.0, np.nan]))


class TestProperties:
    @given(st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=examples(200), deadline=None)
    def test_bounded_by_one(self, z):
        assert abs(bessel_j0(z)) <= 1.0 + 1e-12

    @given(st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=examples(100), deadline=None)
    def test_reflection_is_bit_exact(self, z):
        assert bessel_j0(-z) == bessel_j0(z)
