"""The vectorized ``%.17g`` kernel against Python's own formatting."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import examples
from recoilsim import _g17

EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
         2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
         1.0, 0.5, 0.1, 1e-4, 9.9999999999999991e-05, 1e16, 1e17, 1e22, 1e23,
         99999999999999999.0, 9999999999999998.0, 1e100, 1e-100, 1.5e-100, 1e-99]


def _texts(values):
    rows = _g17.slots(np.asarray(values, dtype=float))
    return [row[row != 0].tobytes().decode("ascii") for row in rows]


def _reference(values):
    return [format(float(v), ".17g") for v in values]


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    # Every bit pattern, so every exponent is as likely as any other.
    st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.array(bits, np.uint64).view(np.float64))))


@given(st.lists(_floats, min_size=1, max_size=64))
@settings(max_examples=examples(200), deadline=None)
@example(EDGES)
def test_text_is_format_17g(values):
    assert _texts(values) == _reference(values)


@given(st.lists(_floats.filter(lambda v: not math.isnan(v)), min_size=1, max_size=64))
@settings(max_examples=examples(50), deadline=None)
@example([v for v in EDGES if not math.isnan(v)])
def test_negating_flips_the_sign_byte_alone(values):
    # evolve writes an entry's conjugate from the entry's slots this way.
    rows = _g17.slots(np.asarray(values))
    flipped = rows.copy()
    flipped[:, 0] ^= ord("-")
    assert np.array_equal(_g17.slots(-np.asarray(values)), flipped)


def test_every_decade_and_its_neighbours():
    # The switches between fixed and exponent notation at 1e-4 and 1e17, and
    # from two exponent digits to three at 1e100 and 1e-100, land here.
    exponents = np.arange(-323, 309)
    powers = np.array([float(f"1e{k}") for k in exponents])
    values = np.concatenate([
        powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0),
        1.2345678901234567 * powers, 9.8765432109876543 * powers[:-1]])
    values = np.concatenate([values, -values])
    assert _texts(values) == _reference(values)


@given(st.lists(st.integers(2**51, 2**52 - 1).map(lambda m: (2 * m + 1) / 4.0),
                min_size=1, max_size=16))
@settings(max_examples=examples(50), deadline=None)
@example([1234567890123456.75, 1234567890123457.25])
def test_exact_ties_round_half_to_even(values):
    # An odd multiple of 1/4 between 2^50 and 2^51 is a float with 18
    # significant digits ending in 25 or 75: a tie at 17 digits.
    assert _texts(values) == _reference(values)


def test_an_empty_array_has_no_slots():
    assert _g17.slots(np.array([])).shape == (0, _g17.WIDTH)
