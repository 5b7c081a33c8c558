"""tables' bulk float formatters against Python's own ``%.17g`` and ``repr``."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinflow import tables


def _formatted(values, shortest):
    values = np.asarray(values, dtype=float)
    return tables.format_fields(values, np.zeros(len(values), np.intp), shortest)


def _assert_formats_as_python(values):
    values = np.asarray(values, dtype=float)
    for shortest in (False, True):
        got = _formatted(values, shortest).split(",")[1:]
        if shortest:
            want = [repr(v) if math.isfinite(v) else "null" for v in values.tolist()]
        else:
            want = ["%.17g" % v for v in values.tolist()]
        bad = [(v.hex(), g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert not bad and len(got) == len(want), (shortest, bad[:5])


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])


def test_edge_values_format_as_python():
    _assert_formats_as_python([
        0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
        math.inf, -math.inf, math.nan,
        # X is halfway between two multiples of 10: repr gives ...708.2
        958620917110708.25, -958620917110708.25,
        # X is halfway between two integers and no multiple of 10 fits
        1000000000000000.25, 1000000000000000.75,
    ])


def test_powers_of_two_and_their_neighbours_format_as_python():
    # a power of two has an interval twice as wide above as below
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_formats_as_python(np.concatenate([_neighbours(powers), -powers]))


def test_powers_of_ten_and_their_neighbours_format_as_python():
    powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
    # repr switches to exponent form at 1e16, %.17g at 1e17
    steps = np.arange(-40, 41)
    around = [np.nextafter(1e16, np.inf if s > 0 else 0) + 2.0 * s for s in steps]
    around += [1e17 + 16.0 * s for s in steps]
    _assert_formats_as_python(np.concatenate([_neighbours(powers), -powers, around]))


def test_random_bit_patterns_in_the_window_format_as_python():
    rng = np.random.default_rng(7)
    size = 20000
    # biased exponents 1009..1080 span |x| in [1e-4, 1e17) and a little beyond
    bits = (
        (rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63))
        | (rng.integers(1009, 1081, size, dtype=np.uint64) << np.uint64(52))
        | rng.integers(0, 2**52, size, dtype=np.uint64)
    )
    # and short decimals, whose shortest digits are far fewer than 17
    short = rng.integers(1, 10**6, size) * 10.0 ** rng.integers(-10, 17, size)
    _assert_formats_as_python(np.concatenate([bits.view(np.float64), short]))


# a sign, a biased exponent in or near the window or anywhere, and a fraction
_BITS = st.builds(
    lambda sign, exponent, fraction: (sign << 63) | (exponent << 52) | fraction,
    st.integers(0, 1),
    st.one_of(st.integers(1009, 1080), st.integers(0, 2047)),
    st.integers(0, 2**52 - 1),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_BITS, min_size=1, max_size=64))
def test_any_bit_pattern_formats_as_python(patterns):
    _assert_formats_as_python(np.array(patterns, np.uint64).view(np.float64))


def test_separators_come_before_their_values():
    values = np.array([1.5, -2.0, math.nan, 1e300, 0.1])
    newline = np.array([1, 0, 1, 1, 0], np.intp)
    got = tables.format_fields(values, newline, shortest=True)
    assert got == "\n1.5,-2.0\nnull\n1e+300,0.1"
    got = tables.format_fields(values, newline)
    assert got == "\n1.5,-2\nnan\n1.0000000000000001e+300,0.10000000000000001"
