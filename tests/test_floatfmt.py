import math
from fractions import Fraction

import numpy as np

from dckernel import floatfmt


def python_texts(values):
    return [format(v, ".17g").encode() for v in np.ravel(values).tolist()]


def assert_matches_python(values):
    got = np.array(floatfmt.format_g17(values).tolist(), dtype=object)
    want = np.array(python_texts(values), dtype=object)
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, [(float(np.ravel(values)[i]), got[i], want[i]) for i in bad[:5]]


def fallback_share(values):
    """Share of the finite normal values that the numpy digits leave to %."""
    x = np.ravel(np.asarray(values, dtype=np.float64))
    normal = np.isfinite(x) & (np.abs(x) >= np.finfo(np.float64).tiny)
    chunks = range(0, x.size, floatfmt.CHUNK)
    fallback = np.concatenate([floatfmt._texts(x[i : i + floatfmt.CHUNK])[1] for i in chunks])
    return float(fallback[normal].mean())


def test_random_bit_patterns_match_python():
    rng = np.random.default_rng(20240624)
    bits = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert_matches_python(values)
    # a fast path that handed everything to % would pass the comparison alone
    assert fallback_share(values) < 1e-4


def test_normal_draws_match_python():
    values = np.random.default_rng(5).standard_normal(200_000) * 10.0 ** np.arange(-4, 4).repeat(25_000)
    assert_matches_python(values)
    assert fallback_share(values) < 1e-4


def test_powers_of_ten_and_neighbours():
    values = []
    for k in range(-323, 309):
        power = float(f"1e{k}")
        for direction in (-math.inf, math.inf):
            v = power
            for _ in range(5):
                values += [v, -v]
                v = math.nextafter(v, direction)
    assert_matches_python(np.array(values))


def test_style_switches_and_carries():
    cases = {
        1e-4: b"0.0001",
        math.nextafter(1e-4, 0.0): b"9.9999999999999991e-05",
        -1.5e-4: b"-0.00014999999999999999",
        1e16: b"10000000000000000",
        99999999999999984.0: b"99999999999999984",
        1e17: b"1e+17",
        -1e17: b"-1e+17",
        1.5e300: b"1.5000000000000001e+300",
        2.5e-300: b"2.5e-300",
        1.0: b"1",
        123456789.0: b"123456789",
        0.1: b"0.10000000000000001",
    }
    assert floatfmt.format_g17(list(cases)).tolist() == list(cases.values())
    carries = [float(f"{sign}9.99999999999999999e{k}") for k in range(-300, 301) for sign in "+-"]
    assert_matches_python(np.array(carries))
    # doubles just below a power of ten whose 17 digits round up into it
    for text, power in ((b"1e+153", Fraction(10) ** 153), (b"1e-79", Fraction(10) ** -79)):
        below = float(power)
        assert Fraction(below) < power and floatfmt.format_g17([below]).tolist() == [text]


def test_specials_and_exact_ties():
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.2250738585072009e-308,
                2.2250738585072014e-308, math.inf, -math.inf, math.nan, 1.7976931348623157e308]
    assert_matches_python(np.array(specials))
    assert floatfmt.format_g17([0.0, -0.0, math.nan, -math.inf]).tolist() == [b"0", b"-0", b"nan", b"-inf"]
    # ties at the 17th digit round to even, as % does
    ties = [1125899906842624.25, 1125899906842624.75, -1125899906842624.25, 0.5, 2.5e-5]
    assert floatfmt.format_g17(ties[:2]).tolist() == [b"1125899906842624.2", b"1125899906842624.8"]
    assert_matches_python(np.array(ties))


def test_shapes_and_chunks():
    assert floatfmt.format_g17([]).tolist() == []
    grid = np.linspace(-3.0, 3.0, 7 * (floatfmt.CHUNK // 2 + 3)).reshape(-1, 7)
    assert floatfmt.format_g17(grid).tolist() == python_texts(grid)
