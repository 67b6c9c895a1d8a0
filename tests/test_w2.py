import math

import pytest
from hypothesis import assume, given, strategies as st

from cubesquares.w2 import (
    factorizations,
    factorize,
    six_full_upto,
    w2,
    w2_carrier,
    w2_scan,
)

EQUALITY_1E5 = [
    64, 128, 256, 512, 729, 1024, 2048, 2187, 4096, 6561,
    8192, 15625, 16384, 19683, 32768, 46656, 59049, 65536, 78125, 93312,
]


def test_carrier_prime_powers():
    assert w2_carrier(2) == 8  # p^3 at exponent 1
    assert w2_carrier(4) == 64  # p^6 for 2 <= k <= 6
    assert w2_carrier(64) == 64
    assert w2_carrier(128) == 128  # p^k for k >= 7
    assert w2_carrier(3) == 27
    assert w2_carrier(125) == 5**6


def test_w2_values():
    assert w2(1) == 1.0
    assert w2(64) == pytest.approx(0.5, abs=1e-15)
    assert w2(4) == pytest.approx(0.5, abs=1e-15)
    assert w2(2) == pytest.approx(8 ** (-1 / 6), abs=1e-15)


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
def test_carrier_multiplicative(q1, q2):
    assume(math.gcd(q1, q2) == 1)
    assert w2_carrier(q1 * q2) == w2_carrier(q1) * w2_carrier(q2)


def test_majorant_and_equality():
    _w2sq, majorant_ok, equality = w2_scan(100_000)
    assert majorant_ok
    assert equality == EQUALITY_1E5
    # equality cases are exactly the 6-full numbers
    for q in equality:
        assert all(e >= 6 for _p, e in factorize(q))


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(2**7 * 3**6) == [(2, 7), (3, 6)]


def test_sum_squares_slow_growth():
    w2sq, _, _ = w2_scan(10_000)
    s2, s3, s4 = (float(w2sq[1 : Q + 1].sum()) for Q in (100, 1000, 10_000))
    assert s2 < s3 < s4
    assert s3 / s2 < 1.8 and s4 / s3 < 1.8


def test_six_full_matches_trial_division():
    want = [q for q in range(2, 100_001) if all(e >= 6 for _p, e in factorize(q))]
    assert six_full_upto(100_000) == want == EQUALITY_1E5
    assert six_full_upto(63) == []
    assert six_full_upto(64) == [64]


def test_decade_sums_from_one_scan():
    # criterion 5 slices one scan; each slice sum equals a scan of its own
    w2sq, _, _ = w2_scan(100_000)
    for Q in (100, 1000, 10_000, 100_000):
        assert float(w2sq[1 : Q + 1].sum()) == float(w2_scan(Q)[0][1:].sum())


def test_factorizations_match_trial_division():
    walk = list(factorizations(10_000))
    assert [q for q, _ in walk] == list(range(1, 10_001))
    for q, factors in walk:
        assert factors == factorize(q)
