import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import CapacityError
from cubesquares.residues import MAX_MODULUS
from cubesquares.w2 import (
    _carrier_factor,
    factorizations,
    factorize,
    six_full_upto,
    w2,
    w2_bytes,
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
    walk = {q: [] for q in range(1, 10_001)}
    for q, p, k in factorizations(10_000):
        for qi, pi, ki in zip(q.tolist(), p.tolist(), k.tolist()):
            walk[qi].append((pi, ki))
    for q, factors in walk.items():
        assert factors == factorize(q)


# The per-q walk and scan that the array rounds replaced, kept as the oracle.
def _factorizations_loop(Q):
    spf = np.arange(Q + 1, dtype=np.int64)
    for i in range(2, math.isqrt(Q) + 1):
        if spf[i] == i:
            sl = spf[i * i :: i]
            sl[sl == np.arange(i * i, Q + 1, i)] = i
    spf = spf.tolist()
    for q in range(1, Q + 1):
        factors = []
        m = q
        while m > 1:
            p, k = spf[m], 0
            while m % p == 0:
                m //= p
                k += 1
            factors.append((p, k))
        yield q, factors


def _w2_scan_loop(Q):
    w2sq = np.zeros(Q + 1, dtype=np.float64)
    majorant_ok = True
    equality = []
    for q, factors in _factorizations_loop(Q):
        w = 1
        for p, k in factors:
            w *= _carrier_factor(p, k)
        w2sq[q] = w ** (-1.0 / 3.0)
        if w < q:
            majorant_ok = False
        elif w == q and q > 1:
            equality.append(q)
    return w2sq, majorant_ok, equality


@pytest.mark.parametrize("Q", [1, 2, 64, 100_000])
def test_w2_scan_matches_loop(Q):
    w2sq, majorant_ok, equality = w2_scan(Q)
    want, want_ok, want_equality = _w2_scan_loop(Q)
    assert majorant_ok == want_ok and equality == want_equality
    # np.power and Python's ** may round W(q)^(-1/3) apart by one unit in the last place
    assert w2sq.shape == want.shape and w2sq[0] == want[0] == 0.0
    assert np.abs(w2sq.view(np.int64) - want.view(np.int64)).max() <= 1


def test_w2_scan_refuses_int64_overflow_before_allocating():
    # W(q) <= q^3 reaches 2^63 at q = 2^21
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="2\\^21"):
            w2_scan(MAX_MODULUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_factorizations_refuse_int32_overflow_before_allocating():
    # the rounds are int32, so q = 2^31 would wrap
    assert next(factorizations(64))[0].dtype == np.int32
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="2\\^31"):
            next(factorizations(2**31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_memory_guard_matches_allocation(monkeypatch):
    Q = 100_000
    estimate = w2_bytes(Q)
    monkeypatch.setenv(BUDGET_ENV, str(estimate))
    tracemalloc.start()
    try:
        w2_scan(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.95 * estimate <= peak <= estimate  # peak / estimate measured 0.990
    monkeypatch.setenv(BUDGET_ENV, str(estimate - 1))
    with pytest.raises(CapacityError):
        w2_scan(Q)
