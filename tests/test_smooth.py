import tracemalloc

import pytest
from hypothesis import given, strategies as st

from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import CapacityError
from cubesquares.smooth import enumerate_smooth, estimate_c_eta, smooth_bytes


def _largest_prime_factor(n):
    f, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            f, n = d, n // d
        d += 1
    return max(f, n) if n > 1 else f


def test_tiny_case():
    s = enumerate_smooth(10, 2)
    assert list(s) == [1, 2, 4, 8]
    assert len(s) == 4
    assert 8 in s and 6 not in s and 12 not in s


def test_counting_function_frozen():
    # Psi(10^6, 1000) pinned against an independent sieve run.
    s = enumerate_smooth(10**6, 1000)
    assert len(s) == 344299
    assert estimate_c_eta(10**6, 1000) == 344299 / 10**6


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=2, max_value=50))
def test_membership_matches_factorization(y, R):
    s = enumerate_smooth(500, R)
    assert (y in s) == (_largest_prime_factor(y) <= R)


def test_members_sorted_and_bounded():
    s = enumerate_smooth(1000, 7)
    m = list(s)
    assert m == sorted(m)
    assert m[0] == 1 and m[-1] <= 1000
    assert all(_largest_prime_factor(v) <= 7 for v in m)


def test_smoothset_contains_out_of_range():
    s = enumerate_smooth(100, 3)
    assert 0 not in s
    assert 101 not in s
    assert -4 not in s


@pytest.mark.parametrize("R", [2, 10**6])
def test_memory_guard_matches_allocation(monkeypatch, R):
    # R = 2: the prime sieve is the peak; R = Y: every n is smooth, and the members are the peak
    Y = 10**6
    count = len(enumerate_smooth(Y, R))
    need = smooth_bytes(Y, count)
    monkeypatch.setenv(BUDGET_ENV, str(need))
    tracemalloc.start()
    try:
        s = enumerate_smooth(Y, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s) == count
    # the estimate bounds the allocation and is not far above it
    assert 0.9 * need <= peak <= need
    monkeypatch.setenv(BUDGET_ENV, str(need - 1))
    with pytest.raises(CapacityError):
        enumerate_smooth(Y, R)
