import tracemalloc

import numpy as np
import pytest

from cubesquares.cubesieve import BUDGET_ENV, memory_budget, reserve, sieve_bytes, sieve_cube_sums
from cubesquares.errors import CapacityError


def _brute_r3(X):
    counts = np.zeros(X + 1, dtype=np.int64)
    k = 1
    while k**3 <= X - 2:
        m = 1
        while k**3 + m**3 <= X - 1:
            j = 1
            while k**3 + m**3 + j**3 <= X:
                counts[k**3 + m**3 + j**3] += 1
                j += 1
            m += 1
        k += 1
    return counts


def test_members_frozen_prefix():
    sv = sieve_cube_sums(30)
    assert sv.members.tolist() == [3, 10, 17, 24, 29]


def test_counts_match_brute_force():
    X = 400
    sv = sieve_cube_sums(X, with_counts=True)
    brute = _brute_r3(X)
    for n in range(X + 1):
        assert sv.r3(n) == brute[n], n
    assert np.array_equal(sv.flags, brute > 0)


def test_flags_only_mode():
    sv = sieve_cube_sums(200, with_counts=False)
    assert sv.counts is None
    brute = _brute_r3(200)
    assert np.array_equal(sv.flags, brute > 0)
    with pytest.raises(ValueError):
        sv.r3(3)


def test_budget_guard(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "1024")
    with pytest.raises(CapacityError):
        sieve_cube_sums(10**6)


@pytest.mark.parametrize("X, with_counts", [(10**6, False), (10**7, False), (10**5, True), (10**6, True)])
def test_memory_guard_matches_allocation(monkeypatch, X, with_counts):
    need = sieve_bytes(X, with_counts)
    monkeypatch.setenv(BUDGET_ENV, str(need))
    tracemalloc.start()
    try:
        sv = sieve_cube_sums(X, with_counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sv.flags[3]
    # the estimate bounds the allocation and is not far above it
    assert 0.9 * need <= peak <= need
    monkeypatch.setenv(BUDGET_ENV, str(need - 1))
    with pytest.raises(CapacityError):
        sieve_cube_sums(X, with_counts)


def test_memory_budget_reads_the_env(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    assert memory_budget() == 2**31
    monkeypatch.setenv(BUDGET_ENV, "4096")
    assert memory_budget() == 4096
    reserve(4096, "a table")
    with pytest.raises(CapacityError, match="a table needs ~4097 bytes > budget 4096"):
        reserve(4097, "a table")


@pytest.mark.parametrize("value", ["abc", "1e9", "0", "-5", "", "2.5"])
def test_memory_budget_rejects_non_positive_integers(monkeypatch, value):
    monkeypatch.setenv(BUDGET_ENV, value)
    with pytest.raises(ValueError, match=BUDGET_ENV):
        memory_budget()
