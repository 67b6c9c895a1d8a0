import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import CapacityError
from cubesquares.localsolve import _four_fold_square_distribution
from cubesquares.residues import (
    cube_residue_counts,
    cyclic_convolve,
    cyclic_convolve_direct,
    distribution_bytes,
    square_pushforward,
    t_distribution,
    t_square_distribution,
)


def test_t_distribution_frozen():
    assert t_distribution(9) == (189, 162, 81, 27, 0, 0, 27, 81, 162)
    assert t_distribution(1) == (1,)


@given(st.integers(min_value=1, max_value=80))
def test_distributions_total(q):
    assert sum(t_distribution(q)) == q**3
    assert sum(t_square_distribution(q)) == q**3


@given(st.integers(min_value=1, max_value=60))
def test_cube_counts_sum(q):
    c = cube_residue_counts(q)
    assert int(np.sum(c)) == q


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=10**6),
)
def test_kronecker_convolution_matches_direct(q, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 10**6, size=q)
    b = rng.integers(0, 10**6, size=q)
    fast = cyclic_convolve(a, b, q)
    slow = cyclic_convolve_direct(a, b, q)
    assert list(fast) == list(slow)


def test_square_pushforward():
    c = cube_residue_counts(7)
    s = square_pushforward(c, 7)
    expected = np.zeros(7, dtype=np.int64)
    for m in range(7):
        expected[(m * m) % 7] += c[m]
    assert np.array_equal(np.asarray(s), expected)


def test_cube_counts_large_modulus_path():
    # the int64 path against pow(x, 3, q), then past 2^21 at a prime
    # q = 2 mod 3, where cubing is a bijection and every count is 1
    q = 2**12
    c = cube_residue_counts(q)
    brute = np.zeros(q, dtype=np.int64)
    for x in range(q):
        brute[pow(x, 3, q)] += 1
    assert np.array_equal(np.asarray(c), brute)
    q = 2_097_257
    assert q > 2**21 and q % 3 == 2 and all(q % d for d in range(2, math.isqrt(q) + 1))
    assert set(cube_residue_counts(q)) == {1}


def test_cube_counts_reject_int64_overflow():
    with pytest.raises(ValueError):
        cube_residue_counts(0)
    with pytest.raises(ValueError):
        cube_residue_counts(3_037_000_500)  # q^2 >= 2^63; raised before any allocation


@pytest.mark.parametrize("q", [1009, 4001])
def test_memory_guard_matches_allocation(monkeypatch, q):
    for build, power in ((t_distribution, 3), (_four_fold_square_distribution, 12)):
        need = distribution_bytes(q, power)
        monkeypatch.setenv(BUDGET_ENV, str(need))
        for cached in (t_distribution, t_square_distribution, _four_fold_square_distribution):
            cached.cache_clear()
        tracemalloc.start()
        try:
            build(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.75 * need <= peak <= need
        build.cache_clear()
        monkeypatch.setenv(BUDGET_ENV, str(need - 1))
        with pytest.raises(CapacityError):
            build(q)
