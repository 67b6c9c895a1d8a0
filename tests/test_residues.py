import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubesquares import residues
from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import CapacityError
from cubesquares.localsolve import _two_fold_square_distribution, local_count_Mn
from cubesquares.params import primes_upto
from cubesquares.residues import (
    MAX_MODULUS,
    cube_residue_counts,
    cyclic_convolve,
    distribution_bytes,
    square_pushforward,
    t_distribution,
    t_square_distribution,
)

# -- oracles: the list-based code the int64 arrays replaced, kept verbatim ----


def _cyclic_convolve_lists(a: list[int], b: list[int], q: int) -> list[int]:
    """Exact cyclic convolution via Kronecker substitution.

    Coefficients of the linear product are bounded by total(a) * total(b),
    so a byte slot of that width can never carry across entries.
    """
    if len(a) != q or len(b) != q:
        raise ValueError("inputs must have length q")
    a = [int(v) for v in a]
    b = [int(v) for v in b]
    ta = sum(a)
    tb = sum(b)
    if ta == 0 or tb == 0:
        return [0] * q
    slot = ((ta * tb).bit_length() + 7) // 8 + 1
    abig = int.from_bytes(b"".join(int(c).to_bytes(slot, "little") for c in a), "little")
    bbig = int.from_bytes(b"".join(int(c).to_bytes(slot, "little") for c in b), "little")
    prod = (abig * bbig).to_bytes(2 * q * slot, "little")
    out = [0] * q
    for k in range(2 * q - 1):
        c = int.from_bytes(prod[k * slot : (k + 1) * slot], "little")
        if c:
            out[k % q] += c
    return out


def cyclic_convolve_direct(a: list[int], b: list[int], q: int) -> list[int]:
    """Schoolbook cyclic convolution; exact, O(q^2); the oracle path."""
    out = [0] * q
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[(i + j) % q] += ai * bj
    return out


def _square_pushforward_lists(counts: list[int], q: int) -> list[int]:
    """Push a distribution through t -> t^2 (mod q)."""
    out = [0] * q
    for s, c in enumerate(counts):
        if c:
            out[(s * s) % q] += c
    return out


def _t_distribution_lists(q: int) -> list[int]:
    c = cube_residue_counts(q).tolist()
    return _cyclic_convolve_lists(_cyclic_convolve_lists(c, c, q), c, q)


def _four_fold_square_distribution(q: int) -> tuple[int, ...]:
    # the former localsolve build, on the list oracles end to end
    d = _square_pushforward_lists(_t_distribution_lists(q), q)
    dd = _cyclic_convolve_lists(d, d, q)
    return tuple(_cyclic_convolve_lists(dd, dd, q))


def _prime_powers_upto(Q: int) -> list[int]:
    out = []
    for p in primes_upto(Q).tolist():
        q = p
        while q <= Q:
            out.append(q)
            q *= p
    return out


# -- tests ---------------------------------------------------------------------


def test_t_distribution_frozen():
    assert np.array_equal(t_distribution(9), [189, 162, 81, 27, 0, 0, 27, 81, 162])
    assert np.array_equal(t_distribution(1), [1])
    assert t_distribution(9).dtype == np.int64


def test_distributions_match_list_oracle():
    for q in sorted(set(range(1, 81)) | set(_prime_powers_upto(1024))):
        t = _t_distribution_lists(q)
        assert t_distribution(q).tolist() == t, q
        assert t_square_distribution(q).tolist() == _square_pushforward_lists(t, q), q


@given(st.integers(min_value=1, max_value=80))
def test_distributions_total(q):
    assert int(t_distribution(q).sum()) == q**3
    assert int(t_square_distribution(q).sum()) == q**3


def test_cached_distributions_are_read_only():
    dd = _two_fold_square_distribution(4001)
    assert dd.dtype == object  # 4001^6 > 2^63: Python ints rebuilt from limbs
    for a in (t_distribution(7), t_square_distribution(7), _two_fold_square_distribution(7), dd):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


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


@pytest.mark.parametrize("bound", [2**20, 2**40, 2**54])
def test_kronecker_convolution_matches_list_oracle(bound):
    # products of totals past 2^63 take the object path, rebuilt from two or three limbs
    rng = np.random.default_rng(bound % 1009)
    for q in (1, 2, 17, 333):
        a = rng.integers(0, bound, size=q)
        b = rng.integers(0, bound, size=q)
        assert cyclic_convolve(a, b, q).tolist() == _cyclic_convolve_lists(a, b, q)
        assert cyclic_convolve(a, a, q).tolist() == _cyclic_convolve_lists(a, a, q)
        assert cyclic_convolve(np.zeros(q, np.int64), b, q).tolist() == [0] * q


def _spy_convolve(monkeypatch) -> list:
    """Record each `np.convolve` call, the direct route's one per convolution."""
    calls = []
    convolve = np.convolve
    monkeypatch.setattr(np, "convolve", lambda x, y: calls.append(1) or convolve(x, y))
    return calls


def test_convolution_route_boundary(monkeypatch):
    # totals multiplying to 2^53 - 1 take float64, 2^53 and 2^54 - 2^28 take Kronecker; each case has an odd
    # coefficient past 2^52, folded in from the top, and the 2^54 - 2^28 one's is past 2^53, where float64 would
    # round it
    calls = _spy_convolve(monkeypatch)
    # entries: an odd r and the odd t - r for each total t, so each case's product of big entries is odd
    cases = [
        (6361 * 69431, 20394401, 2, True),  # 2^53 - 1 = 6361 * 69431 * 20394401
        (2**26, 2**27, 1, False),
        (2**27, 2**27 - 2, 1, False),
    ]
    for ta, tb, r, direct in cases:
        a = np.array([r, 0, ta - r], dtype=np.int64)
        b = np.array([0, tb - r, r], dtype=np.int64)
        assert (ta - r) * (tb - r) % 2 == 1 and (ta - r) * (tb - r) > 2**52
        calls.clear()
        got = cyclic_convolve(a, b, 3)
        assert got.tolist() == cyclic_convolve_direct(a.tolist(), b.tolist(), 3)
        assert bool(calls) == direct, (ta, tb)


def test_convolution_route_by_modulus(monkeypatch):
    # with the crossover moved down to q = 12, q = 11 takes float64 and q = 12 Kronecker, far below 2^53;
    # T's two convolutions and the memory estimate take the same route
    calls = _spy_convolve(monkeypatch)
    monkeypatch.setattr(residues, "DIRECT_BELOW_MODULUS", 12)
    rng = np.random.default_rng(12)
    try:
        for q, direct in ((11, True), (12, False)):
            a, b = rng.integers(0, 1000, size=q), rng.integers(0, 1000, size=q)
            for x, y in ((a, b), (a, a)):
                calls.clear()
                assert cyclic_convolve(x, y, q).tolist() == cyclic_convolve_direct(x.tolist(), y.tolist(), q)
                assert bool(calls) == direct, q
            t_distribution.cache_clear()
            calls.clear()
            c = cube_residue_counts(q).tolist()
            assert t_distribution(q).tolist() == cyclic_convolve_direct(cyclic_convolve_direct(c, c, q), c, q)
            assert len(calls) == (2 if direct else 0)
            assert (distribution_bytes(q, 3) == q * (16 + 40) + 2**13) == direct
    finally:
        t_distribution.cache_clear()


def test_square_pushforward():
    c = cube_residue_counts(7)
    s = square_pushforward(c, 7)
    expected = np.zeros(7, dtype=np.int64)
    for m in range(7):
        expected[(m * m) % 7] += c[m]
    assert np.array_equal(np.asarray(s), expected)


@pytest.mark.parametrize(
    "p, h, ns",
    [
        (2, 8, range(256)),
        (7, 3, range(20)),
        (2, 11, (0, 1, 2, 64, 1000, 2047)),
        (97, 2, (0, 1, 6, 97, 4705, 9408)),
    ],
)
def test_local_count_matches_four_fold_oracle(p, h, ns):
    four = _four_fold_square_distribution(p**h)
    assert [local_count_Mn(p, h, n) for n in ns] == [four[n] for n in ns]
    if p**h == 256:
        assert four[64] == 48413701182379602730811392


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
    assert set(cube_residue_counts(q).tolist()) == {1}


def test_cube_counts_reject_int64_overflow():
    with pytest.raises(ValueError):
        cube_residue_counts(0)
    with pytest.raises(ValueError):
        cube_residue_counts(3_037_000_500)  # q^2 >= 2^63; raised before any allocation


def test_t_distribution_refuses_int64_overflow_before_allocating():
    assert (MAX_MODULUS - 1) ** 3 < 2**63 <= MAX_MODULUS**3
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            t_distribution(MAX_MODULUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@pytest.mark.parametrize("q", [1009, 4001])
def test_memory_guard_matches_allocation(monkeypatch, q):
    for build, power in ((t_distribution, 3), (_two_fold_square_distribution, 6)):
        need = distribution_bytes(q, power)
        monkeypatch.setenv(BUDGET_ENV, str(need))
        for cached in (t_distribution, t_square_distribution, _two_fold_square_distribution):
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
