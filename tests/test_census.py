import math
import tracemalloc

import numpy as np
import pytest

from cubesquares.census import (
    Census,
    DyadicFilter,
    _assert_family_consistency,
    _shift_or,
    _words,
    brute_force_representable,
    census_bytes,
    family_members_upto,
    filter_A_upsilon,
    run_census,
    verify_obstruction_family,
    witness_for,
)
from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import CapacityError, VerificationError


def _fft_bool_square(mask: np.ndarray, N: int) -> np.ndarray:
    """Oracle: positions reachable as a sum of two (possibly equal) set elements, by a real FFT."""
    top = 2 * (mask.size - 1)
    L = 1 << max(1, top.bit_length())
    norm = float(np.sqrt(mask.sum()))
    margin = 8.0 * math.log2(L) * np.finfo(np.float64).eps * norm * norm
    if margin > 0.25:
        raise CapacityError(f"FFT rounding margin {margin:.3g} too large at N={N}")
    f = np.fft.rfft(mask.astype(np.float64), n=L)
    conv = np.fft.irfft(f * f, n=L)
    return conv[: N + 1] > 0.5


def _witness_direct(census, n):
    """Oracle: the ordered c1 <= c2 <= c3 <= c4 scan over all members, no pair filter."""
    members = census.cube_sums.tolist()
    mset = set(members)
    for c1 in members:
        s1 = c1 * c1
        if 4 * s1 > n:
            break
        for c2 in members:
            if c2 < c1:
                continue
            s2 = s1 + c2 * c2
            if s2 + 2 * c2 * c2 > n:
                break
            for c3 in members:
                if c3 < c2:
                    continue
                s3 = s2 + c3 * c3
                if s3 + c3 * c3 > n:
                    break
                rest = n - s3
                c4 = math.isqrt(rest)
                if c4 * c4 == rest and c4 >= c3 and c4 in mset:
                    return (c1, c2, c3, c4)
    return None


def test_counts_frozen():
    c = run_census(1000)
    assert c.E_count == 979
    big = run_census(100_000)
    assert big.E_count == 71407
    assert big.density_curve(10)[:3] == [[10000, 9143], [20000, 17466], [30000, 25167]]
    assert big.E_count == int(big.exceptional.sum())
    cum = np.cumsum(big.exceptional)
    for points in (1, 7, 10):
        ts = [100_000 * i // points for i in range(1, points + 1)]
        assert big.density_curve(points) == [[t, int(cum[t])] for t in ts]
    assert run_census(10**6).E_count == 214116


def test_count_frozen_at_ten_million():
    assert run_census(10**7).E_count == 318295


def _as_int(words: np.ndarray) -> int:
    return int.from_bytes(words.tobytes(), "little")


# sparse seeded sets, every shift residue mod 64 (squares reach only 12 of
# them), and the word edges 0, 63, 64, 65 and the largest shift N
@pytest.mark.parametrize("N", [64, 65, 4097, 20_000])
def test_shift_or_matches_int_oracle(N):
    rng = np.random.default_rng(N)
    W = _words(N)
    words = np.packbits(rng.random(64 * W) < 16 / (64 * W), bitorder="little").view("<u8").copy()
    out = np.packbits(rng.random(64 * W) < 1 / 64, bitorder="little").view("<u8").copy()
    shifts = [0, 63, 64, 65, N] + [64 * int(rng.integers(0, (N - r) // 64 + 1)) + r for r in range(64)]
    src, want = _as_int(words), _as_int(out)
    for b in shifts:
        want |= src << b
    _shift_or(words, np.array(shifts), out, np.empty_like(words), np.empty_like(words))
    mask = (1 << (N + 1)) - 1
    assert _as_int(out) & mask == want & mask


# word boundaries of the uint64 packing (63/64/65, 127/128/129, 4095/4096/4097),
# the first representable n = 36, and the shift group r = 0 (p = 64 w)
@pytest.mark.parametrize("N", [1, 35, 36, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097, 10**5, 10**6])
def test_sumset_matches_fft_oracle(N):
    c = run_census(N)
    assert c.representable.dtype == bool and c.representable.shape == (N + 1,)
    pair = np.unpackbits(c.pair.view(np.uint8), count=N + 1, bitorder="little").view(bool)
    assert np.array_equal(c.representable, _fft_bool_square(pair, N))


def test_memory_guard_matches_allocation(monkeypatch):
    N = 10**6
    estimate = census_bytes(N)
    assert estimate < 3 * N
    monkeypatch.setenv(BUDGET_ENV, str(estimate))
    tracemalloc.start()
    try:
        run_census(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.95 * estimate <= peak <= estimate  # peak / estimate measured 0.995
    monkeypatch.setenv(BUDGET_ENV, str(estimate - 1))
    with pytest.raises(CapacityError):
        run_census(N)


def test_lift_check_fits_census_bytes():
    # the check runs inside run_census with the pair set and representable alive;
    # a dense representable (every n but the family and their 64th parts) is its worst case
    N = 10**6
    r = np.ones(N + 1, dtype=bool)
    r[[1, 64, 4096, 262144]] = False
    c = Census(N=N, cube_sums=np.zeros(0, dtype=np.int64), pair=np.zeros(_words(N), dtype="<u8"), representable=r)
    tracemalloc.start()
    try:
        _assert_family_consistency(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= census_bytes(N) - c.pair.nbytes - r.nbytes


def test_matches_brute_force():
    N = 3000
    c = run_census(N)
    brute = brute_force_representable(N)
    assert np.array_equal(c.representable, brute)


def test_witnesses():
    c = run_census(2000)
    assert witness_for(c, 36) == (3, 3, 3, 3)
    assert witness_for(c, 64) is None  # exceptional
    # a reported witness really is one
    n = 1236
    w = witness_for(c, n)
    if w is not None:
        assert sum(x * x for x in w) == n


def test_witness_matches_direct_scan():
    N = 20_000
    c = run_census(N)
    for n in range(N + 1):
        assert witness_for(c, n) == _witness_direct(c, n), n


@pytest.mark.parametrize("n", [-1, 2001])
def test_witness_outside_census_range(n):
    c = run_census(2000)
    with pytest.raises(ValueError):
        witness_for(c, n)


def test_small_n_all_exceptional():
    c = run_census(100)
    # least member of C is 3, so nothing below 4 * 9 can be hit
    assert not c.representable[:36].any()
    assert c.representable[36]


def test_obstruction_family():
    for j in range(4):
        proof = verify_obstruction_family(j)
        assert proof.n == 2 ** (6 + 12 * j)
        assert proof.verify()
    c = run_census(100_000)
    assert c.exceptional[64]


def test_obstruction_tamper():
    import dataclasses

    proof = verify_obstruction_family(1)
    with pytest.raises(VerificationError):
        dataclasses.replace(proof, forced_root_mod9=5).verify()


def test_lift_tamper():
    import dataclasses

    # 8C is inside C, so representable n has 64 n representable; the census checks it on every run
    c = run_census(10_000)
    n = int(np.flatnonzero(c.representable)[0])
    assert n == 36 and c.representable[64 * n]
    lifted = c.representable.copy()
    lifted[64 * n] = False
    with pytest.raises(VerificationError, match="64 n"):
        _assert_family_consistency(dataclasses.replace(c, representable=lifted))
    member = c.representable.copy()
    member[64] = True
    with pytest.raises(VerificationError, match="family member 64"):
        _assert_family_consistency(dataclasses.replace(c, representable=member))


def test_unlifted_exceptions_frozen_at_a_million():
    # past 2 10^8 every exception is a 64-lift (ROADMAP item 5); at 10^6 the unlifted ones still grow per decade
    decades, largest = run_census(10**6).unlifted_exceptions()
    assert [d[:2] for d in decades] == [[10**k, min(10 ** (k + 1) - 1, 10**6)] for k in range(7)]
    assert [d[2] for d in decades] == [9, 88, 866, 8026, 60955, 134778, 0]
    assert largest == 999_968


@pytest.mark.parametrize("N", [63, 64, 130, 1000, 4095, 20_037])
def test_unlifted_exceptions_match_a_scan(N):
    import dataclasses

    c = run_census(N)
    e = np.flatnonzero(c.exceptional)
    e = e[e % 64 != 0]
    decades, largest = c.unlifted_exceptions()
    assert decades[-1][1] == N
    assert [d[2] for d in decades] == [int(np.count_nonzero((e >= lo) & (e <= hi))) for lo, hi, _ in decades]
    assert largest == int(e[-1])
    # with every exception off the multiples of 64 made representable, none is left
    r = c.representable.copy()
    r[1:][np.arange(1, N + 1) % 64 != 0] = True
    decades, largest = dataclasses.replace(c, representable=r).unlifted_exceptions()
    assert largest is None and all(d[2] == 0 for d in decades)


def test_family_members():
    assert family_members_upto(2**20) == [64, 262144]
    assert family_members_upto(63) == []


def test_filter_frozen():
    f = filter_A_upsilon(10**6, 2.0)
    assert isinstance(f, DyadicFilter)
    assert f.k == 8
    assert f.modulus == 256
    assert f.count == 3906
    assert f.count == 10**6 // 256


def test_filter_k_minimal():
    import math

    f = filter_A_upsilon(10**6, 2.0)
    assert 2**f.k >= math.log(10**6) ** 2.0
    assert 2 ** (f.k - 1) < math.log(10**6) ** 2.0
