import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cubesquares.census import (
    _BLOCK,
    Census,
    DyadicFilter,
    PackedBits,
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
from cubesquares.errors import CapacityError, DegenerateParamsError, VerificationError


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


def _packed(bits: np.ndarray) -> np.ndarray:
    """The uint64 words of a bool array over 0..N, zero past N."""
    N = bits.size - 1
    padded = np.zeros(64 * _words(N), dtype=bool)
    padded[: N + 1] = bits
    return np.packbits(padded, bitorder="little").view("<u8")


def _unpacked(bits: PackedBits) -> np.ndarray:
    """Every bit of the words, past N included, read without the accessors."""
    return np.unpackbits(bits.words.view(np.uint8), bitorder="little").view(bool)


def _with_bit(bits: PackedBits, n: int, value: bool) -> PackedBits:
    """A copy of `bits` with bit n set or cleared."""
    words = bits.words.copy()
    one = np.uint64(1) << np.uint64(n & 63)
    words[n >> 6] = words[n >> 6] | one if value else words[n >> 6] & ~one
    return PackedBits(words, bits.N)


def _exceptional(c: Census) -> np.ndarray:
    out = ~c.representable[:]
    out[0] = False
    return out


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
    exceptional = _exceptional(big)
    assert big.E_count == int(exceptional.sum())
    cum = np.cumsum(exceptional)
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
    _shift_or(words, np.array(shifts), out)
    mask = (1 << (N + 1)) - 1
    assert _as_int(out) & mask == want & mask


def test_shift_or_carries_across_blocks():
    # the carry is taken _BLOCK words at a time; dense words and one shift per call show every carried bit
    W = 2 * _BLOCK + 5
    words = np.frombuffer(np.random.default_rng(7).bytes(8 * W), dtype="<u8").copy()
    src = _as_int(words)
    for b in (1, 63, 64 * 3 + 17):
        out = np.zeros_like(words)
        _shift_or(words, np.array([b]), out)
        assert _as_int(out) == (src << b) & ((1 << (64 * W)) - 1), b


def test_shift_or_blocks_take_every_shift_in_any_order():
    # W - w, the number of source words that land below the top, is on and one
    # word either side of each block edge.  Three shifts per residue group,
    # shuffled, so offsets past the top come before and after ones that fit.
    # The source is sparse, so the 192 shifts leave gaps, but dense on both
    # sides of each block edge and in the last word, so every carry shows.
    W = 2 * _BLOCK + 5
    rng = np.random.default_rng(11)
    words = np.packbits(rng.random(64 * W) < 1 / 512, bitorder="little").view("<u8").copy()
    dense = [_BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, W - 1]
    words[dense] = np.frombuffer(rng.bytes(8 * len(dense)), dtype="<u8")
    out = np.packbits(rng.random(64 * W) < 1 / 64, bitorder="little").view("<u8").copy()
    lands = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1, W]
    shifts = [64 * (W - k) + r for r in range(64) for k in rng.choice(lands, size=3, replace=False).tolist()]
    shifts = rng.permutation(shifts)
    src, want = _as_int(words), _as_int(out)
    for b in shifts.tolist():
        want |= src << b
    want &= (1 << (64 * W)) - 1
    assert 0.2 < want.bit_count() / (64 * W) < 0.8
    _shift_or(words, shifts, out)
    assert _as_int(out) == want


# word boundaries of the uint64 packing (63/64/65, 127/128/129, 4095/4096/4097),
# the first representable n = 36, and the shift group r = 0 (p = 64 w)
@pytest.mark.parametrize("N", [1, 35, 36, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097, 10**5, 10**6])
def test_sumset_matches_fft_oracle(N):
    c = run_census(N)
    want = _fft_bool_square(_unpacked(c.pair)[: N + 1], N)
    # word for word, so the bits past N are 0 in both sets
    assert np.array_equal(c.representable.words, _packed(want))
    assert np.array_equal(c.pair.words, _packed(_unpacked(c.pair)[: N + 1]))
    assert np.array_equal(c.representable[:], want)


# N + 1 = 0, 1 and 63 mod 64, the census's first representable n = 36, and a
# random set dense enough to fill whole words
@pytest.mark.parametrize("N", [1, 62, 63, 64, 65, 126, 4095, 4097])
@pytest.mark.parametrize("source", ["census", "random"])
def test_packed_bits_access_matches_oracle(N, source):
    if source == "census":
        c = run_census(N)
        b = c.representable
        want = _fft_bool_square(_unpacked(c.pair)[: N + 1], N)
    else:
        want = np.random.default_rng(N).random(N + 1) < 0.7
        b = PackedBits(_packed(want).copy(), N)
    assert not _unpacked(b)[N + 1 :].any()
    edges = sorted({0, 1, 35, 36, 37, 63, 64, 65, 127, 128, N // 2, N - 1, N, N + 1, N + 2, 5000})
    for lo in edges + [-1, -N - 2]:
        for hi in edges + [-1, None]:
            assert np.array_equal(b[lo:hi], want[lo:hi]), (lo, hi)
    for lo in edges:
        for hi in edges:
            assert b.count(lo, hi) == int(np.count_nonzero(want[lo:hi])), (lo, hi)
    assert b.count() == int(want.sum())
    idx = np.random.default_rng(N + 1).integers(0, N + 1, size=3 * N + 7)
    assert np.array_equal(b[idx], want[idx])
    assert np.array_equal(b[idx.astype(np.uint64)], want[idx])
    assert np.array_equal(b[np.arange(N + 1)], want)
    assert [b[n] for n in range(N + 1)] == want.tolist()
    assert all(type(b[n]) is bool for n in (0, N, np.int64(N)))
    for bad in (-1, N + 1, np.array([0, N + 1]), np.array([-1])):
        with pytest.raises(IndexError):
            b[bad]
    with pytest.raises(TypeError):
        b[np.array([True])]
    with pytest.raises(ValueError):
        b[::2]
    assert not hasattr(b, "__array__")


def test_packed_bits_span_several_blocks():
    # the popcount and the scan for the largest unlifted exception read _BLOCK words at a time
    N = 64 * (2 * _BLOCK + 3) + 17
    want = np.ones(N + 1, dtype=bool)
    holes = [0, 5, 64, 64 * _BLOCK - 1, 64 * _BLOCK + 1, 64 * _BLOCK + 64, 64 * (2 * _BLOCK) + 3]
    want[holes] = False
    r = PackedBits(_packed(want), N)
    c = Census(N=N, cube_sums=np.zeros(0, dtype=np.int64), pair=r, representable=r)
    for lo, hi in [(0, N + 1), (1, 64 * _BLOCK), (63, 64 * _BLOCK + 2), (64 * _BLOCK - 1, N), (17, 64 * 2 * _BLOCK + 4)]:
        assert c.representable.count(lo, hi) == int(np.count_nonzero(want[lo:hi]))
    assert c.E_count == len(holes) - 1
    decades, largest = c.unlifted_exceptions()
    assert largest == 64 * (2 * _BLOCK) + 3
    assert sum(d[2] for d in decades) == 4  # 5, 64 _BLOCK - 1, 64 _BLOCK + 1 and the largest
    decades, largest = dataclasses.replace(c, representable=_with_bit(c.representable, largest, True)).unlifted_exceptions()
    assert largest == 64 * _BLOCK + 1 and sum(d[2] for d in decades) == 3


def test_memory_guard_matches_allocation(monkeypatch):
    N = 10**6
    estimate = census_bytes(N)
    assert estimate < N  # no (N + 1)-byte array fits
    monkeypatch.setenv(BUDGET_ENV, str(estimate))
    tracemalloc.start()
    try:
        run_census(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.95 * estimate <= peak <= estimate  # peak / estimate measured 0.989
    monkeypatch.setenv(BUDGET_ENV, str(estimate - 1))
    with pytest.raises(CapacityError):
        run_census(N)


def test_lift_check_fits_census_bytes():
    # the check runs inside run_census with the pair set and representable alive;
    # a dense representable (every n but the family and their 64th parts) is its worst case
    N = 10**6
    r = PackedBits(_packed(np.ones(N + 1, dtype=bool)), N)
    for n in (1, 64, 4096, 262144):
        r = _with_bit(r, n, False)
    pair = PackedBits(np.zeros(_words(N), dtype="<u8"), N)
    c = Census(N=N, cube_sums=np.zeros(0, dtype=np.int64), pair=pair, representable=r)
    tracemalloc.start()
    try:
        _assert_family_consistency(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= census_bytes(N) - pair.words.nbytes - r.words.nbytes


def test_matches_brute_force():
    N = 3000
    c = run_census(N)
    brute = brute_force_representable(N)
    assert np.array_equal(c.representable[:], brute)


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
    assert not c.representable[64]


def test_obstruction_tamper():
    proof = verify_obstruction_family(1)
    with pytest.raises(VerificationError):
        dataclasses.replace(proof, forced_root_mod9=5).verify()


def test_lift_tamper():
    # 8C is inside C, so representable n has 64 n representable; the census checks it on every run.
    # 127, the second representable n, is bit 63 of its word and, at N = 64 * 127, the last k = N / 64
    c = run_census(64 * 127)
    assert np.flatnonzero(c.representable[:128]).tolist() == [36, 127]
    for n in (36, 127):
        assert c.representable[64 * n]
        lifted = _with_bit(c.representable, 64 * n, False)
        with pytest.raises(VerificationError, match="64 n"):
            _assert_family_consistency(dataclasses.replace(c, representable=lifted))
    member = _with_bit(c.representable, 64, True)
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
    c = run_census(N)
    e = np.flatnonzero(_exceptional(c))
    e = e[e % 64 != 0]
    decades, largest = c.unlifted_exceptions()
    assert decades[-1][1] == N
    assert [d[2] for d in decades] == [int(np.count_nonzero((e >= lo) & (e <= hi))) for lo, hi, _ in decades]
    assert largest == int(e[-1])
    # with every exception off the multiples of 64 made representable, none is left
    r = c.representable[:]
    r[1:][np.arange(1, N + 1) % 64 != 0] = True
    decades, largest = dataclasses.replace(c, representable=PackedBits(_packed(r), N)).unlifted_exceptions()
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


def _filter_k_loop(N, upsilon):
    """Oracle: the least k with 2^k >= (ln N)^upsilon, by doubling."""
    target = math.log(N) ** upsilon
    k = 0
    while 2**k < target:
        k += 1
    return k


@pytest.mark.parametrize("N", [3, 10, 1000, 10**6, 2**20, 2**20 - 1, 10**12])
def test_filter_matches_doubling_and_refuses_empty_filters(N):
    # upsilon = 6 at N = 10^6 needs 2^23 > N; upsilon = 300 overflows (ln N)^upsilon
    for upsilon in [-2.0, 0.0, 0.5, 1.0, 2.0, 2.5, 6.0, 12.0, 40.0]:
        k = _filter_k_loop(N, upsilon)
        if 2**k <= N:
            assert filter_A_upsilon(N, upsilon).k == k
        else:
            with pytest.raises(DegenerateParamsError):
                filter_A_upsilon(N, upsilon)
    for upsilon in (300.0, 1e308):
        with pytest.raises(DegenerateParamsError):
            filter_A_upsilon(N, upsilon)
