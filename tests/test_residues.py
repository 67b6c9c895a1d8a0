import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubesquares import residues
from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import CapacityError, VerificationError
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
    # products of totals past 2^63 take the object path
    rng = np.random.default_rng(bound % 1009)
    for q in (1, 2, 17, 333):
        a = rng.integers(0, bound, size=q)
        b = rng.integers(0, bound, size=q)
        assert cyclic_convolve(a, b, q).tolist() == _cyclic_convolve_lists(a, b, q)
        assert cyclic_convolve(a, a, q).tolist() == _cyclic_convolve_lists(a, a, q)
        assert cyclic_convolve(np.zeros(q, np.int64), b, q).tolist() == [0] * q


def test_convolution_at_the_float64_boundaries():
    # totals multiplying to 2^53 - 1, 2^53 and 2^54 - 2^28; each case has an odd coefficient past 2^52, folded in
    # from the top, and the 2^54 - 2^28 one's is past 2^53, where one float64 product would round it
    # entries: an odd r and the odd t - r for each total t, so each case's product of big entries is odd
    cases = [
        (6361 * 69431, 20394401, 2),  # 2^53 - 1 = 6361 * 69431 * 20394401
        (2**26, 2**27, 1),
        (2**27, 2**27 - 2, 1),
    ]
    for ta, tb, r in cases:
        a = np.array([r, 0, ta - r], dtype=np.int64)
        b = np.array([0, tb - r, r], dtype=np.int64)
        assert (ta - r) * (tb - r) % 2 == 1 and (ta - r) * (tb - r) > 2**52
        assert cyclic_convolve(a, b, 3).tolist() == cyclic_convolve_direct(a.tolist(), b.tolist(), 3)


def test_limb_wider_than_the_bound_raises(monkeypatch):
    # one limb as wide as the entries: 20 bits at q = 4001, where the bound allows fewer, and 31 bits at q = 3
    a = np.random.default_rng(4001).integers(0, 2**20, size=4001)
    b = np.array([2**31 - 1, 2**31 - 3, 2**31 - 5], dtype=np.int64)
    for v in (a, b):
        stats = residues._limb_stats(v)
        assert residues._limb_bits(residues._fft_length(2 * v.size - 1), stats, stats) < stats[2]
    monkeypatch.setattr(residues, "_limb_bits", lambda L, a, b: max(a[2], b[2]))
    # coefficients near 2^50 come back half an integer off
    with pytest.raises(VerificationError, match="lie up to 0.5 from integers"):
        cyclic_convolve(a, a, 4001)
    # coefficients near 2^63, where float64 holds only integers, so no rounding shows: caught by their size
    with pytest.raises(VerificationError, match=r"up to 1.38e\+19 lie up to 0 from"):
        cyclic_convolve(b, b, 3)


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(",".join(map(str, a.tolist())).encode()).hexdigest()


# sha256 of the comma-joined counts of T, T^2 and the two-fold T^2 table, as the direct and Kronecker routes built them
PINNED = {
    97: (
        "cf211f716f0fd7230354ec690d3fc9cebd46296a444408fc96bc4544de248876",
        "52d9858c4d0b84a144a55410abfa952504c2f63bc810d59faed79a7bccc686d9",
        "5c0c182c55e68e39d59a7d126cf0a03593e5b8f28ca1e5f0745e27072d6ff86e",
    ),
    1_009: (
        "ed87eb9a1184058e275c4b026a69b177ab96ffcc82ad8e77a800a0657c5b556b",
        "998ba2b340af008cf9d0666126c3818a0173ccc0642a1c06fddb593a367dae91",
        "903da1d47dff708a99ff4b53a1a765616bc431bb75498619af92657cfc1adc10",
    ),
    1_024: (
        "cd8427c4e5afcb0951cb7f4a60eb8d8fff455d4cb14dbdf8cff1cb8f99998843",
        "03ce62988702f739d847ca992a9dba0ebb0b71c3bf7b00ba14e29233653fb733",
        "e4c202f296b60d0007978c52bf42e965be909f333debf1534d398586a5796136",
    ),
    2_187: (
        "b0c58fa8b4aeaaaee72d045bb2ba220b8bd510dbf79e0e60d940cdb26c013b52",
        "b3e4b4b2e3d32bd05919e5b2a1122cf5ed09d5f7101abd3bb4a08a520345ae72",
        "46a5693937acff3ed09ae634c91408bd5ab85c86dbd3bec873dc89348a1d515d",
    ),
    4_001: (
        "ed3ff720295082cf4d5a01d56053d81fe38467da1bf942bb58af90cc66f3e7aa",
        "bd1c6089f473182bd7cebbce40efc776c1b573e6528acc871ce971f969f042cf",
        "83840cd149d6eafaa77ec7b273fea907479c7aeebca0d1c210dd754ce8e6ce79",
    ),
    29_989: (
        "e0a80db98607a2c0ef245f239df56da3cc19f458ed0b99295bc19524964ddf83",
        "d98abc709d589e2946bf2471538b4e42e858a88ea62f02dfc51b8611a96d7781",
        "babab56d208f19d5236b98756611cd7bc3b2abf8bc4c6b315ded4c9bcbd2b128",
    ),
    30_011: (
        "f03acb7273914b705522110ea926bacdd569171a45b966cb41b6b0bdb41e8693",
        "df8d11cb415d37d4232ea7413254dc1fb966c39f2e72de1f10aab91386cb75c5",
        "c6be5bef6bef6e37f0bbb9f4c8cdecb258536bad53632fdfe5106b0e859005d7",
    ),
    65_003: (
        "b8434528f5dc1913a6f49d5e9258a8f7d7643283d0d6f399d812f42411a60dd8",
        "59f5489fd87fd849bd23261d1aaa5bd14a984b3f6f2d13fa9889455af3ee7653",
        "a4342861fc85f6ba03a63a0c324ae345c10e29ecf0615a9da5aa9589b95aa0f6",
    ),
    100_003: (
        "1c7e7aa224387c395072edfe810f28ab13217267a6087f68f78f8417f079950d",
        "cce2196e313aabff94454d4a56ed09d02833900d9d84f131aedebc4b9686e99f",
        "8ce91c6726fb49768a4eb914d0b78a37c0cc9becde09385b4feec568068486d1",
    ),
    208_067: (
        "722daf8b5c686bfe4277a6b33bcfce2fd179197a97afe9bdd8a028cfffe56c68",
        "5b9d88f4eb96a12e6c447c5352a4ec4016b4d0bb3f5805b83e914a6a064acfbc",
        "41a3aaa4a30685712fed9f448a82a8cc0b488e1d1c8b48752684868c7e9fe0d1",
    ),

}


@pytest.mark.parametrize("q", sorted(PINNED))
def test_distributions_pinned(q):
    built = (t_distribution(q), t_square_distribution(q), _two_fold_square_distribution(q))
    assert tuple(map(_digest, built)) == PINNED[q]


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


@pytest.mark.parametrize("q", [1009, 4001, 65003])
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
