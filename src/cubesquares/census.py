"""Exceptional-set census: which n are four squares of three-cube sums.

C = sums of three positive cubes (min 3).  n is representable when
n = c1^2 + c2^2 + c3^2 + c4^2 with all ci in C.  The census builds the
pair set A = {c1^2 + c2^2} <= N in bit-packed uint64 words, takes its
sumset A + A exactly in integers by shift-OR, keeps both packed
(`PackedBits`, never an (N + 1)-byte bool array), and reports the exceptional
set E(N), witnesses, and the provable obstruction family n = 2^(6+12j),
checking that family and the lift n -> 64 n on every run.  A is itself
B + B with B = {c^2 <= N} (379 members at N = 10^7), so A + A =
(A + B) + B is two passes of one shifted OR per square.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .cubesieve import reserve, sieve_cube_sums
from .errors import DegenerateParamsError, VerificationError
from .params import floor_nth_root


_BLOCK = 1 << 15  # words per block of the carry, popcount and scan loops: 256 KiB of scratch
_ALL = (1 << 64) - 1


def _words(N: int) -> int:
    """uint64 words holding bits 0..N."""
    return (N + 1 + 63) // 64


def _ones(words: np.ndarray, lo: int, hi: int, fill: int = 0) -> int:
    """Set bits of w | fill, for each word w of `words`, at bit positions lo <= n < hi.

    The words are read in blocks of `_BLOCK`, so the scratch stays small;
    the edge words lose the bits below lo and from hi on.
    """
    if lo >= hi:
        return 0
    w0, w1 = lo >> 6, (hi - 1) >> 6
    total = 0
    for a in range(w0, w1 + 1, _BLOCK):
        block = words[a : min(a + _BLOCK, w1 + 1)]
        if fill:
            block = block | np.uint64(fill)
        total += int(np.bitwise_count(block).sum())
    total -= ((int(words[w0]) | fill) & ((1 << (lo & 63)) - 1)).bit_count()
    total -= ((int(words[w1]) | fill) >> (((hi - 1) & 63) + 1)).bit_count()
    return total


class PackedBits:
    """A set of n in 0..N as uint64 words: bit k of word w stands for n = 64 w + k.

    The bits past N are 0, so popcounts are exact.  `b[n]` is a bool,
    `b[int_array]` a bool array, `b[lo:hi]` unpacks only that range and
    `count(lo, hi)` counts the members in [lo, hi).  There is no
    `__array__`: nothing rebuilds the (N + 1)-byte bool array unasked.
    """

    __slots__ = ("words", "N")

    def __init__(self, words: np.ndarray, N: int):
        if words.dtype != np.dtype("<u8") or words.shape != (_words(N),):
            raise ValueError(f"expected {_words(N)} little-endian uint64 words for bits 0..{N}")
        self.words = words
        self.N = N

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, step = key.indices(self.N + 1)
            if step != 1:
                raise ValueError("PackedBits slices take no step")
            hi = max(lo, hi)
            w0 = lo >> 6
            part = self.words[w0 : -(-hi // 64)].view(np.uint8)
            return np.unpackbits(part, count=hi - 64 * w0, bitorder="little").view(bool)[lo - 64 * w0 :]
        if isinstance(key, np.ndarray):
            if key.dtype.kind not in "iu":
                raise TypeError("PackedBits takes an integer index array")
            k = key.astype(np.uint64)  # a negative index wraps past N
            if k.size and k.max() > self.N:
                raise IndexError(f"index outside 0..{self.N}")
            return ((self.words[k >> 6] >> (k & 63)) & 1).astype(bool)
        n = operator.index(key)
        if not 0 <= n <= self.N:
            raise IndexError(f"index {n} outside 0..{self.N}")
        return bool(int(self.words[n >> 6]) >> (n & 63) & 1)

    def count(self, lo: int = 0, hi: int | None = None) -> int:
        """Members n with lo <= n < hi (hi defaults to N + 1)."""
        hi = self.N + 1 if hi is None else min(hi, self.N + 1)
        return _ones(self.words, max(lo, 0), hi)


@dataclass
class Census:
    """Representability data for 1..N."""

    N: int
    cube_sums: np.ndarray = field(repr=False)  # members of C up to floor(sqrt(N))
    pair: PackedBits = field(repr=False)  # sums of two C-member squares
    representable: PackedBits = field(repr=False)  # sums of four C-member squares

    @property
    def E_count(self) -> int:
        return self.N - self.representable.count(1)

    def density_curve(self, points: int = 10) -> list[list[int]]:
        """[[t, |E(t)|], ...] at t = N/points, 2N/points, ..., N."""
        out = []
        count = 0
        prev = 0
        for i in range(1, points + 1):
            t = self.N * i // points
            # exceptional n in (prev, t]; 0 is neither representable nor exceptional
            count += (t - prev) - self.representable.count(prev + 1, t + 1)
            prev = t
            out.append([int(t), count])
        return out

    def unlifted_exceptions(self) -> tuple[list[list[int]], int | None]:
        """The exceptions not divisible by 64: [lo, hi, count] per decade [10^k, 10^(k+1)) cut at N, and the largest.

        An exception divisible by 64 is the 64-lift of a smaller one (8C is
        inside C), so these are the exceptions the lift does not explain.
        They are the 0 bits of the words with bit 0 (n = 64 w) read as 1,
        counted and scanned block by block.
        """
        words, N = self.representable.words, self.N
        decades = []
        lo = 1
        while lo <= N:
            hi = min(10 * lo - 1, N)
            decades.append([lo, hi, (hi + 1 - lo) - _ones(words, lo, hi + 1, fill=1)])
            lo *= 10
        # the last word, with its bits past N read as 1, then whole words from the top down
        last = N >> 6
        top = int(words[last]) | 1 | (_ALL ^ ((2 << (N & 63)) - 1))
        if top != _ALL:
            return decades, 64 * last + (_ALL ^ top).bit_length() - 1
        for b in range(last, 0, -_BLOCK):
            a = max(0, b - _BLOCK)
            short = np.flatnonzero((words[a:b] | np.uint64(1)) != np.uint64(_ALL))
            if short.size:
                w = a + int(short[-1])
                return decades, 64 * w + (_ALL ^ (int(words[w]) | 1)).bit_length() - 1
        return decades, None


def census_bytes(N: int) -> int:
    """Upper bound on the bytes `run_census(N)` allocates at once.

    During the second shift-OR pass four word arrays are alive: the packed
    pair set, the three-square sums, the shifted copy and the four-square
    sums, plus one block of carry words.  The 64-lift check afterwards
    holds the pair set, the four-square sums and about N / 16 bytes.
    The cube-sum members, their squares and the per-square bit scatter are
    O(sqrt N).
    """
    W = _words(N)
    small = 2**13 + 8 * floor_nth_root(N, 2)
    return 8 * (4 * W + min(_BLOCK, W)) + small


def _sumset(pair: np.ndarray, squares: np.ndarray, N: int) -> np.ndarray:
    """Packed words over 0..N: sums of four squares from `squares`, exactly, by shift-OR on uint64 words.

    `pair` holds the sums of two of them as packed words (bit k of word w
    stands for 64 w + k) and is left intact.  The sumset pair + pair is
    (pair + squares) + squares: two passes of one shift per square.  The
    bits past N are cleared.
    """
    three = np.zeros_like(pair)
    sh = np.empty_like(pair)
    _shift_or(pair, squares, three, sh)
    four = np.zeros_like(pair)
    _shift_or(three, squares, four, sh)
    four[-1] &= np.uint64((2 << (N & 63)) - 1)
    return four


def _shift_or(words: np.ndarray, shifts: np.ndarray, out: np.ndarray, sh: np.ndarray) -> None:
    """OR `words` shifted left by every b in `shifts` (all below 64 * words.size) into `out`.

    `sh` is a scratch array of the same size as `words`.

    Shifts are grouped by r = b mod 64, and one copy of `words` shifted left
    by r bits, with the carry from the word below, serves the whole group:
    for b = 64 w + r it is OR-ed in w words further on.  The carry is taken
    in blocks of `_BLOCK` words.  Bits shifted past the last word are
    dropped.  Left shifts only move bits past N further up, where
    `_sumset` clears them.
    """
    W = words.size
    carry = np.empty(min(_BLOCK, W), dtype=words.dtype)
    for r in range(64):
        ws = (shifts[shifts % 64 == r] // 64).tolist()
        if not ws:
            continue
        src = words
        if r:
            src = sh
            np.left_shift(words, r, out=sh)
            for a in range(0, W - 1, _BLOCK):
                b = min(a + _BLOCK, W - 1)
                c = carry[: b - a]
                np.right_shift(words[a:b], 64 - r, out=c)
                sh[a + 1 : b + 1] |= c
        for w in ws:
            out[w:] |= src[: W - w]


def run_census(N: int) -> Census:
    if N < 1:
        raise ValueError("N must be >= 1")
    reserve(census_bytes(N), f"census at N={N}")
    root = floor_nth_root(N, 2)
    sieve = sieve_cube_sums(root)
    members = sieve.members
    pair = np.zeros(_words(N), dtype="<u8")
    sq = members.astype(np.int64) ** 2
    for c2 in sq.tolist():
        s = sq[sq <= N - c2] + c2
        np.bitwise_or.at(pair, s >> 6, np.uint64(1) << (s & 63).astype(np.uint64))
    four = _sumset(pair, sq, N)
    cens = Census(N=N, cube_sums=members, pair=PackedBits(pair, N), representable=PackedBits(four, N))
    _assert_family_consistency(cens)
    return cens


def witness_for(census: Census, n: int) -> tuple[int, int, int, int] | None:
    """Lexicographically least c1 <= c2 <= c3 <= c4 with sum of squares n.

    For each c1 the c2 are filtered in one step: c3^2 + c4^2 = n - c1^2 - c2^2
    must be at least 2 c2^2 and in `census.pair`.  Only those c2 get the
    ordered c3 scan.
    """
    if not 0 <= n <= census.N:
        raise ValueError(f"n={n} is outside the census range 0..{census.N}")
    members = census.cube_sums.tolist()
    mset = set(members)
    sq = census.cube_sums.astype(np.int64) ** 2
    for i, c1 in enumerate(members):
        s1 = c1 * c1
        if 4 * s1 > n:
            break
        rest = n - s1 - sq[i:]
        ok = rest >= 2 * sq[i:]
        r = rest[ok]
        ok[ok] = census.pair[r]
        for j in (np.flatnonzero(ok) + i).tolist():
            c2 = members[j]
            s2 = s1 + c2 * c2
            for c3 in members[j:]:
                s3 = s2 + c3 * c3
                if s3 + c3 * c3 > n:
                    break
                c4 = math.isqrt(n - s3)
                if c4 * c4 == n - s3 and c4 >= c3 and c4 in mset:
                    return (c1, c2, c3, c4)
    return None


def brute_force_representable(N: int) -> np.ndarray:
    """Quadruple loop oracle over C intersect [1, sqrt(N)]; O(|C|^3 sqrt)."""
    root = floor_nth_root(N, 2)
    members = sieve_cube_sums(root).members.tolist()
    mset = {m * m for m in members}
    out = np.zeros(N + 1, dtype=bool)
    for c1 in members:
        for c2 in members:
            s2 = c1 * c1 + c2 * c2
            if s2 > N:
                break
            for c3 in members:
                s3 = s2 + c3 * c3
                if s3 > N:
                    break
                for s4 in mset:
                    if s3 + s4 <= N:
                        out[s3 + s4] = True
    return out


# -- the provable obstruction family ------------------------------------------


@dataclass
class ObstructionProof:
    """Modular descent showing 2^(6+12j) is not representable.

    Any four-square representation of a multiple of 8 has all roots even
    (checked over all residues mod 8), so dividing by 4 descends until the
    target is 4, forcing every root to be 2^(2+6j); but that is 4 mod 9,
    and sums of three cubes mod 9 omit {4, 5} (checked), contradiction.
    """

    j: int
    n: int
    descents: int
    forced_root: int
    forced_root_mod9: int

    def verify(self) -> bool:
        if self.n != 2 ** (6 + 12 * self.j):
            raise VerificationError("family member mismatch")
        # descent step: residues mod 8 with s1^2+..+s4^2 = 0 (mod 8) are all even
        for a in range(8):
            for b in range(8):
                for c in range(8):
                    for d in range(8):
                        if (a * a + b * b + c * c + d * d) % 8 == 0 and (a % 2 or b % 2 or c % 2 or d % 2):
                            raise VerificationError("descent step failed: odd root mod 8")
        m = self.n
        k = 0
        while m % 8 == 0:
            m //= 4
            k += 1
        if m != 4 or k != self.descents:
            raise VerificationError(f"descent lands at {m} after {k} steps, expected 4 after {self.descents}")
        # positive solutions of z1^2+..+z4^2 = 4 are exactly (1,1,1,1)
        sols = [
            (z1, z2, z3, z4)
            for z1 in range(1, 3)
            for z2 in range(1, 3)
            for z3 in range(1, 3)
            for z4 in range(1, 3)
            if z1 * z1 + z2 * z2 + z3 * z3 + z4 * z4 == 4
        ]
        if sols != [(1, 1, 1, 1)]:
            raise VerificationError("terminal equation has unexpected solutions")
        if self.forced_root != 2 ** (2 + 6 * self.j):
            raise VerificationError("forced root mismatch")
        if self.forced_root % 9 != self.forced_root_mod9 or self.forced_root_mod9 != 4:
            raise VerificationError("forced root is not 4 mod 9")
        cube_sums_mod9 = {(a**3 + b**3 + c**3) % 9 for a in range(9) for b in range(9) for c in range(9)}
        if self.forced_root_mod9 in cube_sums_mod9:
            raise VerificationError("forced root residue is attainable by three cubes mod 9")
        return True


def verify_obstruction_family(j: int) -> ObstructionProof:
    n = 2 ** (6 + 12 * j)
    proof = ObstructionProof(
        j=j, n=n, descents=2 + 6 * j, forced_root=2 ** (2 + 6 * j), forced_root_mod9=2 ** (2 + 6 * j) % 9
    )
    proof.verify()
    return proof


def family_members_upto(N: int) -> list[int]:
    return [2**k for k in range(6, N.bit_length(), 12)]  # 2^k <= N exactly when k < N.bit_length()


def _assert_family_consistency(census: Census) -> None:
    """The proved family must show up as exceptional, and C's 64-lift as representable; checked, not assumed.

    (2x)^3 + (2y)^3 + (2z)^3 = 8 (x^3 + y^3 + z^3), so 8C is inside C and
    every representable n <= N / 64 has 64 n representable.
    """
    r = census.representable
    for n in family_members_upto(census.N):
        if r[n]:
            raise VerificationError(f"family member {n} claims to be representable")
    lifted = (r.words.view(np.uint8)[::8] & 1).view(bool)  # r[64 k] for k = 0..N/64: bit 0 of word k
    if (r[: lifted.size] & ~lifted).any():
        raise VerificationError("some representable n has 64 n marked exceptional")


@dataclass
class DyadicFilter:
    """n <= N divisible by 2^k, k minimal with 2^k >= (ln N)^upsilon."""

    N: int
    upsilon: float
    k: int
    modulus: int
    count: int


def filter_A_upsilon(N: int, upsilon: float) -> DyadicFilter:
    """The n <= N divisible by 2^k, k minimal with 2^k >= (ln N)^upsilon.

    k is read off log2 of the power, which overflows a float past 2^1024,
    and settled exactly against the power wherever that is finite.  Raises
    DegenerateParamsError when N < 3, and when 2^k > N, since then no
    n <= N is in the filter.
    """
    if N < 3:
        raise DegenerateParamsError("N must be >= 3 so ln N > 1")
    t = upsilon * math.log2(math.log(N))
    if t < N.bit_length():  # else 2^k >= 2^t > N
        k = math.ceil(max(t, 0.0))
        if t < 1000:  # the power is a finite float
            target = math.log(N) ** upsilon
            if 2**k < target:
                k += 1
            elif k > 0 and 2 ** (k - 1) >= target:
                k -= 1
        if 2**k <= N:
            return DyadicFilter(N=N, upsilon=upsilon, k=k, modulus=2**k, count=N // 2**k)
    raise DegenerateParamsError(f"the least 2^k >= (ln N)^upsilon exceeds N={N} at upsilon={upsilon}: the filter is empty")
