"""Residue-count distributions mod q and exact cyclic convolution.

The complete exponential sums and local solution counts all reduce to
counting vectors D[t] = #{x mod q : f(x) = t}, f a cube, a sum of cubes,
or a square of such; sums of independent coordinates convolve them
cyclically.  Each is a numpy int64 array (T's counts sum to q^3 < 2^63
for q < 2^21), read-only once cached.  A convolution whose totals
multiply below 2^53, at a modulus below DIRECT_BELOW_MODULUS, runs
directly in float64 (`np.convolve`), where every product and partial sum
is an integer that float64 holds exactly: T mod q for q < 30 000 and the
two-fold T^2 tables for q < 457.  Larger totals and moduli use Kronecker
substitution: counts in carry-free byte slots of one big integer, one
exact multiplication, the product read back in 8-byte limbs.  The
schoolbook O(q^2) oracle is in tests/test_residues.py.
`distribution_bytes` estimates the work, linear in q, and is reserved
before a distribution is built.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cubesieve import reserve
from .errors import CapacityError

MAX_MODULUS = 2**21  # the least q with q^3 >= 2^63

# The direct route costs O(q^2) and Kronecker's big-integer product less: T's two convolutions took
# no longer by Kronecker from about q = 3 * 10^4 on, on a 2-core Xeon VM (0.27 s both at 3 * 10^4, direct
# 1.06 against 0.90 s at 6.5 * 10^4, 2.4 against 2.3 s at 10^5, 4.1 against 3.7 s at 1.3 * 10^5).
DIRECT_BELOW_MODULUS = 30_000


def _direct(q: int, total: int) -> bool:
    """Whether a convolution mod q of totals multiplying to `total` takes the float64 route."""
    return total < 2**53 and q < DIRECT_BELOW_MODULUS


def cube_residue_counts(q: int) -> np.ndarray:
    """D[t] = #{x in [0, q) : x^3 = t (mod q)}; sums to q."""
    if q < 1 or q * q >= 2**63:
        raise ValueError("q must satisfy 1 <= q and q^2 < 2^63")
    # x * x and ((x * x) % q) * x stay below q^2 < 2^63, so int64 is exact
    x = np.arange(q, dtype=np.int64)
    t = ((x * x) % q * x) % q
    return np.bincount(t, minlength=q)


def square_pushforward(counts: np.ndarray, q: int) -> np.ndarray:
    """Push a distribution through t -> t^2 (mod q); one exact int64 scatter."""
    t = np.arange(q, dtype=np.int64)
    out = np.zeros(q, dtype=np.int64)
    np.add.at(out, t * t % q, counts)
    return out


def _pack(a: np.ndarray, slot: int) -> int:
    """One integer holding a's entries (each < 2^(8 slot - 8)) in consecutive little-endian `slot`-byte fields."""
    rows = np.zeros((a.size, slot), dtype=np.uint8)
    rows[:, : min(slot, 8)] = a.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)[:, :slot]
    return int.from_bytes(rows, "little")


def _unpack(packed: int, q: int, slot: int, total: int) -> np.ndarray:
    """The q `slot`-byte fields of packed: int64 when total < 2^63, else Python ints rebuilt from 8-byte limbs."""
    n = 1 if total < 2**63 else -(-slot // 8)  # limbs per field
    limbs = np.zeros((q, n), dtype="<u8")
    raw = np.frombuffer(packed.to_bytes(q * slot, "little"), np.uint8).reshape(q, slot)
    limbs.view(np.uint8)[:, : min(slot, 8 * n)] = raw[:, : 8 * n]
    del raw
    if n == 1:
        return limbs[:, 0].view(np.int64)
    out = limbs[:, -1].astype(object)
    for j in range(n - 2, -1, -1):
        out <<= 64
        out += limbs[:, j].astype(object)
    return out


def cyclic_convolve(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact cyclic convolution of non-negative int64 vectors.

    Each vector must sum below 2^63.  Coefficients of the linear product and
    every partial sum of them are bounded by total(a) * total(b).  Below
    2^53 they are integers that float64 holds exactly, in any summation
    order, so `np.convolve` of float64 copies is exact; it runs while q is
    below DIRECT_BELOW_MODULUS, past which its O(q^2) cost loses.
    Otherwise, Kronecker substitution: a byte slot as wide as that bound
    can never carry across entries.  The result is int64 while the bound
    is below 2^63, else an object array of Python ints.  A vector
    convolved with itself is converted or packed once.
    """
    if a.shape != (q,) or b.shape != (q,) or a.min() < 0 or b.min() < 0:
        raise ValueError("inputs must be non-negative and of length q")
    total = int(a.sum()) * int(b.sum())
    if _direct(q, total):
        fa = a.astype(np.float64)
        lin = np.convolve(fa, fa if b is a else b.astype(np.float64))
        lin[: q - 1] += lin[q:]  # fold the 2q - 1 coefficients mod q; each sum stays below 2^53
        return lin[:q].astype(np.int64)
    slot = (total.bit_length() + 7) // 8 + 1
    abig = _pack(a, slot)
    bbig = abig if b is a else _pack(b, slot)
    prod = abig * bbig
    del abig, bbig
    # fold the 2q - 1 fields mod q: fields k and k + q add without carry
    prod = (prod >> 8 * q * slot) + (prod & ((1 << 8 * q * slot) - 1))
    return _unpack(prod, q, slot, total)


def distribution_bytes(q: int, power: int) -> int:
    """Upper bound on the bytes held while distributions mod q are convolved up to totals q^power.

    The inputs take 16 bytes per residue and `np.add.at` 2^13 bytes.  While
    q^power < 2^53 and q < DIRECT_BELOW_MODULUS every convolution is
    direct, as `cyclic_convolve` decides: float64 copies of both inputs,
    the reversed copy `np.convolve` makes and the 2q - 1 products, 40 bytes
    per residue (tracemalloc peaks of 56.0 to 65.7 bytes per residue in
    all, for q from 97 to 2 * 10^5).  Otherwise the widest product is a
    Kronecker one, which outweighs any direct one before it:
    with s-byte slots its multiplication takes 13 s bytes per residue (10 s
    for a square, as the even powers are), and past 2^63 the Python ints
    rebuilt from limbs about 140.  Fitted to tracemalloc peaks for q from
    97 to 2 * 10^5 (s from 4 to 15), extrapolated beyond; on the inputs
    that still take Kronecker, the peaks read 0.78 to 0.89 of the estimate
    for the two-fold table at q from 457 to 10^4, and 0.99 for T at
    q = 208 067.
    """
    if _direct(q, q**power):
        return q * (16 + 40) + 2**13
    slot = ((q**power).bit_length() + 7) // 8 + 1
    product = (10 if power % 2 == 0 else 13) * slot
    unpack = 140 if q**power >= 2**63 else 0
    return q * (16 + max(product, unpack)) + 2**13


def reserve_distribution(q: int, power: int, what: str) -> None:
    """Refuse a distribution mod q of totals q^power past the budget, or with q >= 2^21, before allocating."""
    reserve(distribution_bytes(q, power), what)
    if q >= MAX_MODULUS:
        raise CapacityError(f"{what}: T's counts pass int64 for q >= 2^21")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=512)
def t_distribution(q: int) -> np.ndarray:
    """D3[t] = #{(x1, x2, x3) mod q : x1^3 + x2^3 + x3^3 = t}; sums to q^3."""
    reserve_distribution(q, 3, f"T residue distribution mod {q}")
    c = cube_residue_counts(q)
    # both convolutions take one route: q^3 < 2^53 for every q below DIRECT_BELOW_MODULUS
    return _read_only(cyclic_convolve(cyclic_convolve(c, c, q), c, q))


@lru_cache(maxsize=512)
def t_square_distribution(q: int) -> np.ndarray:
    """Counts of T(x)^2 mod q over all triples x; the phase weights of S(q, a)."""
    return _read_only(square_pushforward(t_distribution(q), q))
