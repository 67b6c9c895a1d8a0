"""Residue-count distributions mod q and exact cyclic convolution.

The complete exponential sums and local solution counts all reduce to
counting vectors: D[t] = #{x mod q : f(x) = t} for f a cube, a sum of
cubes, or a square of such.  Sums of independent coordinates convolve
these vectors cyclically; all arithmetic here is exact (Python ints).

Large convolutions use Kronecker substitution: pack the coefficients into
one big integer at a byte spacing wide enough to prevent carries, multiply,
unpack, and fold.  Exactness is inherited from integer multiplication.
A direct O(q^2) routine doubles as the small-case oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def cube_residue_counts(q: int) -> list[int]:
    """D[t] = #{x in [0, q) : x^3 = t (mod q)}; sums to q."""
    if q < 1 or q * q >= 2**63:
        raise ValueError("q must satisfy 1 <= q and q^2 < 2^63")
    # x * x and ((x * x) % q) * x stay below q^2 < 2^63, so int64 is exact
    x = np.arange(q, dtype=np.int64)
    t = ((x * x) % q * x) % q
    return np.bincount(t, minlength=q).tolist()


def square_pushforward(counts: list[int], q: int) -> list[int]:
    """Push a distribution through t -> t^2 (mod q)."""
    out = [0] * q
    for s, c in enumerate(counts):
        if c:
            out[(s * s) % q] += c
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


def cyclic_convolve(a: list[int], b: list[int], q: int) -> list[int]:
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


@lru_cache(maxsize=512)
def t_distribution(q: int) -> tuple[int, ...]:
    """D3[t] = #{(x1, x2, x3) mod q : x1^3 + x2^3 + x3^3 = t}; sums to q^3."""
    c = cube_residue_counts(q)
    d2 = cyclic_convolve(c, c, q)
    d3 = cyclic_convolve(d2, c, q)
    return tuple(d3)


@lru_cache(maxsize=512)
def t_square_distribution(q: int) -> tuple[int, ...]:
    """Counts of T(x)^2 mod q over all triples x; the phase weights of S(q, a)."""
    return tuple(square_pushforward(list(t_distribution(q)), q))
