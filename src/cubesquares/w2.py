"""The multiplicative arc weight w2(q) and its summatory diagnostics.

w2 is supported on prime powers by

    w2(p^(6u+v)) = p^(-u - v/6)   if u >= 1 and 1 <= v <= 6
    w2(p^v)      = p^(-1)         if u = 0  and 2 <= v <= 6
    w2(p)        = p^(-1/2)

and extends multiplicatively.  Writing k = 6u + v >= 7 for the first case
shows w2(p^k) = p^(-k/6) there, so w2(q) = W(q)^(-1/6) for the integer

    W(p^k) = p^k (k >= 7),  p^6 (2 <= k <= 6),  p^3 (k = 1),

which we use as the exact carrier: multiplicativity of w2 is inherited from
integer multiplicativity of W, and the majorant w2(q) <= q^(-1/6) is the
integer inequality W(q) >= q, with equality exactly when every prime
exponent of q is >= 6 (the "6-full" numbers: 64, 128, ..., 729, ...).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np


def factorize(q: int) -> list[tuple[int, int]]:
    if q < 1:
        raise ValueError("q must be >= 1")
    out = []
    d = 2
    while d * d <= q:
        if q % d == 0:
            e = 0
            while q % d == 0:
                q //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if q > 1:
        out.append((q, 1))
    return out


def _carrier_factor(p: int, k: int) -> int:
    if k >= 7:
        return p**k
    if k >= 2:
        return p**6
    return p**3


def w2_carrier(q: int) -> int:
    """The exact integer W(q) with w2(q) = W(q)^(-1/6)."""
    w = 1
    for p, k in factorize(q):
        w *= _carrier_factor(p, k)
    return w


def w2(q: int) -> float:
    return w2_carrier(q) ** (-1.0 / 6.0)


def factorizations(Q: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Each q = 1..Q with its prime powers [(p, k), ...], p^k || q, in ascending p, from one smallest-prime-factor table."""
    spf = np.arange(Q + 1, dtype=np.int64)
    for i in range(2, math.isqrt(Q) + 1):
        if spf[i] == i:
            sl = spf[i * i :: i]
            sl[sl == np.arange(i * i, Q + 1, i)] = i
    spf = spf.tolist()
    for q in range(1, Q + 1):
        factors = []
        m = q
        while m > 1:
            p, k = spf[m], 0
            while m % p == 0:
                m //= p
                k += 1
            factors.append((p, k))
        yield q, factors


def w2_scan(Q: int) -> tuple[np.ndarray, bool, list[int]]:
    """One pass over q <= Q: (array of w2(q)^2, majorant verdict, equality cases).

    The carrier stays a Python int (p^6 for a prime near 1e5 overflows int64),
    so the majorant comparison W(q) >= q is exact.
    """
    w2sq = np.zeros(Q + 1, dtype=np.float64)
    majorant_ok = True
    equality: list[int] = []
    for q, factors in factorizations(Q):
        w = 1
        for p, k in factors:
            w *= _carrier_factor(p, k)
        w2sq[q] = w ** (-1.0 / 3.0)
        if w < q:
            majorant_ok = False
        elif w == q and q > 1:
            equality.append(q)
    return w2sq, majorant_ok, equality


def six_full_upto(Q: int) -> list[int]:
    """The 6-full q in [2, Q], in increasing order, generated as products of p^e with e >= 6.

    Built from trial-division primes, independent of `factorizations` and
    `factorize`, so it can check the equality set that `w2_scan` reports.
    """
    found = [1]
    for p in range(2, Q + 1):
        if p**6 > Q:
            break
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            continue
        grown = []
        for m in found:
            pe = p**6
            while m * pe <= Q:
                grown.append(m * pe)
                pe *= p
        found += grown
    return sorted(found)[1:]
