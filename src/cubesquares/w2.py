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

`factorizations` factors every q <= Q at once, in array rounds over one
smallest-prime-factor table; `w2_scan` builds W(q) from the rounds in
int64, exact because W(q) <= q^3 < 2^63 for q < 2^21, and the singular
series in `expsums` multiplies its terms along the same rounds.  The
rounds themselves are int32, as every q they take is below 2^31.
`factorize` (trial division) and `w2_carrier` stay per-q.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .cubesieve import reserve
from .errors import CapacityError
from .residues import MAX_MODULUS


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


def factorizations(Q: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The prime powers p^k || q of every q = 1..Q, as array rounds over one smallest-prime-factor table.

    Round j is int32 arrays (q, p, k): every q with more than j distinct
    prime factors, its (j+1)-th smallest prime p and the exponent k of p in
    q.  Each round peels the smallest prime power off every cofactor still
    above 1, so the rounds give each q's prime powers in ascending p.
    Q >= 2^31 raises CapacityError, as q would pass int32.
    """
    if Q >= 2**31:
        raise CapacityError(f"factorizations to Q={Q}: q passes int32 for Q >= 2^31")
    spf = np.arange(Q + 1, dtype=np.int32)
    for i in range(2, math.isqrt(Q) + 1):
        if spf[i] == i:
            sl = spf[i * i :: i]
            sl[sl == np.arange(i * i, Q + 1, i, dtype=np.int32)] = i
    q = np.arange(2, Q + 1, dtype=np.int32)
    m = q.copy()  # the cofactor of q not yet peeled
    while q.size:
        p = spf[m]
        k = np.zeros_like(m)
        live = np.arange(m.size, dtype=np.int32)  # the q whose cofactor p still divides
        while live.size:
            m[live] //= p[live]
            k[live] += 1
            live = live[m[live] % p[live] == 0]
        yield q, p, k
        more = m > 1
        q, m = q[more], m[more]


def w2_bytes(Q: int) -> int:
    """Upper bound on the bytes `w2_scan(Q)` holds: the int64 carrier and about ten int32 arrays over q at the first round.

    Fitted to tracemalloc peaks for Q from 10^4 to 2 * 10^6 (67.9 to 61.0 bytes per q).
    """
    return 61 * Q + 2**17


def w2_scan(Q: int) -> tuple[np.ndarray, bool, list[int]]:
    """One pass over q <= Q: (array of w2(q)^2, majorant verdict, equality cases).

    The carrier W(q) is built exactly in int64 from the rounds of
    `factorizations`: W(q) <= q^3, as each factor p^3, p^6 (only when
    p^2 | q) or p^k is at most (p^k)^3, so Q < 2^21 keeps every W(q) below
    2^63 and the majorant comparison W(q) >= q is exact.  Larger Q, or Q past
    the memory budget, raises CapacityError before anything is allocated.
    w2(q)^2 = W(q)^(-1/3) is taken by np.power in float64.
    """
    if Q >= MAX_MODULUS:
        raise CapacityError(f"w2 scan to Q={Q}: the carrier W(q) <= q^3 passes int64 for Q >= 2^21")
    reserve(w2_bytes(Q), f"w2 scan to Q={Q}")
    carrier = np.ones(Q + 1, dtype=np.int64)
    for q, p, k in factorizations(Q):
        # exponent of p in W: k (k >= 7), 6 (2 <= k <= 6), 3 (k = 1)
        carrier[q] *= p.astype(np.int64) ** np.where(k >= 7, k, np.where(k >= 2, 6, 3))
    qs = np.arange(Q + 1, dtype=np.int64)
    w2sq = carrier.astype(np.float64) ** (-1.0 / 3.0)
    w2sq[0] = 0.0
    majorant_ok = bool((carrier[1:] >= qs[1:]).all())
    equality = (np.flatnonzero(carrier[2:] == qs[2:]) + 2).tolist()
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
