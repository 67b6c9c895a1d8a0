"""R-smooth integers and the empirical smooth-density constant.

A positive integer is R-smooth when every prime factor is <= R.  The
weight tables draw their trailing cube bases from these sets, and the
major-arc model replaces each smooth-restricted sum by (density * length),
so we also expose the empirical density |smooth(P, R)| / P.
"""

from __future__ import annotations

import math

import numpy as np

from .cubesieve import reserve
from .params import primes_upto


def smooth_bytes(Y: int, members: int = 0) -> int:
    """Upper bound on the bytes `enumerate_smooth(Y, R)` holds at once when `members` n <= Y are R-smooth.

    The flags take Y + 1 bytes throughout.  Beside them, `primes_upto(Y)`
    holds its own Y + 1 sieve bytes and 8 bytes per int64 prime, with fewer
    than 1.25506 Y / ln Y primes (Rosser and Schoenfeld); then the int64
    members take 8 bytes each, plus 1 KiB of array headers.
    """
    primes = math.ceil(1.25506 * Y / math.log(Y)) if Y > 1 else 0
    return (Y + 1) + max(Y + 1 + 8 * primes, 8 * members) + 2**10


def enumerate_smooth(Y: int, R: int) -> np.ndarray:
    """All R-smooth integers in [1, Y], ascending, as an int64 array.

    Flag sieve: mark multiples of each prime p in (R, Y]; survivors are
    exactly the R-smooth numbers.  1 is always smooth.  `smooth_bytes` is
    reserved against the memory budget before the sieve, and again with
    the survivors' count before they are listed.
    """
    if Y < 1:
        return np.empty(0, dtype=np.int64)
    if R < 2:
        raise ValueError("R must be >= 2")
    reserve(smooth_bytes(Y), f"smooth sieve for Y={Y}")
    ok = np.ones(Y + 1, dtype=bool)
    ok[0] = False
    # Composite-ness of the sieving modulus does not matter: any p > R that
    # is prime kills its multiples, and composites' multiples die through
    # their own prime factors, so it suffices to sieve by primes > R.
    primes = primes_upto(Y)
    for p in primes[np.searchsorted(primes, R, "right") :]:
        ok[p::p] = False
    del primes  # before the members are listed, as `smooth_bytes` counts
    count = int(np.count_nonzero(ok))
    reserve(smooth_bytes(Y, count), f"{count} {R}-smooth integers up to {Y}")
    return np.flatnonzero(ok)


def estimate_c_eta(P: int, R: int) -> float:
    """Empirical smooth density |smooth(P, R)| / P.

    The asymptotic model multiplies each smooth-summed box edge by this
    constant; using the finite-P count keeps model and data on the same
    footing.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    return len(enumerate_smooth(P, R)) / P
