"""R-smooth integers and the empirical smooth-density constant.

A positive integer is R-smooth when every prime factor is <= R.  The
weight tables draw their trailing cube bases from these sets, and the
major-arc model replaces each smooth-restricted sum by (density * length),
so we also expose the empirical density |smooth(P, R)| / P.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import primes_upto


@dataclass(frozen=True)
class SmoothSet:
    """All R-smooth integers in [1, Y], ascending."""

    Y: int
    R: int
    members: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.members, dtype=np.int64)
        object.__setattr__(self, "members", m)

    def __len__(self) -> int:
        return int(self.members.size)

    def __contains__(self, v: int) -> bool:
        i = int(np.searchsorted(self.members, v))
        return i < self.members.size and int(self.members[i]) == v

    def __iter__(self):
        return iter(self.members.tolist())


def enumerate_smooth(Y: int, R: int) -> SmoothSet:
    """Sieve out every integer in [1, Y] with a prime factor > R.

    Flag sieve: mark multiples of each prime p in (R, Y]; survivors are
    exactly the R-smooth numbers.  1 is always smooth.
    """
    if Y < 1:
        return SmoothSet(Y=Y, R=R, members=np.empty(0, dtype=np.int64))
    if R < 2:
        raise ValueError("R must be >= 2")
    ok = np.ones(Y + 1, dtype=bool)
    ok[0] = False
    # Composite-ness of the sieving modulus does not matter: any p > R that
    # is prime kills its multiples, and composites' multiples die through
    # their own prime factors, so it suffices to sieve by primes > R.
    primes = primes_upto(Y)
    for p in primes[primes > R].tolist():
        ok[p::p] = False
    return SmoothSet(Y=Y, R=R, members=np.flatnonzero(ok).astype(np.int64))


def estimate_c_eta(P: int, R: int) -> float:
    """Empirical smooth density |smooth(P, R)| / P.

    The asymptotic model multiplies each smooth-summed box edge by this
    constant; using the finite-P count keeps model and data on the same
    footing.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    return len(enumerate_smooth(P, R)) / P
