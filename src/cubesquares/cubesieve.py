"""Sieve for sums of three positive cubes, and the package's memory budget.

C(X) = { n <= X : n = a^3 + b^3 + c^3, a, b, c >= 1 }.  Smallest member
is 3; the set has positive but thin density at desk scales.  Optionally
the sieve also records r3(n), the number of ordered triples, saturating
at the uint16 ceiling.

Every large allocation in the package is first estimated in bytes and
passed to `reserve`, which holds it against `memory_budget()`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .params import floor_nth_root


BUDGET_ENV = "CUBESQUARES_MEMORY_BUDGET"
SATURATE = np.iinfo(np.uint16).max


def memory_budget() -> int:
    """The byte budget: CUBESQUARES_MEMORY_BUDGET, a positive integer, or 2 GiB when unset.

    Raises ValueError when the variable is set to anything else.
    """
    text = os.environ.get(BUDGET_ENV, str(2**31))
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"{BUDGET_ENV}={text!r} is not a positive integer")
    return int(text)


def reserve(need: int, what: str) -> None:
    """Raise CapacityError, before anything is allocated, when `what` needs more than the budget."""
    budget = memory_budget()
    if need > budget:
        raise CapacityError(f"{what} needs ~{need} bytes > budget {budget}")


@dataclass
class CubeSumSieve:
    """Membership flags (and optional ordered-representation counts) for C(X)."""

    limit: int
    flags: np.ndarray = field(repr=False)
    counts: np.ndarray | None = field(default=None, repr=False)

    @property
    def members(self) -> np.ndarray:
        return np.flatnonzero(self.flags).astype(np.int64)

    def r3(self, n: int) -> int:
        if self.counts is None:
            raise ValueError("sieve was built without counts")
        if not 0 <= n <= self.limit:
            return 0
        return int(self.counts[n])


def sieve_bytes(X: int, with_counts: bool = False) -> int:
    """Upper bound on the bytes `sieve_cube_sums(X, with_counts)` holds at once.

    The flags take X + 1 bytes; the int64 counts, their saturated copy and
    the uint16 result take 18 more per n.  With m cubes the m^2 pair sums
    (8 bytes each) stay live, beside either np.add.outer's iteration buffers
    (at most 2^17 bytes) or one cube's shifted sums (fewer than m^2).
    """
    m = floor_nth_root(max(X - 2, 0), 3)
    return (X + 1) * (1 + 18 * bool(with_counts)) + 16 * m * m + 2**17


def sieve_cube_sums(X: int, with_counts: bool = False) -> CubeSumSieve:
    """Enumerate all ordered triples a^3 + b^3 + c^3 <= X.

    Work is O(X): the triple count itself is ~0.71 X.  `sieve_bytes` is
    reserved against the memory budget before anything is allocated.
    """
    if X < 0:
        raise ValueError("X must be >= 0")
    reserve(sieve_bytes(X, with_counts), f"cube-sum sieve for X={X}")

    flags = np.zeros(X + 1, dtype=bool)
    m = floor_nth_root(max(X - 2, 0), 3)
    if m < 1:
        return CubeSumSieve(limit=X, flags=flags, counts=np.zeros(X + 1, np.uint16) if with_counts else None)
    cubes = np.arange(1, m + 1, dtype=np.int64) ** 3
    pair = np.add.outer(cubes, cubes).ravel()
    pair.sort()

    cnt = np.zeros(X + 1, dtype=np.int64) if with_counts else None
    for a3 in cubes.tolist():
        s = pair[: np.searchsorted(pair, X - a3, "right")] + a3
        flags[s] = True
        if cnt is not None:
            np.add.at(cnt, s, 1)
        del s  # before the next cube's sums are formed, as `sieve_bytes` counts

    counts = None if cnt is None else np.minimum(cnt, SATURATE).astype(np.uint16)
    return CubeSumSieve(limit=X, flags=flags, counts=counts)
