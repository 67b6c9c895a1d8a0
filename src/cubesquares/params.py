"""Scale parameters for the four-squares-of-cube-sums experiments.

Everything downstream is sized by a single integer N (the target being
decomposed as x1^2 + x2^2 + x3^2 + x4^2 with each x_i a sum of three
positive cubes).  The derived quantities fix the search boxes:

    P  = floor(N^(1/6))        base cube range
    M  = P^(2/5)               prime window top (window is [M/2, M])
    H  = P^(9/5)               so that M^3 * H = P^3 exactly
    H1 = (1/2)^(1/3) H^(1/3)   lower edge of the thin leading-cube range
    H2 = (2/3)^(1/3) H^(1/3)   upper edge of the thin leading-cube range
    H3 = (1/6)^(1/3) H^(1/3)   box for the two trailing smooth cubes

The smoothness cutoff R defaults to max(2, ceil(P^eta)); eta in (0, 1).

The two cube families are stated once, as `Params.bulk` and `Params.thin`;
every other module reads them, not P/2 or H1, H2, H3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParamsError


def floor_nth_root(n: int, k: int) -> int:
    """Exact floor(n^(1/k)) for nonnegative integers, immune to float error."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    # Integer Newton from above: a float first guess can be off by far more
    # than 1 once n^(1/k) exceeds 2^53 (k = 1 and n = 10^30, for one).
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


@dataclass(frozen=True)
class Family:
    """Sums x1^3 + y2^3 + y3^3 with x1 in (lo, hi] and y2, y3 R-smooth in [1, box]."""

    lo: float
    hi: float
    box: float

    @property
    def leading(self) -> range:
        """The integers in (lo, hi]; often empty for the thin family at desk scale."""
        return range(math.floor(self.lo) + 1, math.floor(self.hi) + 1)

    @property
    def smooth_box(self) -> int:
        """floor(box), the largest integer y2, y3 may take."""
        return math.floor(self.box)

    @property
    def volume(self) -> float:
        """(hi - lo) box^2, the measure of the continuous box, which is v(0)."""
        return (self.hi - self.lo) * self.box**2


@dataclass(frozen=True)
class Params:
    """Derived size parameters; construct through :func:`derive_params`."""

    N: int
    P: int
    M: float
    H: float
    H1: float
    H2: float
    H3: float
    eta: float
    R: int

    @property
    def bulk(self) -> Family:
        """x1 in (P/2, P] and y2, y3 in [1, P]."""
        return Family(self.P / 2.0, float(self.P), float(self.P))

    @property
    def thin(self) -> Family:
        """Its sums are scaled by p^6 for each prime p of the window."""
        return Family(self.H1, self.H2, self.H3)

    def prime_window(self) -> tuple[float, float]:
        return (self.M / 2.0, self.M)

    def default_primes(self) -> list[int]:
        """Primes in [M/2, M]; may be empty at small N."""
        lo, hi = self.prime_window()
        return [p for p in primes_upto(int(math.floor(hi))).tolist() if p >= lo]


def primes_upto(limit: int) -> np.ndarray:
    """The primes <= limit, ascending, by the sieve of Eratosthenes (int64)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    return np.flatnonzero(is_prime).astype(np.int64, copy=False)


def derive_params(N: int, eta: float = 0.1, R_override: int | None = None) -> Params:
    """Build the parameter pack for target N.

    Raises DegenerateParamsError ("parameters degenerate") when N < 64,
    i.e. P < 2, in which case the leading range (P/2, P] is empty.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if N < 64:
        raise DegenerateParamsError(f"parameters degenerate: N={N} gives P<2")
    P = floor_nth_root(N, 6)
    M = P ** (2.0 / 5.0)
    H = P ** (9.0 / 5.0)
    Hcbrt = H ** (1.0 / 3.0)
    H1 = (1.0 / 2.0) ** (1.0 / 3.0) * Hcbrt
    H2 = (2.0 / 3.0) ** (1.0 / 3.0) * Hcbrt
    H3 = (1.0 / 6.0) ** (1.0 / 3.0) * Hcbrt
    if R_override is not None:
        if R_override < 2:
            raise ValueError("R_override must be >= 2")
        R = R_override
    else:
        R = max(2, math.ceil(P**eta))
    return Params(N=N, P=P, M=M, H=H, H1=H1, H2=H2, H3=H3, eta=eta, R=R)
