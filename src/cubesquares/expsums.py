"""Complete exponential sums over T(x)^2 and the singular series.

    S(q, a)  = sum over x mod q (three coordinates) of e(a T(x)^2 / q)
    S2(q, a) = sum over x mod q of e(a x^2 / q)            (quadratic Gauss sum)
    Sn(q)    = sum over a coprime to q of (S(q,a)/q^3)^4 e(-n a / q)

S(q, a) collapses to a single length-q phase sum against the distribution
of T(x)^2 mod q, so computing the whole a-row is one inverse DFT of that
integer vector.  Sn(q) is real (pairing a with q - a conjugates the term);
we check that numerically instead of assuming it.  The truncated singular
series sums Sn(q) for q <= Q and reports dyadic tail masses as a
convergence diagnostic.

Sn is multiplicative in q, so the series computes Sn only at the prime
powers <= Q (198 of them for Q = 1024) and forms every other term as a
product over the prime powers that exactly divide q.  `coefficient_Sn` on a
composite q stays the direct sum over a: it is the independent route that
the multiplicativity check and the series tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import VerificationError
from .residues import t_square_distribution
from .w2 import spf_sieve


def complete_sum_S(q: int, a: int) -> complex:
    """Direct phase sum against the T^2 residue distribution; O(q) exact phases."""
    if q < 1:
        raise ValueError("q must be >= 1")
    dist = t_square_distribution(q)
    a %= q
    re = math.fsum(c * math.cos(2.0 * math.pi * ((a * m) % q) / q) for m, c in enumerate(dist) if c)
    im = math.fsum(c * math.sin(2.0 * math.pi * ((a * m) % q) / q) for m, c in enumerate(dist) if c)
    return complex(re, im)


def complete_sum_S_batch(q: int) -> np.ndarray:
    """S(q, a) for all a in [0, q) at once: q * ifft of the T^2 distribution.

    Valid verbatim while q^3 < 2^53 so the integer counts are exact in
    float64; guarded accordingly.
    """
    if q**3 >= 2**53:
        raise ValueError(f"distribution counts for q={q} are not exactly representable")
    dist = np.array(t_square_distribution(q), dtype=np.float64)
    return q * np.fft.ifft(dist)


def gauss_sum_S2(q: int, a: int) -> complex:
    """One-dimensional quadratic Gauss sum, exact residue phases."""
    if q < 1:
        raise ValueError("q must be >= 1")
    a %= q
    terms = [(a * ((x * x) % q)) % q for x in range(q)]
    re = math.fsum(math.cos(2.0 * math.pi * t / q) for t in terms)
    im = math.fsum(math.sin(2.0 * math.pi * t / q) for t in terms)
    return complex(re, im)


def coprime_residues(q: int) -> np.ndarray:
    """a in [0, q) with gcd(a, q) = 1; for q = 1 this is [0] by convention."""
    if q == 1:
        return np.array([0], dtype=np.int64)
    a = np.arange(q, dtype=np.int64)
    return a[np.gcd(a, q) == 1]


@lru_cache(maxsize=4096)
def _sn_row(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached (coprime a's, (S(q,a)/q^3)^4) for reuse across many n."""
    a = coprime_residues(q)
    s = complete_sum_S_batch(q)[a] / float(q) ** 3
    return a, s**4


def coefficient_Sn(q: int, n: int) -> float:
    """Sn(q), verified near-real (to 1e-8 relative) before the imaginary part is dropped."""
    a, w4 = _sn_row(q)
    phases = np.exp(-2j * np.pi * ((n % q) * a % q) / q)
    val = complex(np.sum(w4 * phases))
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise VerificationError(f"Sn({q}) for n={n} is not near-real: {val!r}")
    return val.real


@dataclass
class SeriesTruncation:
    """Partial singular series with per-q terms and dyadic tail masses."""

    n: int
    Q: int
    value: float
    terms: np.ndarray
    tails: dict[int, float]

    def tail(self, Qd: int) -> float:
        return self.tails[Qd]


def truncated_singular_series(n: int, Q: int) -> SeriesTruncation:
    """sum_{q <= Q} Sn(q) plus |Sn| masses over dyadic blocks (Qd, 2 Qd].

    Sn is multiplicative in q, so each term is the product of Sn(p^k) over
    the prime powers p^k || q, taken in ascending order of p.  Each prime
    power's Sn is computed once per call.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    spf = spf_sieve(Q).tolist()
    prime_power_terms: dict[int, float] = {}
    terms = np.empty(Q + 1, dtype=np.float64)
    terms[0] = 0.0
    for q in range(1, Q + 1):
        term = 1.0
        m = q
        while m > 1:
            p = spf[m]
            pk = 1
            while m % p == 0:
                m //= p
                pk *= p
            if pk not in prime_power_terms:
                prime_power_terms[pk] = coefficient_Sn(pk, n)
            term *= prime_power_terms[pk]
        terms[q] = term
    value = float(math.fsum(terms[1:].tolist()))
    tails: dict[int, float] = {}
    Qd = Q // 2
    while Qd >= 8:
        hi = min(2 * Qd, Q)
        tails[Qd] = float(np.abs(terms[Qd + 1 : hi + 1]).sum())
        Qd //= 2
    return SeriesTruncation(n=n, Q=Q, value=value, terms=terms, tails=tails)
