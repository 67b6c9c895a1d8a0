"""Complete exponential sums over T(x)^2 and the singular series.

    S(q, a)  = sum over x mod q (three coordinates) of e(a T(x)^2 / q)
    S2(q, a) = sum over x mod q of e(a x^2 / q)            (quadratic Gauss sum)
    Sn(q)    = sum over a coprime to q of (S(q,a)/q^3)^4 e(-n a / q)

S(q, a) collapses to a single length-q phase sum against the distribution
of T(x)^2 mod q, so computing the whole a-row is one inverse DFT of that
integer vector.  In turn Sn(q) for every n mod q is one forward DFT of
(S(q,a)/q^3)^4 placed on the a coprime to q (`_sn_row`), cached per q and
shared by every n.  Sn(q) is real (pairing a with q - a conjugates the
term); we check that numerically over the whole row instead of assuming
it.  The truncated singular series sums Sn(q) for q <= Q and reports
dyadic tail masses as a convergence diagnostic.

`complete_sum_S`, `gauss_sum_S2` and the generating sums h and W evaluate
their phases directly, one `phase_sum` array pass each over int64 residues
r mod q with integer weights: numpy's cos and sin of the angles
2 pi (r / q), exact int / int divisions while q < 2^53, and one math.fsum
over each part, so the value does not depend on the order of the
residues.  `gauss_sum_S2` weighs each residue of a x^2 mod q by its count.

Sn is multiplicative in q, so the series computes Sn only at the prime
powers <= Q (198 of them for Q = 1024) and forms every other term as a
product over the prime powers that exactly divide q, one array round of
`w2.factorizations` per prime, in ascending p.  `coefficient_Sn` on a
composite q reads that q's own row, built from S(q, a) directly and not
from a product: it is the independent route that the multiplicativity
check and the series tests compare against.  The per-(q, n) sum over a
that the row replaced is the oracle in tests/test_expsums.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import VerificationError
from .residues import _read_only, t_square_distribution
from .w2 import factorizations


def phase_sum(residues: np.ndarray, weights: np.ndarray, q: int) -> complex:
    """sum of c e(r / q) over the int64 residues r with nonzero weights c: one array pass, one math.fsum per part.

    The angle is 2 pi (r / q); r / q in float64 equals int / int true
    division while q < 2^53.  The value does not depend on the residues' order.
    """
    keep = weights != 0
    c = weights[keep]
    theta = 2.0 * math.pi * (residues[keep] / q)
    return complex(math.fsum((c * np.cos(theta)).tolist()), math.fsum((c * np.sin(theta)).tolist()))


def complete_sum_S(q: int, a: int) -> complex:
    """Direct phase sum against the T^2 residue distribution; O(q) exact phases."""
    if q < 1:
        raise ValueError("q must be >= 1")
    dist = t_square_distribution(q)  # refuses q >= 2^21, so a m < q^2 stays in int64
    return phase_sum(a % q * np.arange(q, dtype=np.int64) % q, dist, q)


def batch_is_exact(q: int) -> bool:
    """Whether `complete_sum_S_batch` takes q: 1 <= q and q^3 < 2^53, so T^2's counts are exact in float64."""
    return 1 <= q and q**3 < 2**53


def complete_sum_S_batch(q: int) -> np.ndarray:
    """S(q, a) for all a in [0, q) at once: q * ifft of the T^2 distribution.

    Valid verbatim while `batch_is_exact(q)`; guarded accordingly.
    """
    if not batch_is_exact(q):
        raise ValueError(f"distribution counts for q={q} are not exactly representable")
    return q * np.fft.ifft(t_square_distribution(q).astype(np.float64))


def gauss_sum_S2(q: int, a: int) -> complex:
    """One-dimensional quadratic Gauss sum, exact residue phases, against the counts of a x^2 mod q.

    At an odd prime q every count is 0, 1 or 2, and 2 cos(theta) is exact,
    so the value equals the fsum over the q unit terms bit for bit.
    """
    if q < 1 or q * q >= 2**63:
        raise ValueError("q must satisfy 1 <= q and q^2 < 2^63")
    x = np.arange(q, dtype=np.int64)
    return phase_sum(x, np.bincount(a % q * (x * x % q) % q, minlength=q), q)


def coprime_residues(q: int) -> np.ndarray:
    """a in [0, q) with gcd(a, q) = 1; for q = 1 this is [0], since gcd(0, 1) = 1."""
    a = np.arange(q, dtype=np.int64)
    return a[np.gcd(a, q) == 1]


@lru_cache(maxsize=4096)
def _sn_row(q: int) -> np.ndarray:
    """Sn(q) at every n mod q: one DFT of (S(q,a)/q^3)^4 on the a coprime to q, verified near-real (to 1e-8 relative)."""
    a = coprime_residues(q)
    w4 = np.zeros(q, dtype=np.complex128)
    w4[a] = (complete_sum_S_batch(q)[a] / float(q) ** 3) ** 4
    row = np.fft.fft(w4)  # row[n] = sum over a of w4[a] e(-n a / q)
    bad = np.abs(row.imag) > 1e-8 * np.maximum(1.0, np.abs(row.real))
    if bad.any():
        n = int(bad.argmax())
        raise VerificationError(f"Sn({q}) is not near-real at n={n}: {complex(row[n])!r}")
    return _read_only(row.real.copy())


def coefficient_Sn(q: int, n: int) -> float:
    """Sn(q) at n, read from the row of q."""
    return float(_sn_row(q)[n % q])


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
    sn = np.zeros(Q + 1, dtype=np.float64)  # Sn(p^k) at the prime powers p^k <= Q
    terms = np.ones(Q + 1, dtype=np.float64)
    terms[0] = 0.0
    for q, p, k in factorizations(Q):
        pk = p**k
        # the prime powers are exactly the q = p^k of the first round, so sn is complete before it is read
        for t in q[pk == q].tolist():
            sn[t] = coefficient_Sn(t, n)
        terms[q] *= sn[pk]  # one factor per round: each product runs in ascending p
    value = float(math.fsum(terms[1:].tolist()))
    tails: dict[int, float] = {}
    Qd = Q // 2
    while Qd >= 8:
        hi = min(2 * Qd, Q)
        tails[Qd] = float(np.abs(terms[Qd + 1 : hi + 1]).sum())
        Qd //= 2
    return SeriesTruncation(n=n, Q=Q, value=value, terms=terms, tails=tails)
