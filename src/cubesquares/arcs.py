"""Major/minor arc dissection of [0, 1) and membership classification.

A dissection of height X at scale n consists of the pairwise-disjoint
intervals |alpha - a/q| <= X / (q n) for 0 <= a <= q <= X, gcd(a, q) = 1.
The wide cut uses X = P^(4/5), the narrow cut X = (log P)^tau with
tau = 18/31; everything not covered is the minor region.

ArcDissection.classify finds the smallest q <= X with ||q alpha|| <= X/n.
By the best-approximation theorem every record-minimum of ||q alpha||
occurs at a continued-fraction convergent denominator, so scanning
convergents in order (with exact Fraction arithmetic) is sound and
terminates in O(log X) steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateParamsError

TAU = 18.0 / 31.0


@dataclass(frozen=True)
class ArcHit:
    """A point classified into the arc around a/q; beta = alpha - a/q."""

    a: int
    q: int
    beta: float


@dataclass(frozen=True)
class ArcDissection:
    X: float
    n: int

    def __post_init__(self):
        if self.X < 1.0:
            raise ValueError("height X must be >= 1")
        if self.n < 1:
            raise ValueError("scale n must be >= 1")

    @classmethod
    def wide(cls, P: int, n: int) -> "ArcDissection":
        return cls(X=float(P) ** 0.8, n=n)

    @classmethod
    def narrow(cls, P: int, n: int) -> "ArcDissection":
        if P < 3:
            raise DegenerateParamsError("narrow dissection needs log P > 1")
        return cls(X=math.log(P) ** TAU, n=n)

    def half_width(self, q: int) -> float:
        return self.X / (q * self.n)

    def classify(self, alpha: float | Fraction) -> ArcHit | None:
        """Smallest-q arc containing alpha, or None for the minor region."""
        if not 0 <= alpha < 1:
            raise ValueError("alpha must lie in [0, 1)")
        af = Fraction(alpha)
        thr = Fraction(self.X) / self.n
        Xf = Fraction(self.X)

        # q = 1 first: distance to the nearest integer, numerator 0 or 1.
        a0 = 1 if af > Fraction(1, 2) else 0
        if abs(af - a0) <= thr:
            return ArcHit(a=a0, q=1, beta=float(af - a0))

        # Convergents of af via the Euclidean expansion.
        h_prev, h_cur = 1, 0  # numerators  p_{-1}, p_0 seeded for a0 = 0
        k_prev, k_cur = 0, 1  # denominators
        frac = af
        num, den = frac.numerator, frac.denominator
        # first partial quotient is 0 since 0 <= af < 1; start the loop on
        # the reciprocal remainders
        while den != 0 and num != 0:
            a_i = den // num
            den, num = num, den - a_i * num
            h_prev, h_cur = h_cur, a_i * h_cur + h_prev
            k_prev, k_cur = k_cur, a_i * k_cur + k_prev
            if k_cur > Xf:
                return None
            err = abs(k_cur * af - h_cur)
            if err <= thr:
                return ArcHit(a=h_cur, q=k_cur, beta=float(af - Fraction(h_cur, k_cur)))
        return None
