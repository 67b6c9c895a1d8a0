"""Quadratic-phase generating sums over the weight tables and their models.

    h(alpha) = sum_v a_v e(alpha v^2)          (bulk table)
    W(alpha) = sum_p sum_v b_v e(alpha p^6 v^2)  (thin table x prime window)

alpha is taken as an exact Fraction num / q with q < 2^31 (every caller
passes 0 or a/1009); a larger q, such as a binary float's (0.1 has
q = 2^55), raises ValueError.  The residues num (s^2 mod q) (v^2 mod q) mod q are int64, the
counts on each are summed into one exact int64 histogram of q bins, and
one `phase_sum` over the q residues rounds each part once.

The major-arc models replace each sum by
(smooth density)^2 * q^-3 S(q, a) * (oscillatory volume at beta).
`F_diagnostic` classifies alpha once: on an arc around a/q it evaluates both
models at beta = alpha - a/q, and off the dissection it takes them as 0.
The difference F = h^2 W^2 - (model h)^2 (model W)^2 is the quantity the
minor-arc analysis bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arcs import ArcDissection
from .cubesieve import reserve
from .expsums import complete_sum_S, phase_sum
from .oscillatory import osc_integral_v, osc_integral_v_thin
from .params import Params
from .scale import Scale
from .weights import BUCKET, WeightTable


def _phase_histogram(alpha: float | Fraction, table: WeightTable, scales: list[int]) -> complex:
    """sum over s in `scales` and the table's v of a_v e(alpha (s v)^2); q is checked before any block is read.

    Every product of two residues below q < 2^31 stays below 2^62.
    """
    af = Fraction(alpha)
    q, num = af.denominator, af.numerator % af.denominator
    if q >= 2**31:
        raise ValueError(f"alpha = {af} needs a denominator below 2^31, not {q}")
    if num == 0:
        return complex(float(table.total * len(scales)), 0.0)
    # the q bins, the residues 0 .. q - 1 and phase_sum's mask; 40 bytes per entry of a block, 80 per residue summed
    terms = min(q, len(table) * len(scales))
    reserve(17 * q + 40 * min(len(table), BUCKET) + 80 * terms + 2**14, f"residue histogram mod {q}")
    hist = np.zeros(q, dtype=np.int64)
    for values, counts in table.blocks():
        v2 = values % q
        np.remainder(v2 * v2, q, out=v2)
        counts = counts.astype(np.int64)  # np.add.at has no fast loop for mixed dtypes
        for s in scales:
            np.add.at(hist, num * (s * s % q) % q * v2 % q, counts)
    return phase_sum(np.arange(q, dtype=np.int64), hist, q)


def eval_h(alpha: float | Fraction, table: WeightTable) -> complex:
    """The bulk generating sum at alpha = num / q, q < 2^31; alpha = 0 returns the total mass."""
    return _phase_histogram(alpha, table, [1])


def eval_W(alpha: float | Fraction, table: WeightTable, primes: list[int]) -> complex:
    """The thin generating sum at alpha = num / q, q < 2^31, every prime's s = p^3 in one histogram; no primes give 0."""
    return _phase_histogram(alpha, table, [p**3 for p in primes])


# -- major-arc models ----------------------------------------------------------


def model_V(beta: float, q: int, a: int, params: Params, c_eta: float) -> complex:
    """Model of h at a/q + beta: q^-3 S(q,a) c^2 v(beta), v by the kernel1d route."""
    S = complete_sum_S(q, a)
    return (S / q**3) * c_eta**2 * osc_integral_v(beta, params)


def model_W(beta: float, q: int, a: int, params: Params, c_thin: float, primes: list[int]) -> complex:
    """Model of W at a/q + beta: q^-3 S(q,a) c^2 sum_p v_thin(beta; p)."""
    S = complete_sum_S(q, a)
    vsum = sum((osc_integral_v_thin(beta, p, params) for p in primes), 0j)
    return (S / q**3) * c_thin**2 * vsum


@dataclass
class ArcDiagnostic:
    """Pointwise comparison of data vs model at one alpha."""

    h: complex
    W: complex
    h_model: complex
    W_model: complex
    on_arc: bool

    @property
    def F(self) -> complex:
        """h^2 W^2 - (model h)^2 (model W)^2; the minor-arc residual."""
        return self.h**2 * self.W**2 - self.h_model**2 * self.W_model**2


def F_diagnostic(alpha: float | Fraction, scale: Scale, dissection: ArcDissection) -> ArcDiagnostic:
    """Data and model at alpha; both models are 0 on the minor region."""
    hit = dissection.classify(alpha)
    if hit is None:
        h_model = W_model = 0j
    else:
        h_model = model_V(hit.beta, hit.q, hit.a, scale.params, scale.c_bulk)
        W_model = model_W(hit.beta, hit.q, hit.a, scale.params, scale.c_thin, scale.primes)
    return ArcDiagnostic(
        h=eval_h(alpha, scale.table_a),
        W=eval_W(alpha, scale.table_b, scale.primes),
        h_model=h_model,
        W_model=W_model,
        on_arc=hit is not None,
    )
