"""Quadratic-phase generating sums over the weight tables and their models.

    h(alpha) = sum_v a_v e(alpha v^2)          (bulk table)
    W(alpha) = sum_p sum_v b_v e(alpha p^6 v^2)  (thin table x prime window)

Phases are computed exactly: alpha is taken as an exact Fraction (binary
floats convert losslessly), and (num * (x^2 mod den)) mod den is Python
integer arithmetic, so no precision is lost even for v^2 ~ 1e25.

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

from .arcs import ArcDissection
from .expsums import complete_sum_S, phase_sum
from .oscillatory import osc_integral_v, osc_integral_v_thin
from .params import Params
from .scale import Scale
from .weights import WeightTable


def _exact_phases(table: WeightTable, alpha: Fraction, scale: int = 1) -> complex:
    """sum_v a_v e(alpha * (scale * v)^2) over the table with exact residue phases, one `phase_sum` over its blocks."""
    num = alpha.numerator % alpha.denominator
    den = alpha.denominator
    if num == 0:
        return complex(float(table.total), 0.0)
    return phase_sum(_residue_blocks(table, num, den, scale * scale), den)


def _residue_blocks(table: WeightTable, num: int, den: int, s2: int):
    """(num (s2 v^2 mod den) mod den, counts) for each block of `WeightTable.blocks`: one block at a time is held as Python ints."""
    for values, counts in table.blocks():
        v = values.astype(object)  # Python ints: v^2 ~ 1e25 and den are past int64
        yield num * (v * v * s2 % den) % den, counts


def eval_h(alpha: float | Fraction, table: WeightTable) -> complex:
    """The bulk generating sum at alpha; alpha = 0 returns the total mass."""
    return _exact_phases(table, Fraction(alpha))


def eval_W(alpha: float | Fraction, table: WeightTable, primes: list[int]) -> complex:
    """The thin generating sum; empty table or prime window gives 0."""
    af = Fraction(alpha)
    return sum((_exact_phases(table, af, scale=p**3) for p in primes), 0j)


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
