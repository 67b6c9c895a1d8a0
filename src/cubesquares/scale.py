"""One context per scale N for the chain (N, eta, R) -> params -> primes,
weight tables -> R(n) evaluator, smooth densities.

The exact count R(n) and the model S(n) * J(n) it is compared with are
built from the same scale; a Scale builds each member on first use and
keeps it.  The heavy work stays in the layer functions it calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expsums import truncated_singular_series
from .mainterm import MainTermReport, RnEvaluator, singular_integral_J
from .params import Params, derive_params
from .smooth import estimate_c_eta
from .weights import WeightTable, build_weight_table


@dataclass(frozen=True)
class WindowGate:
    """The exact sum of R(n) over [lo, hi] against the sampled model mass; it passes when exact / predicted lies in BAND."""

    BAND = (0.1, 10.0)  # not a field: it has no annotation
    lo: int
    hi: int
    exact: int
    predicted: float

    @property
    def ratio(self) -> float:
        return self.exact / self.predicted if self.predicted > 0 else math.inf  # no model mass fails the gate

    @property
    def passed(self) -> bool:
        return self.BAND[0] <= self.ratio <= self.BAND[1]


@dataclass(frozen=True)
class Scale:
    """Target N, smoothness exponent eta, and an optional smoothness bound R."""

    N: int
    eta: float = 0.1
    R: int | None = None

    @cached_property
    def params(self) -> Params:
        return derive_params(self.N, eta=self.eta, R_override=self.R)

    @cached_property
    def primes(self) -> list[int]:
        """Primes of the window [M/2, M]; may be empty at small N."""
        return self.params.default_primes()

    @cached_property
    def table_a(self) -> WeightTable:
        return build_weight_table(self.params, "a")

    @cached_property
    def table_b(self) -> WeightTable:
        return build_weight_table(self.params, "b")

    @cached_property
    def rn(self) -> RnEvaluator:
        return RnEvaluator(self.table_a, self.table_b, self.primes)

    @cached_property
    def c_bulk(self) -> float:
        """Smooth density of the bulk box [1, P]."""
        return estimate_c_eta(self.params.bulk.smooth_box, self.params.R)

    @cached_property
    def c_thin(self) -> float:
        """Smooth density of the thin box [1, smooth_box], or of [1, 1] when that box holds no integer."""
        return estimate_c_eta(max(self.params.thin.smooth_box, 1), self.params.R)

    def window_gate(self, samples: int, Q: int) -> WindowGate:
        """The exact mass of [lo, hi] = [N/2, N] against (hi - lo) * mean of S(n; Q) J(n) over `samples` n on a fixed stride from lo."""
        lo, hi = self.N // 2, self.N
        exact = self.rn.window_mass(lo, hi)
        ns = list(range(lo, hi + 1, max(1, (hi - lo) // samples)))[:samples]
        preds = [truncated_singular_series(n, Q).value * singular_integral_J(n, self.params, self.primes) for n in ns]
        return WindowGate(lo, hi, exact, float(np.mean(preds)) * (hi - lo))

    def report(self, n: int, Q: int) -> MainTermReport:
        """Exact R(n) against the model S(n; Q) * J(n)."""
        S = truncated_singular_series(n, Q).value
        J = singular_integral_J(n, self.params, self.primes)
        predicted = S * J
        r = self.rn(n)
        ratio = r / predicted if predicted != 0 else math.inf if r else math.nan
        return MainTermReport(n=n, R_exact=r, S_trunc=S, J_est=J, predicted=predicted, ratio=ratio)
