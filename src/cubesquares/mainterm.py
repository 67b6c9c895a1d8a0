"""Exact representation counts and the model main term they are compared to.

    R(n) = # ordered ((x, h1), (x', h2), v, v') with
           n = p1^6 h1^2 + p2^6 h2^2 + v^2 + v'^2,

weighted by the table multiplicities: v, v' run over the bulk table, h1, h2
over the thin table, p1, p2 over the prime window.  R is a double
convolution of two integer-indexed series, evaluated sparsely and exactly;
a dense FFT route over the full index range cross-checks it.

The model main term is (singular series at n) * J(n) where J(n) is the
four-fold convolution of the kernel slot densities at n, summed over the
discrete smooth tuples and prime pairs.  Convolution is multilinear, so
that sum is one convolution of summed slots, (T * T * U * U)(n): the thin
and bulk slot pairs are built once per (params, primes) and J(n) is a
single deterministic Gauss integral over their pair convolutions.  The
per-tuple sum of conv4_value is its test oracle, and conv4_value_beta an
independent Fourier route for single tuples.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError, QuadratureError
from .oscillatory import KernelSlot, _leggauss, _panel_rule, plain_slot, scaled_slot
from .params import Params
from .smooth import enumerate_smooth
from .weights import WeightTable

# -- exact counts --------------------------------------------------------------


def square_series(table: WeightTable) -> dict[int, int]:
    """k = v^2 -> total multiplicity (exact, Python ints)."""
    out: dict[int, int] = {}
    for v, c in zip(table.support.tolist(), table.counts.tolist()):
        k = v * v
        out[k] = out.get(k, 0) + c
    return out


def prime_square_series(table: WeightTable, primes: list[int]) -> dict[int, int]:
    """k = p^6 v^2 -> multiplicity, accumulated over the prime window."""
    out: dict[int, int] = {}
    for p in primes:
        p6 = p**6
        for v, c in zip(table.support.tolist(), table.counts.tolist()):
            k = p6 * v * v
            out[k] = out.get(k, 0) + c
    return out


def convolve_series(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return out


@dataclass
class RnEvaluator:
    """Caches the two self-convolved series so many n are cheap."""

    table_a: WeightTable
    table_b: WeightTable
    primes: list[int]
    aa: dict[int, int] = field(init=False, repr=False)
    bb: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        a = square_series(self.table_a)
        b = prime_square_series(self.table_b, self.primes)
        self.aa = convolve_series(a, a)
        self.bb = convolve_series(b, b)

    def __call__(self, n: int) -> int:
        return sum(cb * self.aa.get(n - kb, 0) for kb, cb in self.bb.items())

    def window_mass(self, lo: int, hi: int) -> int:
        """sum of R(n) over lo <= n <= hi, exactly, by prefix sums over sorted aa."""
        keys = sorted(self.aa)
        prefix = [0, *itertools.accumulate(self.aa[k] for k in keys)]
        return sum(
            cb * (prefix[bisect.bisect_right(keys, hi - kb)] - prefix[bisect.bisect_left(keys, lo - kb)])
            for kb, cb in self.bb.items()
        )

    @property
    def max_n(self) -> int:
        if not self.aa or not self.bb:
            return 0
        return max(self.aa) + max(self.bb)

    @property
    def total(self) -> int:
        """sum_n R(n) = (a total)^2 * (|primes| b total)^2."""
        return sum(self.aa.values()) * sum(self.bb.values())


def rn_dense_dft(
    table_a: WeightTable, table_b: WeightTable, primes: list[int], budget_entries: int = 1 << 24
) -> np.ndarray:
    """All R(n) at once via rounded real FFT over the dense index range.

    Exact as long as the rounding margin holds: the worst-case accumulated
    float error is ~ L * eps * (sum a)^2 (sum b)^2, checked against 0.49
    before rounding is trusted.
    """
    a = square_series(table_a)
    b = prime_square_series(table_b, primes)
    if not a or not b:
        return np.zeros(1, dtype=np.int64)
    top = 2 * max(a) + 2 * max(b)
    L = 1 << (top + 1).bit_length()
    if L > budget_entries:
        raise CapacityError(f"dense DFT needs {L} entries > budget {budget_entries}")
    da = np.zeros(L, dtype=np.float64)
    for k, c in a.items():
        da[k] = c
    db = np.zeros(L, dtype=np.float64)
    for k, c in b.items():
        db[k] = c
    mass = float(sum(a.values())) ** 2 * float(sum(b.values())) ** 2
    margin = L * np.finfo(np.float64).eps * mass
    if margin > 0.49:
        raise CapacityError(f"float rounding margin {margin:.3g} too large for exact recovery")
    fa = np.fft.rfft(da)
    fb = np.fft.rfft(db)
    out = np.fft.irfft(fa * fa * fb * fb, n=L)
    return np.rint(out[: top + 1]).astype(np.int64)


# -- singular integral ----------------------------------------------------------


def _pair_conv(sa: KernelSlot, sb: KernelSlot, u: np.ndarray, order: int = 24) -> np.ndarray:
    """(B_a * B_b)(u) on an array of points, each a smooth 1D integral."""
    lo = np.maximum(sa.gamma_lo, u - sb.gamma_hi)
    hi = np.minimum(sa.gamma_hi, u - sb.gamma_lo)
    span = np.maximum(hi - lo, 0.0)
    x, w = _panel_rule(0.0, 1.0, 1, order)
    g = lo[None, :] + span[None, :] * x[:, None]
    gb = np.maximum(u[None, :] - g, sb.gamma_lo)  # clamp float dust at the edge
    vals = sa.density(np.maximum(g, sa.gamma_lo)) * sb.density(gb)
    return np.sum(vals * w[:, None], axis=0) * span


def conv4_value(slots: tuple[KernelSlot, ...], n: float, order: int = 24) -> float:
    """(B1 * B2 * B3 * B4)(n) as int F12(u) F34(n - u) du.

    F12 and F34 are the pair convolutions; they are smooth between known
    breakpoints (where the overlap window changes shape), so the outer
    integral is split there and each piece gets its own Gauss rule.
    """
    s1, s2, s3, s4 = slots
    b12 = [s1.gamma_lo + s2.gamma_lo, s1.gamma_lo + s2.gamma_hi, s1.gamma_hi + s2.gamma_lo, s1.gamma_hi + s2.gamma_hi]
    b34 = [s3.gamma_lo + s4.gamma_lo, s3.gamma_lo + s4.gamma_hi, s3.gamma_hi + s4.gamma_lo, s3.gamma_hi + s4.gamma_hi]
    u_lo = max(min(b12), n - max(b34))
    u_hi = min(max(b12), n - min(b34))
    if u_hi <= u_lo:
        return 0.0
    cuts = sorted({u_lo, u_hi, *(b for b in b12 if u_lo < b < u_hi), *(n - b for b in b34 if u_lo < n - b < u_hi)})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        u, wu = _panel_rule(a, b, 1, order)
        total += float(np.sum(wu * _pair_conv(s1, s2, u, order) * _pair_conv(s3, s4, n - u, order)))
    return total


def conv4_value_beta(slots: tuple[KernelSlot, ...], n: float, K: float = 40.0, order: int = 16) -> float:
    """Independent route: truncated Fourier inversion over |beta| <= K/n.

    Each slot transform is evaluated on a shared beta grid; the truncation
    tail falls off like K^-3 relatively, so this is a cross-check, not the
    default.
    """
    T = K / n
    glo = sum(s.gamma_lo for s in slots)
    ghi = sum(s.gamma_hi for s in slots)
    rate = max(abs(glo - n), abs(ghi - n), 1.0)
    panels = max(8, int(4.0 * T * rate / order) + 8)
    if panels * order > 200_000:
        raise QuadratureError(f"beta grid would need {panels * order} nodes; n is far outside the support")
    beta, wb = _panel_rule(-T, T, panels, order)
    prod = np.ones_like(beta, dtype=np.complex128)
    for s in slots:
        cycles = T * (s.gamma_hi - s.gamma_lo)
        sp = max(2, int(cycles / 3.0) + 1)
        g, wg = _panel_rule(s.gamma_lo, s.gamma_hi, sp, 16)
        dens = s.density(g) * wg
        prod *= np.exp(2j * np.pi * np.outer(beta, g)) @ dens
    val = np.sum(wb * prod * np.exp(-2j * np.pi * beta * n))
    return float(val.real)


_BLOCK = 4096  # outer nodes per pair-convolution call; bounds the (order x block) temporaries


@dataclass(frozen=True)
class _SlotPairs:
    """Unordered slot pairs (a, b) with weights; (B_a * B_b) lives on [lo, hi]."""

    pairs: list[tuple[KernelSlot, KernelSlot]]
    weight: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    breaks: np.ndarray

    @classmethod
    def build(cls, slots: list[tuple[KernelSlot, int]]) -> "_SlotPairs":
        """Pairs of the given (slot, multiplicity m_i) list.

        (B_a * B_b) = (B_b * B_a), so the pair {i, j} is kept once with
        weight 2 m_i m_j (m_i^2 on the diagonal).
        """
        pairs, weight = [], []
        for i, (sa, ma) in enumerate(slots):
            for j, (sb, mb) in enumerate(slots[i:], start=i):
                pairs.append((sa, sb))
                weight.append(ma * mb * (1 if j == i else 2))
        corners = np.array(
            [[a.gamma_lo + b.gamma_lo, a.gamma_lo + b.gamma_hi, a.gamma_hi + b.gamma_lo, a.gamma_hi + b.gamma_hi]
             for a, b in pairs]
        )
        return cls(pairs, np.array(weight, dtype=np.float64), corners[:, 0], corners[:, 3], np.unique(corners))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """sum_k weight_k (B_a * B_b)_k(v) at ascending points v.

        Every pair breakpoint must be a cut of the rule that made v, so each
        pair's support covers a contiguous run of v and is skipped elsewhere.
        """
        out = np.zeros_like(v)
        starts = np.searchsorted(v, self.lo, "right")
        ends = np.searchsorted(v, self.hi, "left")
        for k in np.flatnonzero(ends > starts).tolist():
            sa, sb = self.pairs[k]
            for i in range(starts[k], ends[k], _BLOCK):
                j = min(i + _BLOCK, ends[k])
                out[i:j] += self.weight[k] * _pair_conv(sa, sb, v[i:j])
        return out


@lru_cache(maxsize=8)
def _j_slot_pairs(params: Params, primes: tuple[int, ...]) -> tuple[_SlotPairs, _SlotPairs] | None:
    """Thin pairs (prime-scaled slots) and bulk pairs (plain slots) of J."""
    s3 = enumerate_smooth(int(math.floor(params.H3)), params.R).members.tolist()
    sp = enumerate_smooth(params.P, params.R).members.tolist()
    if not primes or not s3 or not sp:
        return None
    thin = [(scaled_slot(params.H1, params.H2, float(C), p), m) for p in primes for C, m in _pair_cubes(s3).items()]
    bulk = [(plain_slot(params.P / 2.0, float(params.P), float(C)), m) for C, m in _pair_cubes(sp).items()]
    return _SlotPairs.build(thin), _SlotPairs.build(bulk)


def singular_integral_J(n: int, params: Params, primes: list[int]) -> float:
    """J(n): kernel four-fold convolution summed over discrete smooth tuples.

    The sum over primes p1, p2 and cube pairs C1..C4 of
    (B_{p1,C1} * B_{p2,C2} * B_{C3} * B_{C4})(n) is, by multilinearity,
    int F_TT(u) F_UU(n - u) du with F_TT and F_UU the summed pair
    convolutions of the thin and bulk slots.  The u-integral is cut at
    every thin breakpoint and every n - (bulk breakpoint), so each piece
    is smooth for every pair, and gets the same Gauss rule as conv4_value.
    """
    built = _j_slot_pairs(params, tuple(primes))
    if built is None:
        return 0.0
    thin, bulk = built
    n = float(n)
    u_lo = max(thin.lo.min(), n - bulk.hi.max())
    u_hi = min(thin.hi.max(), n - bulk.lo.min())
    if u_hi <= u_lo:
        return 0.0
    cuts = np.unique(np.concatenate(([u_lo, u_hi], thin.breaks, n - bulk.breaks)))
    cuts = cuts[(cuts >= u_lo) & (cuts <= u_hi)]
    x, w = _leggauss(24)
    mid = 0.5 * (cuts[:-1] + cuts[1:])[:, None]
    half = 0.5 * (cuts[1:] - cuts[:-1])[:, None]
    u = (mid + half * x).ravel()
    wu = (half * w).ravel()
    f_uu = bulk((n - u)[::-1])[::-1]
    return float(np.sum(wu * thin(u) * f_uu))


def _pair_cubes(members: list[int]) -> Counter[int]:
    """a^3 + b^3 -> number of ordered pairs (a, b) of members giving it."""
    return Counter(a**3 + b**3 for a in members for b in members)


# -- the report -----------------------------------------------------------------


@dataclass
class MainTermReport:
    """Exact R(n) against the model S(n) * J(n); built by ``Scale.report``."""

    n: int
    R_exact: int
    S_trunc: float
    J_est: float
    predicted: float
    ratio: float

    def as_json_dict(self) -> dict:
        """The fields, with a non-finite ratio (no model mass at n) as None."""
        return {**asdict(self), "ratio": self.ratio if math.isfinite(self.ratio) else None}
