"""Exact representation counts and the model main term they are compared to.

    R(n) = # ordered ((x, h1), (x', h2), v, v') with
           n = p1^6 h1^2 + p2^6 h2^2 + v^2 + v'^2,

weighted by the table multiplicities: v, v' run over the bulk table, h1, h2
over the thin table, p1, p2 over the prime window.  R is a double
convolution of two integer-indexed series, counted exactly by a sweep of
the sorted bulk squares for each thin pair sum, in memory linear in the
bulk table; a dense FFT route over the full index range cross-checks it.

The model main term is (singular series at n) * J(n) where J(n) is the
four-fold convolution of the kernel slot densities at n, summed over the
discrete smooth tuples and prime pairs.  A slot is the pushforward of one
leading variable under gamma = p^6 (x1^3 + C)^2, and its constants are
stated here once, as arrays over the slots of a family.  Convolution is
multilinear, so that sum is one convolution of summed slots,
(T * T * U * U)(n): the thin and bulk slot pairs are built once per
(params, primes), each pair sum is expanded in a Chebyshev series on its
smooth panels, and J(n) is a single deterministic Gauss integral of the
product of the two series.  The thin sum F_TT is expanded once per
(params, primes) over its whole support, the bulk sum F_UU once per n
over the range that n needs.  A pair sum at many points is one batched
kernel over its (pair, point) entries.  The oracles live in
tests/test_mainterm.py and build their slots from the parameters
themselves: an exhaustive per-tuple sum of single four-fold convolutions,
a loop of single pair convolutions at every Gauss node, and a Fourier
route for single tuples.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import weights
from .cubesieve import reserve
from .errors import CapacityError, QuadratureError
from .oscillatory import gauss_rule
from .params import Family, Params
from .weights import WeightTable, _outer_sum, smooth_cube_pairs

# -- exact counts --------------------------------------------------------------


def _max_n(table_a: WeightTable, table_b: WeightTable, primes: list[int]) -> int:
    """2 max(v)^2 + 2 max(p)^6 max(h)^2 in Python ints: no n above it has R(n) > 0."""
    return 2 * table_a.max_value**2 + 2 * max(primes, default=0) ** 6 * table_b.max_value**2


def _squares(table: WeightTable) -> np.ndarray:
    """The int64 squares v^2 of the table's values, formed one block of values at a time."""
    out = np.empty(len(table), np.int64)
    i = 0
    for values, _ in table.blocks():
        np.multiply(values, values, out=out[i : i + values.size])
        i += values.size
    return out


def _thin_series(table_b: WeightTable, primes: list[int]):
    """b = {p^6 h^2} over the thin table and primes as sorted keys and counts; a key may repeat (2^6 27^2 = 3^6 8^2)."""
    kb = np.multiply.outer(np.array(primes, np.int64) ** 6, _squares(table_b)).ravel()
    order = np.argsort(kb, kind="stable")
    return kb[order], np.tile(table_b.counts, len(primes))[order]


class RnEvaluator:
    """Keeps the bulk square series a and the thin self-sum bb so many n are cheap.

    a and bb are (sorted distinct int64 keys, counts) pairs: a maps v^2 and
    bb maps p1^6 h1^2 + p2^6 h2^2 to their multiplicities.  bb is built as
    a table by the outer sum of the thin series with itself, and its keys
    are read as int64 once, here; the sweeps take them whole.
    With F(t) = sum of ca_i ca_j over ka_i + ka_j <= t, a window mass is the
    sum of bb(kb) (F(hi - kb) - F(lo - 1 - kb)) over bb keys kb, each F(t) a
    searchsorted of t - ka into ka over the prefix sums of ca.  First the
    evaluator checks its own limits in Python ints: every R(n) key up to
    `_max_n` and the total fit an int64.  The outer sum guards bb's build
    and key width, and `rn_bytes` is reserved before the bulk squares.
    """

    def __init__(self, table_a: WeightTable, table_b: WeightTable, primes: list[int]):
        top = _max_n(table_a, table_b, primes)
        total = (table_a.total * len(primes) * table_b.total) ** 2
        if top >> 63 or total >> 63:
            raise CapacityError(f"R(n) keys to {top} or their sum {total} overflow int64")
        kb, cb = _thin_series(table_b, primes)
        bb = _outer_sum(kb, cb, kb, cb, "bb")
        self.bb = bb.support, bb.counts
        reserve(rn_bytes(len(table_a), self.bb[0].size, self.bb[1].itemsize), "R(n) sweep")
        self.a = _squares(table_a), table_a.counts
        self.total = total  # sum_n R(n) = (a total)^2 * (|primes| b total)^2
        self.max_n = top if total else 0

    def __call__(self, n: int) -> int:
        return self.window_mass(n, n)

    def window_mass(self, lo: int, hi: int) -> int:
        """sum of R(n) over lo <= n <= hi, exactly, by sweeps of at most BUCKET (t, i) entries, or one t."""
        lo, hi = max(lo, 0), min(hi, self.max_n)
        if hi < lo or not self.total:
            return 0
        (ka, ca), (kb, cb) = self.a, self.bb
        ca = ca.astype(np.int64)  # the counts may be int16 or int32; F(t) and its matmul are int64 work
        pre = np.concatenate(([0], np.cumsum(ca)))
        t = np.concatenate((hi - kb, lo - 1 - kb))
        f = np.empty(t.size, np.int64)  # F(t)
        block = np.empty((min(max(1, weights.BUCKET // ka.size), t.size), ka.size), np.int64)
        for s in range(0, t.size, len(block)):
            b = block[: t.size - s]
            for x, row in zip(t[s : s + len(b)].tolist(), b):  # row by row: a broadcast would take ufunc buffers
                np.subtract(x, ka, out=row)
            np.take(pre, np.searchsorted(ka, b, "right"), out=b, mode="clip")
            np.matmul(b, ca, out=f[s : s + len(b)])
        return int(cb @ (f[: kb.size] - f[kb.size :]))


def rn_bytes(k: int, nbb: int, width: int) -> int:
    """Upper bound on the bytes `RnEvaluator` holds beside bb's build, for k bulk squares and nbb bb keys of `width`-byte counts.

    `_outer_sum` guards the build of bb, the thin self-sum, and frees its
    scratch before bb's keys are read as int64.  bb then keeps 8 + width
    bytes per key, and its keys give twice as many t.  A sweep block of r
    rows of k entries takes 16 bytes per entry (differences, then prefix
    sums, and indices), beside 24 per t.  The bulk squares, their counts
    widened to int64 and their prefix sums take 24 bytes per square, and
    5 KiB covers the array headers and interpreter objects.
    """
    rows = max(1, min(weights.BUCKET // max(k, 1), 2 * nbb))
    return (8 + width + 2 * 24) * nbb + 16 * rows * k + 24 * k + 5 * 2**10


def toy_tables() -> tuple[WeightTable, WeightTable, list[int]]:
    """The toy system a = b = {3: 1} with the one prime 2, where R(n) can be checked by hand."""
    return WeightTable("a", (3,), (1,)), WeightTable("b", (3,), (1,)), [2]


def dense_dft_bytes(L: int, terms: int) -> int:
    """Upper bound on the bytes `rn_dense_dft` holds for a length-L transform of `terms` series terms.

    The two squared series peak at 40 bytes per term while they are built
    (the thin keys, their sort order, the sorted keys, the tiled counts and
    the sorted counts) and keep 16 after.  Then at most four length-L
    float64 arrays are live at once (both transforms beside two products,
    or beside the last product and the inverse transform), plus 64 bytes
    for the Nyquist bins; 2^13 bytes cover the array headers and the
    interpreter's own small allocations.
    """
    return 32 * L + 40 * terms + 2**13


def rn_dense_dft(table_a: WeightTable, table_b: WeightTable, primes: list[int]) -> np.ndarray:
    """All R(n) at once via rounded real FFT over the dense index range.

    Exact as long as the rounding margin holds: the worst-case accumulated
    float error is ~ L * eps * (sum a)^2 (sum b)^2, checked against 0.49
    before rounding is trusted.  The margin, and `dense_dft_bytes` against
    the memory budget, are checked before anything is allocated.
    """
    if not len(table_a) or not len(table_b) or not primes:
        return np.zeros(1, dtype=np.int64)
    top = _max_n(table_a, table_b, primes)
    L = 1 << (top + 1).bit_length()
    mass = float(table_a.total) ** 2 * float(len(primes) * table_b.total) ** 2
    margin = L * np.finfo(np.float64).eps * mass
    if margin > 0.49:
        raise CapacityError(f"float rounding margin {margin:.3g} too large for exact recovery")
    reserve(dense_dft_bytes(L, len(table_a) + len(primes) * len(table_b)), f"dense DFT of length {L}")
    ka, (kb, cb) = _squares(table_a), _thin_series(table_b, primes)
    fa = np.fft.rfft(np.bincount(ka, table_a.counts, L))
    fb = np.fft.rfft(np.bincount(kb, cb, L))
    out = np.fft.irfft(fa * fa * fb * fb, n=L)[: top + 1]
    return np.rint(out, out=out).astype(np.int64)


# -- singular integral ----------------------------------------------------------

_GAUSS_ORDER = 24  # Gauss points per pair convolution and per outer piece of J


# (pair, point) entries per block of the pair-sum kernel, each with
# _GAUSS_ORDER nodes.  The three _GAUSS_ORDER x _BLOCK float64 buffers, 1.2 MB
# together, are allocated once per call and fit a 2 MiB L2 cache.  On a 2-core
# Xeon the bulk sum at P = 27 over its whole support took 0.49 s in blocks of
# 512 entries, where a block's index work is a quarter of it, and 0.40 s at 2048.
_BLOCK = 2048

# Each pair sum is sampled at _CHEB_POINTS Chebyshev-Lobatto points per
# smooth panel.  A panel whose last three Chebyshev coefficients exceed
# _CHEB_TAIL of its largest sample, plus the samples' rounding noise, is
# bisected, at most _CHEB_ROUNDS times over.
_CHEB_POINTS = 32
_CHEB_TAIL = 1e-12
_CHEB_ROUNDS = 4


def _distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of x; np.unique would import numpy.ma."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


@dataclass(frozen=True)
class _SlotPairs:
    """Unordered pairs (a, b) of kernel slots with weights; (B_a * B_b) lives on [lo, hi].

    A slot is the pushforward density
    B(gamma) = pref gamma^(-1/2) (sqrt(gamma) - C)^(-2/3) on [gamma_lo, gamma_hi].
    Column k of `slot` holds pair k's constants for the batched kernel:
    gamma_lo, gamma_hi and C of slot a, the same of slot b, and
    weight * pref_a * pref_b.
    """

    lo: np.ndarray
    hi: np.ndarray
    breaks: np.ndarray
    slot: np.ndarray

    @classmethod
    def build(cls, g_lo, g_hi, C, pref, m) -> "_SlotPairs":
        """Pairs of the slots whose constants and multiplicities m_i are the entries of the five arrays.

        (B_a * B_b) = (B_b * B_a), so the pair {i, j} is kept once with
        weight 2 m_i m_j (m_i^2 on the diagonal).
        """
        a, b = np.triu_indices(m.size)
        weight = (m[a].astype(np.int64) * m[b] * np.where(a == b, 1, 2)).astype(np.float64)
        corners = np.stack((g_lo[a] + g_lo[b], g_lo[a] + g_hi[b], g_hi[a] + g_lo[b], g_hi[a] + g_hi[b]))
        slot = np.stack((g_lo[a], g_hi[a], C[a], g_lo[b], g_hi[b], C[b], pref[a] * pref[b] * weight))
        return cls(corners[0], corners[3], _distinct(corners), slot)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """sum_k weight_k (B_a * B_b)_k(v) at ascending points v.

        Every pair breakpoint must be a cut of the rule that made v, so each
        pair's support covers a contiguous run of v.  The (pair, point)
        entries of those runs are taken _BLOCK at a time.  Each entry is the
        _GAUSS_ORDER-point Gauss rule in g over the overlap of the two
        slots, with the density product at a node,
        pref_a pref_b / (sqrt(g) sqrt(u - g) cbrt((sqrt(g) - C_a)(sqrt(u - g) - C_b))^2),
        formed in place.  A matmul with the weights reduces the nodes, and
        bincount scatters the entries onto v.
        """
        out = np.zeros_like(v)
        starts = np.searchsorted(v, self.lo, "right")
        runs = np.searchsorted(v, self.hi, "left") - starts
        live = np.flatnonzero(runs > 0)
        starts, runs = starts[live], runs[live]
        first = np.cumsum(runs) - runs  # the entry index of each live pair's first point
        total = int(runs.sum())
        t, hw = gauss_rule((0.0, 1.0), _GAUSS_ORDER)
        t = t[:, None]
        buf = np.empty((3, _GAUSS_ORDER, min(_BLOCK, total)))
        for e0 in range(0, total, _BLOCK):
            e = np.arange(e0, min(e0 + _BLOCK, total))
            j = np.searchsorted(first, e, "right") - 1
            i = starts[j] + (e - first[j])
            u = v[i]
            a_lo, a_hi, ca, b_lo, b_hi, cb, scale = self.slot[:, live[j]]
            lo = np.maximum(a_lo, u - b_hi)
            span = np.maximum(np.minimum(a_hi, u - b_lo) - lo, 0.0)
            g, h, r = buf[:, :, : e.size]  # nodes down, entries across
            np.multiply(t, span, out=g)
            g += lo  # g >= lo >= gamma_lo of slot a, since rounding is monotone
            np.subtract(u, g, out=h)  # no clamp at b_lo: the density's pole, C_b^2, lies below it
            np.sqrt(g, out=g)
            np.sqrt(h, out=h)
            np.subtract(g, ca, out=r)
            g *= h
            h -= cb
            r *= h  # q = (sqrt(g) - C_a)(sqrt(u - g) - C_b)
            g *= r
            np.cbrt(r, out=r)
            r /= g  # cbrt(q) / (sqrt(g) sqrt(u - g) q)
            f = (hw @ r) * span * scale
            i0 = i.min()
            hit = np.bincount(i - i0, f)
            out[i0 : i0 + hit.size] += hit
        return out


def _slots(family: Family, c: np.ndarray, m: np.ndarray, primes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """gamma_lo, gamma_hi, C, pref and multiplicity of a family's kernel slots, prime by prime.

    The slot of prime p and cube pair sum c, given by m ordered pairs, is
    the pushforward of x1 in [lo, hi] under gamma = p^6 (x1^3 + c)^2 =
    (p^3 x1^3 + p^3 c)^2: C = p^3 c, pref = 1 / (6 p), and gamma runs
    between the squares of p^3 (lo^3 + c) and p^3 (hi^3 + c).  The bulk
    slots are those of p = 1.
    """
    k = c.size
    p3 = np.repeat([float(p) ** 3 for p in primes], k)
    pref = np.repeat([1.0 / (6.0 * p) for p in primes], k)
    c = np.tile(c.astype(np.float64), len(primes))
    return (p3 * (family.lo**3 + c)) ** 2, (p3 * (family.hi**3 + c)) ** 2, p3 * c, pref, np.tile(m, len(primes))


@lru_cache(maxsize=8)
def _j_slot_pairs(params: Params, primes: tuple[int, ...]) -> tuple[_SlotPairs, _SlotPairs, tuple] | None:
    """Thin pairs (prime-scaled slots), bulk pairs (plain slots) and F_TT's
    panel series over the whole thin support: the part of J that no n changes.
    """
    tf, bf = params.thin, params.bulk
    c3, m3 = smooth_cube_pairs(tf.smooth_box, params.R)
    cp, mp = smooth_cube_pairs(bf.smooth_box, params.R)
    if not primes or not c3.size or not cp.size:
        return None
    thin = _SlotPairs.build(*_slots(tf, c3, m3, primes))
    f_tt = _panels(thin, thin.lo.min(), thin.hi.max())
    return thin, _SlotPairs.build(*_slots(bf, cp, mp, (1,))), f_tt


@lru_cache(maxsize=4)
def _lobatto(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Chebyshev-Lobatto points t_k on [-1, 1] and the m x m matrix
    taking samples at t_k to the Chebyshev coefficients.

    The points run upward and T_j(-x) = (-1)^j T_j(x), so the odd rows of
    the cosine transform change sign.
    """
    k = np.arange(m)
    t = -np.cos(np.pi * k / (m - 1))
    cos = np.cos(np.pi * np.outer(k, k) / (m - 1)) * (2.0 / (m - 1))
    cos[:, [0, -1]] *= 0.5
    cos[[0, -1]] *= 0.5
    cos[1::2] *= -1
    t.flags.writeable = cos.flags.writeable = False
    return t, cos


def _panels(pairs: _SlotPairs, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panels [a, b] of [lo, hi] and the Chebyshev coefficients of the pair sum on each.

    The first panels run between consecutive pair breakpoints, where the
    pair sum is smooth.  Each round samples the open panels at their
    Chebyshev-Lobatto points in one ascending call and bisects those whose
    Chebyshev tail exceeds _CHEB_TAIL of the panel's largest sample by more
    than rounding noise.  Bisection cannot lower that noise: on a narrow
    panel far from 0 the sample points themselves sit only to within
    eps |v|.  A panel still open after _CHEB_ROUNDS rounds raises
    QuadratureError.
    """
    t, cos = _lobatto(_CHEB_POINTS)
    edges = np.concatenate(([lo], pairs.breaks[(pairs.breaks > lo) & (pairs.breaks < hi)], [hi]))
    a, b = edges[:-1], edges[1:]
    done: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for _ in range(_CHEB_ROUNDS + 1):
        v = np.clip(0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * t, a[:, None], b[:, None])
        f = pairs(v.ravel()).reshape(v.shape)
        c = f @ cos.T
        tail = np.abs(c[:, -3:]).max(axis=1)
        # rounding noise: the pair sum's mean slope on the panel times eps |v|
        noise = np.finfo(np.float64).eps * np.maximum(np.abs(a), np.abs(b)) / (b - a) * np.ptp(f, axis=1)
        ok = tail <= _CHEB_TAIL * np.abs(f).max(axis=1) + noise
        done.append((a[ok], b[ok], c[ok]))
        if ok.all():
            a, b, c = (np.concatenate(x) for x in zip(*done))
            order = np.argsort(a)
            return a[order], b[order], c[order]
        mid = 0.5 * (a[~ok] + b[~ok])
        a, b = np.column_stack((a[~ok], mid)).ravel(), np.column_stack((mid, b[~ok])).ravel()
    raise QuadratureError(f"pair sum needs more than {_CHEB_ROUNDS} bisections of its panels at {_CHEB_POINTS} points")


def _chebval(a: np.ndarray, b: np.ndarray, c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The panel series of `_panels` at points v, by Clenshaw's recurrence one coefficient column at a time."""
    k = np.clip(np.searchsorted(a, v, "right") - 1, 0, a.size - 1)
    s = (2.0 * v - (a[k] + b[k])) / (b[k] - a[k])
    b1, b2 = np.zeros_like(v), np.zeros_like(v)
    for j in range(c.shape[1] - 1, 0, -1):
        b1, b2 = c[k, j] + 2.0 * s * b1 - b2, b1
    return c[k, 0] + s * b1 - b2


def singular_integral_J(n: int, params: Params, primes: list[int]) -> float:
    """J(n): kernel four-fold convolution summed over discrete smooth tuples.

    The sum over primes p1, p2 and cube pairs C1..C4 of
    (B_{p1,C1} * B_{p2,C2} * B_{C3} * B_{C4})(n) is, by multilinearity,
    int F_TT(u) F_UU(n - u) du with F_TT and F_UU the summed pair
    convolutions of the thin and bulk slots.  Each is a Chebyshev series on
    its own smooth panels: F_TT's, over the whole thin support, come with
    the slot pairs; F_UU's are built here over [n - u_hi, n - u_lo].  The
    u-integral is cut at u_lo, u_hi, every thin panel edge and every
    n - (bulk panel edge), so both series are polynomials on each piece,
    which gets a _GAUSS_ORDER-point Gauss rule.
    """
    built = _j_slot_pairs(params, tuple(primes))
    if built is None:
        return 0.0
    thin, bulk, f_tt = built
    n = float(n)
    u_lo = max(thin.lo.min(), n - bulk.hi.max())
    u_hi = min(thin.hi.max(), n - bulk.lo.min())
    if u_hi <= u_lo:
        return 0.0
    f_uu = _panels(bulk, n - u_hi, n - u_lo)
    cuts = _distinct(np.concatenate((f_tt[0], [u_lo, u_hi], n - f_uu[0][1:])))
    cuts = cuts[(cuts >= u_lo) & (cuts <= u_hi)]
    u, wu = gauss_rule(cuts, _GAUSS_ORDER)
    return float(np.sum(wu * _chebval(*f_tt, u) * _chebval(*f_uu, n - u)))


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
