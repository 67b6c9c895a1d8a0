import bisect
import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubesquares import mainterm
from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import CapacityError, QuadratureError
from cubesquares.mainterm import (
    RnEvaluator,
    _squares,
    _thin_series,
    dense_dft_bytes,
    rn_bytes,
    rn_dense_dft,
    singular_integral_J,
)
from cubesquares.oscillatory import _panel_rule, gauss_rule
from cubesquares.params import derive_params
from cubesquares.scale import Scale
from cubesquares.smooth import enumerate_smooth
from cubesquares.weights import WeightTable
from test_weights import _one_sort_oracle

TOY_A = WeightTable("a", (3,), (1,))
TOY_B = WeightTable("b", (3,), (1,))


def test_hand_checked_values():
    # single bulk value 3, single thin value 3, prime 2:
    # every term is v^2 or (2^3 * 3)^2 = 576; 1170 = 576 + 576 + 9 + 9
    ev = RnEvaluator(TOY_A, TOY_B, [2])
    assert ev(1170) == 1
    assert ev(663_570) == 0
    assert ev(0) == 0


def test_evaluator_totals():
    ev = RnEvaluator(TOY_A, TOY_B, [2])
    assert ev.total == 1
    assert ev.max_n == 1170
    richer = RnEvaluator(
        WeightTable("a", (3, 5), (1, 2)),
        WeightTable("b", (3, 4), (1, 1)),
        [2, 3],
    )
    assert richer.total == (1 + 2) ** 2 * (2 * (1 + 1)) ** 2


def test_dense_dft_matches_sparse():
    ta = WeightTable("a", (3, 5, 7), (1, 2, 1))
    tb = WeightTable("b", (3, 4), (2, 1))
    primes = [2, 3]
    ev = RnEvaluator(ta, tb, primes)
    dense = rn_dense_dft(ta, tb, primes)
    assert len(dense) == ev.max_n + 1
    for n in range(ev.max_n + 1):
        assert int(dense[n]) == ev(n)
    assert int(dense.sum()) == ev.total


def test_repeated_thin_keys_are_summed():
    # 2^6 27^2 = 3^6 8^2 = 46 656: two thin terms share a key, with counts 3 and 1
    ta = WeightTable("a", (3, 5, 7), (1, 2, 1))
    tb = WeightTable("b", (8, 27), (1, 3))
    primes = [2, 3]
    ev = RnEvaluator(ta, tb, primes)
    assert dict(zip(ev.bb[0].tolist(), ev.bb[1].tolist()))[2 * 46_656] == (3 + 1) ** 2
    dense = rn_dense_dft(ta, tb, primes)
    support = np.flatnonzero(dense).tolist()
    assert len(support) == 36
    assert all(ev(n) == int(dense[n]) for n in support)
    assert ev.window_mass(0, ev.max_n) == ev.total == int(dense.sum())


def test_dense_dft_margin_guard():
    ta = WeightTable("a", (3,), (2_000_000,))
    tb = WeightTable("b", (3,), (1_000_000,))
    with pytest.raises(CapacityError):
        rn_dense_dft(ta, tb, [2])


@pytest.mark.parametrize("v", [300, 1000])
def test_dense_dft_memory_guard_matches_allocation(monkeypatch, v):
    ta = WeightTable("a", np.arange(1, v), np.ones(v - 1, np.int64))
    tb = WeightTable("b", (3, 4), (2, 1))
    L = 1 << (2 * (v - 1) ** 2 + 2 * 2**6 * 4**2 + 1).bit_length()
    need = dense_dft_bytes(L, len(ta) + len(tb))
    rn_dense_dft(TOY_A, TOY_B, [2])  # numpy.fft allocates its own state on first use
    monkeypatch.setenv(BUDGET_ENV, str(need))
    tracemalloc.start()
    try:
        dense = rn_dense_dft(ta, tb, [2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(dense.sum()) == RnEvaluator(ta, tb, [2]).total
    assert 0.99 * need <= peak <= need
    monkeypatch.setenv(BUDGET_ENV, str(need - 1))
    with pytest.raises(CapacityError):
        rn_dense_dft(ta, tb, [2])


# -- the kernel slots and their convolutions, one tuple at a time: J's oracles ----
# They read mainterm._GAUSS_ORDER at call time, so they use the program's rule order.


@dataclass(frozen=True)
class KernelSlot:
    """One pushforward kernel: gamma in [s_lo^2, s_hi^2],
    B(gamma) = pref * gamma^(-1/2) * (sqrt(gamma) - C)^(-2/3).
    """

    C: float
    s_lo: float
    s_hi: float
    pref: float

    @property
    def gamma_lo(self) -> float:
        return self.s_lo**2

    @property
    def gamma_hi(self) -> float:
        return self.s_hi**2

    @property
    def mass(self) -> float:
        """int B dgamma, exactly 6*pref*((s_hi-C)^(1/3) - (s_lo-C)^(1/3))."""
        return 6.0 * self.pref * ((self.s_hi - self.C) ** (1 / 3) - (self.s_lo - self.C) ** (1 / 3))

    def density(self, gamma: np.ndarray) -> np.ndarray:
        s = np.sqrt(gamma)
        return self.pref / (s * (s - self.C) ** (2.0 / 3.0))


def plain_slot(t_lo: float, t_hi: float, C: float) -> KernelSlot:
    """Pushforward of x1 in [t_lo, t_hi] under gamma = (x1^3 + C)^2."""
    return KernelSlot(C=C, s_lo=t_lo**3 + C, s_hi=t_hi**3 + C, pref=1.0 / 6.0)


def scaled_slot(t_lo: float, t_hi: float, C: float, p: int) -> KernelSlot:
    """Pushforward of gamma = p^6 (x1^3 + C)^2 = (p^3 x1^3 + p^3 C)^2."""
    p3 = float(p) ** 3
    return KernelSlot(C=p3 * C, s_lo=p3 * (t_lo**3 + C), s_hi=p3 * (t_hi**3 + C), pref=1.0 / (6.0 * p))


def _pair_conv(sa: KernelSlot, sb: KernelSlot, u: np.ndarray) -> np.ndarray:
    """(B_a * B_b)(u) on an array of points, each a smooth 1D integral by a _GAUSS_ORDER-point Gauss rule."""
    lo = np.maximum(sa.gamma_lo, u - sb.gamma_hi)
    hi = np.minimum(sa.gamma_hi, u - sb.gamma_lo)
    span = np.maximum(hi - lo, 0.0)
    t, wt = gauss_rule((0.0, 1.0), mainterm._GAUSS_ORDER)
    g = lo[None, :] + span[None, :] * t[:, None]
    gb = np.maximum(u[None, :] - g, sb.gamma_lo)  # clamp float dust at the edge
    vals = sa.density(np.maximum(g, sa.gamma_lo)) * sb.density(gb)
    return np.sum(vals * wt[:, None], axis=0) * span


def conv4_value(slots: tuple[KernelSlot, ...], n: float) -> float:
    """(B1 * B2 * B3 * B4)(n) as int F12(u) F34(n - u) du.

    F12 and F34 are the pair convolutions; they are smooth between known
    breakpoints (where the overlap window changes shape), so the outer
    integral is split there and each piece gets its own _GAUSS_ORDER-point Gauss rule.
    """
    s1, s2, s3, s4 = slots
    b12 = [s1.gamma_lo + s2.gamma_lo, s1.gamma_lo + s2.gamma_hi, s1.gamma_hi + s2.gamma_lo, s1.gamma_hi + s2.gamma_hi]
    b34 = [s3.gamma_lo + s4.gamma_lo, s3.gamma_lo + s4.gamma_hi, s3.gamma_hi + s4.gamma_lo, s3.gamma_hi + s4.gamma_hi]
    u_lo = max(min(b12), n - max(b34))
    u_hi = min(max(b12), n - min(b34))
    if u_hi <= u_lo:
        return 0.0
    cuts = sorted({u_lo, u_hi, *(b for b in b12 if u_lo < b < u_hi), *(n - b for b in b34 if u_lo < n - b < u_hi)})
    u, wu = gauss_rule(cuts, mainterm._GAUSS_ORDER)
    return float(np.sum(wu * _pair_conv(s1, s2, u) * _pair_conv(s3, s4, n - u)))


def conv4_value_beta(slots: tuple[KernelSlot, ...], n: float, K: float = 40.0) -> float:
    """Independent route: truncated Fourier inversion over |beta| <= K/n.

    Each slot transform is evaluated on a shared beta grid; the truncation
    tail falls off like K^-3 relatively, so this is a cross-check, not the
    default.
    """
    T = K / n
    glo = sum(s.gamma_lo for s in slots)
    ghi = sum(s.gamma_hi for s in slots)
    rate = max(abs(glo - n), abs(ghi - n), 1.0)
    order = 16
    panels = max(8, int(4.0 * T * rate / order) + 8)
    if panels * order > 200_000:
        raise QuadratureError(f"beta grid would need {panels * order} nodes; n is far outside the support")
    beta, wb = gauss_rule(np.linspace(-T, T, panels + 1), order)
    prod = np.ones_like(beta, dtype=np.complex128)
    for s in slots:
        cycles = T * (s.gamma_hi - s.gamma_lo)
        sp = max(2, int(cycles / 3.0) + 1)
        g, wg = gauss_rule(np.linspace(s.gamma_lo, s.gamma_hi, sp + 1), order)
        dens = s.density(g) * wg
        prod *= np.exp(2j * np.pi * np.outer(beta, g)) @ dens
    val = np.sum(wb * prod * np.exp(-2j * np.pi * beta * n))
    return float(val.real)


@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=0.05),
)
def test_slot_mass_is_interval_length(lo, width, C):
    slot = plain_slot(lo, lo + width, C)
    assert slot.mass == pytest.approx(width, rel=1e-12)


@given(
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=2, max_value=7),
)
def test_scaled_slot_mass_invariant(lo, width, C, p):
    # the p-scaling changes the value range but not the carried mass
    plain = plain_slot(lo, lo + width, C)
    scaled = scaled_slot(lo, lo + width, C, p)
    assert scaled.mass == pytest.approx(plain.mass, rel=1e-10)
    assert scaled.s_lo == pytest.approx(p**3 * plain.s_lo, rel=1e-12)
    assert scaled.C == pytest.approx(p**3 * plain.C, rel=1e-12)


def test_kernel_quad_at_zero_equals_mass():
    # J integrates slot densities and relies on each carrying the slot's mass
    slot = plain_slot(1.0, 2.5, 0.2)
    g, w = _panel_rule(slot.gamma_lo, slot.gamma_hi, 512)
    assert float(np.sum(w * slot.density(g))) == pytest.approx(slot.mass, rel=1e-9)


def _slots_for(P):
    pp = derive_params(P**6)
    return (
        plain_slot(pp.H1, pp.H2, 0.0),
        plain_slot(pp.H1, pp.H2, 0.0),
        plain_slot(pp.P / 2, pp.P, 0.0),
        plain_slot(pp.P / 2, pp.P, 0.0),
    )


def test_conv4_routes_agree():
    slots = _slots_for(8)
    glo = sum(s.gamma_lo for s in slots)
    ghi = sum(s.gamma_hi for s in slots)
    for frac in (0.3, 0.5, 0.7):
        n = glo + frac * (ghi - glo)
        v1 = conv4_value(slots, n)
        v2 = conv4_value_beta(slots, n)
        # the beta route truncates at |beta| <= K/n with an O(1/K) tail
        assert v2 == pytest.approx(v1, rel=2e-2)
    n = glo + 0.5 * (ghi - glo)
    v1 = conv4_value(slots, n)
    v2 = conv4_value_beta(slots, n, K=160.0)
    assert v2 == pytest.approx(v1, rel=5e-3)


def test_conv4_outside_support_is_zero():
    slots = _slots_for(8)
    ghi = sum(s.gamma_hi for s in slots)
    assert conv4_value(slots, ghi * 1.5) == 0.0


def test_conv4_beta_grid_guard():
    slots = _slots_for(8)
    with pytest.raises(QuadratureError):
        conv4_value_beta(slots, 1.0)


def _cube_pair_sums(params):
    """{a^3 + b^3: ordered pairs} over the R-smooth a, b of the thin box and of the bulk box, ascending."""
    s3 = enumerate_smooth(int(math.floor(params.H3)), params.R).tolist()
    sp = enumerate_smooth(params.P, params.R).tolist()
    pairs3 = Counter(sorted(a**3 + b**3 for a in s3 for b in s3))
    pairsp = Counter(sorted(a**3 + b**3 for a in sp for b in sp))
    return pairs3, pairsp


def _J_per_tuple(n, params, primes):
    """Oracle: the exhaustive sum of conv4_value over the tuple domain.

    Each tuple (p1, p2, C1, C2, C3, C4) is integrated on its own; repeated
    tuples are counted by multiplicity rather than recomputed.
    """
    pairs3, pairsp = _cube_pair_sums(params)
    thin = [(p, C, m) for p in primes for C, m in pairs3.items()]
    total = 0.0
    for (p1, C1, m1), (p2, C2, m2) in itertools.product(thin, thin):
        for (C3, m3), (C4, m4) in itertools.product(pairsp.items(), pairsp.items()):
            slots = (
                scaled_slot(params.H1, params.H2, float(C1), p1),
                scaled_slot(params.H1, params.H2, float(C2), p2),
                plain_slot(params.P / 2.0, float(params.P), float(C3)),
                plain_slot(params.P / 2.0, float(params.P), float(C4)),
            )
            total += m1 * m2 * m3 * m4 * conv4_value(slots, float(n))
    return total


def _J_support(params, primes):
    """Smallest and largest gamma1 + ... + gamma4 over the tuple domain."""
    s3 = enumerate_smooth(int(math.floor(params.H3)), params.R).tolist()
    sp = enumerate_smooth(params.P, params.R).tolist()
    thin = [scaled_slot(params.H1, params.H2, 2.0 * c**3, p) for p in primes for c in (min(s3), max(s3))]
    bulk = [plain_slot(params.P / 2.0, float(params.P), 2.0 * c**3) for c in (min(sp), max(sp))]
    lo = 2 * min(s.gamma_lo for s in thin) + 2 * min(s.gamma_lo for s in bulk)
    hi = 2 * max(s.gamma_hi for s in thin) + 2 * max(s.gamma_hi for s in bulk)
    return lo, hi


def _slot_pairs(params, primes):
    """The thin and bulk unordered slot pairs [(slot a, slot b, weight)], from the smooth sets by Python loops.

    The thin slots run over primes, then cube pair sums; a pair {i, j} of
    slots with multiplicities m_i, m_j has weight 2 m_i m_j, or m_i^2 when i = j.
    """
    pairs3, pairsp = _cube_pair_sums(params)
    thin = [(scaled_slot(params.H1, params.H2, float(C), p), m) for p in primes for C, m in pairs3.items()]
    bulk = [(plain_slot(params.P / 2.0, float(params.P), float(C)), m) for C, m in pairsp.items()]
    out = []
    for slots in (thin, bulk):
        pairs = itertools.combinations_with_replacement(enumerate(slots), 2)
        out.append([(sa, sb, ma * mb * (1 if i == j else 2)) for (i, (sa, ma)), (j, (sb, mb)) in pairs])
    return out


def _corners(pairs):
    """The four breakpoints gamma_a + gamma_b of each pair, lo + lo first and hi + hi last."""
    return np.array(
        [[a.gamma_lo + b.gamma_lo, a.gamma_lo + b.gamma_hi, a.gamma_hi + b.gamma_lo, a.gamma_hi + b.gamma_hi]
         for a, b, _ in pairs]
    )


def _pair_sum_loop(pairs, v):
    """Oracle: the pair sum at ascending points v as one _pair_conv call per (pair, 512-point run)."""
    out = np.zeros_like(v)
    corners = _corners(pairs)
    starts = np.searchsorted(v, corners[:, 0], "right")
    ends = np.searchsorted(v, corners[:, 3], "left")
    for k in np.flatnonzero(ends > starts).tolist():
        sa, sb, weight = pairs[k]
        for i in range(starts[k], ends[k], 512):
            j = min(i + 512, ends[k])
            out[i:j] += weight * _pair_conv(sa, sb, v[i:j])
    return out


def _J_direct(n, params, primes):
    """Oracle: J(n) on an outer rule cut at the pair breakpoints, with F_TT and F_UU evaluated at every node."""
    thin, bulk = _slot_pairs(params, primes)
    if not thin or not bulk:
        return 0.0
    t, b = _corners(thin), _corners(bulk)
    n = float(n)
    u_lo = max(t[:, 0].min(), n - b[:, 3].max())
    u_hi = min(t[:, 3].max(), n - b[:, 0].min())
    if u_hi <= u_lo:
        return 0.0
    cuts = np.unique(np.concatenate(([u_lo, u_hi], t.ravel(), n - b.ravel())))
    cuts = cuts[(cuts >= u_lo) & (cuts <= u_hi)]
    u, wu = gauss_rule(cuts, mainterm._GAUSS_ORDER)
    f_uu = _pair_sum_loop(bulk, (n - u)[::-1])[::-1]
    return float(np.sum(wu * _pair_sum_loop(thin, u) * f_uu))


@pytest.fixture
def fresh_j_cache():
    """Clears the cached slot pairs and F_TT panels before and after a test that changes the rules they were built by."""
    mainterm._j_slot_pairs.cache_clear()
    yield
    mainterm._j_slot_pairs.cache_clear()


def test_J_exhaustive_frozen():
    pp = derive_params(8**6)
    assert singular_integral_J(196_608, pp, [2]) == pytest.approx(0.00033530136406281975, rel=1e-9)


@pytest.mark.parametrize("frac", [1e-4, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-4])
def test_J_matches_per_tuple_oracle(frac):
    pp = derive_params(8**6)
    lo, hi = _J_support(pp, [2])
    n = lo + frac * (hi - lo)
    want = _J_per_tuple(n, pp, [2])
    assert want > 0
    got = singular_integral_J(n, pp, [2])
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(_J_direct(n, pp, [2]), rel=1e-14)


def test_J_matches_per_tuple_oracle_two_primes():
    pp = derive_params(27**6)
    n = pp.N * 3 // 4
    assert singular_integral_J(n, pp, [2, 3]) == pytest.approx(_J_per_tuple(n, pp, [2, 3]), rel=1e-12)


def test_J_outside_support_is_zero():
    pp = derive_params(8**6)
    lo, hi = _J_support(pp, [2])
    for n in (1, lo * (1 - 1e-9), hi * (1 + 1e-9), 10 * hi):
        assert singular_integral_J(n, pp, [2]) == 0.0
        assert _J_per_tuple(n, pp, [2]) == 0.0
    assert singular_integral_J(196_608, pp, []) == 0.0


@pytest.mark.parametrize(
    ("P", "primes", "fracs"),
    [(16, None, (0, 1 / 3, 2 / 3, 1)), (27, [2], (0, 1 / 3, 2 / 3, 1)), (27, None, (0, 1 / 3, 2 / 3, 1)), (64, None, (0.5,))],
)
def test_J_matches_direct_node_oracle(P, primes, fracs):
    pp = derive_params(P**6)
    primes = pp.default_primes() if primes is None else primes
    for frac in fracs:
        n = pp.N // 2 + round(frac * (pp.N - pp.N // 2))
        want = _J_direct(n, pp, primes)
        assert want > 0
        assert singular_integral_J(n, pp, primes) == pytest.approx(want, rel=1e-14)


def test_lobatto_interpolant_reproduces_polynomials():
    t, cos = mainterm._lobatto(8)
    assert np.all(np.diff(t) > 0) and t[0] == -1.0 and t[-1] == 1.0
    # the coefficient matrix maps samples of T_j to e_j
    for j in range(8):
        coef = cos @ np.polynomial.chebyshev.chebval(t, np.eye(8)[j])
        assert np.allclose(coef, np.eye(8)[j], rtol=0, atol=1e-13)
    # two panels of a degree-7 polynomial, read back at random points and at the samples themselves.
    # Clenshaw's error scales with the panel's values, not the point's: at v = 3 the polynomial is
    # -15.5, small beside its thousands on [3, 7], so the bound is relative to its largest value.
    a, b = np.array([1.0, 3.0]), np.array([3.0, 7.0])
    poly = np.polynomial.Polynomial([0.5, -1.0, 0.25, 2.0, 0.0, 0.0, -0.125, 0.01])
    v = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * t
    c = poly(v) @ cos.T
    at = np.concatenate((np.random.default_rng(1).uniform(1.0, 7.0, 50), v.ravel()))
    want = poly(at)
    assert np.abs(mainterm._chebval(a, b, c, at) - want).max() <= 1e-14 * np.abs(want).max()


class _Sampled:
    """A stand-in for the slot pairs: a function with no breakpoints."""

    breaks = np.array([])

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, v):
        return self.fn(v)


def test_bulk_panels_tell_rounding_noise_from_a_kink():
    # A panel 98 wide at v ~ 3.6e11, as between two close bulk breakpoints at P = 150.  Its sample
    # points sit only to within eps |v|, which alone lifts a smooth function's tail past 1e-12.
    a, b = 3.5597221891e11, 3.5597221891e11 + 98.0
    lo, hi, c = mainterm._panels(_Sampled(lambda v: 1.0 + 1e-4 * np.sin((v - a) / 98.0)), a, b)
    assert lo.tolist() == [a] and hi.tolist() == [b]
    assert np.abs(c[0, -3:]).max() > mainterm._CHEB_TAIL
    with pytest.raises(QuadratureError):
        mainterm._panels(_Sampled(lambda v: 1.0 + np.abs(v - a - 30.123) / 98.0), a, b)


def _spy_panels(monkeypatch):
    """Records (pairs, lo, hi, panel starts, panel ends) for every `_panels` build."""
    calls = []
    build = mainterm._panels

    def spy(pairs, lo, hi):
        a, b, c = build(pairs, lo, hi)
        calls.append((pairs, lo, hi, a, b))
        return a, b, c

    monkeypatch.setattr(mainterm, "_panels", spy)
    return calls


def test_J_bulk_panels_bisect_then_give_up(monkeypatch, fresh_j_cache):
    pp = derive_params(8**6)
    n = 196_608
    want = _J_direct(n, pp, [2])
    mainterm._j_slot_pairs.cache_clear()
    calls = _spy_panels(monkeypatch)

    def built():
        """(name, panels, panels between breakpoints) of each build recorded since the last call; clears the record."""
        thin, bulk, _ = mainterm._j_slot_pairs(pp, (2,))
        names = {id(thin): "thin", id(bulk): "bulk"}
        out = [(names[id(p)], a.size, 1 + np.count_nonzero((p.breaks > lo) & (p.breaks < hi))) for p, lo, hi, a, _ in calls]
        calls.clear()
        return out

    # thin panels once per (params, primes), over the whole thin support; bulk panels once per J call
    assert singular_integral_J(n, pp, [2]) == pytest.approx(want, rel=1e-14)
    first = built()
    assert [k[0] for k in first] == ["thin", "bulk"]
    assert all(k[1] == k[2] for k in first)  # 32 points resolve every panel of both sums unsplit
    assert singular_integral_J(n + 1000, pp, [2]) > 0
    assert singular_integral_J(n, pp, [2]) == pytest.approx(want, rel=1e-14)
    assert [k[0] for k in built()] == ["bulk", "bulk"]
    # 12 points need a few bisections and still meet the oracle
    monkeypatch.setattr(mainterm, "_CHEB_POINTS", 12)
    mainterm._j_slot_pairs.cache_clear()
    assert singular_integral_J(n, pp, [2]) == pytest.approx(want, rel=1e-14)
    twelve = built()
    assert [k[0] for k in twelve] == ["thin", "bulk"]
    assert twelve[-1][1] > twelve[-1][2]
    # 8 points are not enough after _CHEB_ROUNDS bisections
    monkeypatch.setattr(mainterm, "_CHEB_POINTS", 8)
    mainterm._j_slot_pairs.cache_clear()
    with pytest.raises(QuadratureError, match="bisections"):
        singular_integral_J(n, pp, [2])


@pytest.mark.parametrize("P", [16, 27, 64])
def test_pair_sum_kernel_matches_pair_conv_loop(monkeypatch, fresh_j_cache, P):
    # every Lobatto point of every panel that J(N/2) builds, on both pair sums
    pp = derive_params(P**6)
    calls = _spy_panels(monkeypatch)
    assert singular_integral_J(pp.N // 2, pp, pp.default_primes()) > 0
    assert len(calls) == 2
    t, _ = mainterm._lobatto(mainterm._CHEB_POINTS)
    for (pairs, _, _, a, b), oracle in zip(calls, _slot_pairs(pp, pp.default_primes())):  # thin, then bulk
        v = np.clip(0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * t, a[:, None], b[:, None]).ravel()
        want = _pair_sum_loop(oracle, v)
        assert np.abs(pairs(v) - want).max() <= 1e-14 * np.abs(want).max()


def _ulp_steps(x: np.ndarray, toward: float, k: int) -> list[np.ndarray]:
    """x and its first k float64 neighbours toward `toward`."""
    out = [x]
    for _ in range(k):
        out.append(np.nextafter(out[-1], toward))
    return out


@pytest.mark.parametrize("P", [16, 27])
def test_pair_sum_kernel_at_support_edges(fresh_j_cache, P):
    # within a few ulp of each pair's support edges the overlap span is float dust
    pp = derive_params(P**6)
    primes = pp.default_primes()
    for pairs, oracle in zip(mainterm._j_slot_pairs(pp, tuple(primes))[:2], _slot_pairs(pp, primes)):
        corners = _corners(oracle)
        v = np.sort(np.concatenate(_ulp_steps(corners[:, 0], np.inf, 6) + _ulp_steps(corners[:, 3], -np.inf, 6)))
        got, want = pairs(v), _pair_sum_loop(oracle, v)
        assert np.isfinite(got).all() and np.isfinite(want).all()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_J_loads_no_numpy_ma():
    # np.unique imports numpy.ma on first use, 14-25 ms of a short run
    code = (
        "import sys\n"
        "from cubesquares.mainterm import singular_integral_J\n"
        "from cubesquares.params import derive_params\n"
        "pp = derive_params(27**6)\n"
        "assert singular_integral_J(3 * pp.N // 4, pp, pp.default_primes()) > 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_J_warm_call_memory():
    # the kernel builds its entry indices one block at a time; all at once they peaked at 20 MiB at this scale
    pp = derive_params(64**6)
    n, primes = 3 * pp.N // 4, pp.default_primes()
    singular_integral_J(n, pp, primes)
    tracemalloc.start()
    try:
        singular_integral_J(n, pp, primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20


def test_J_inner_rule_gap_is_bounded(monkeypatch, fresh_j_cache):
    # The 24-point rule in g is not converged on bulk pairs at mid-support: at the two n of the
    # window workload, J moves by 6.9e-10 and 3.7e-8 relative at 48 points (ROADMAP open item).
    pp = derive_params(27**6)
    lo, hi = pp.N // 2, pp.N
    ns = (lo, lo + (hi - lo) // 2)
    j24 = [singular_integral_J(n, pp, pp.default_primes()) for n in ns]
    monkeypatch.setattr(mainterm, "_GAUSS_ORDER", 48)
    mainterm._j_slot_pairs.cache_clear()
    j48 = [singular_integral_J(n, pp, pp.default_primes()) for n in ns]
    for a, b in zip(j24, j48):
        assert a != b
        assert abs(a - b) <= 1e-7 * abs(b)


def test_main_term_report_shape():
    scale = Scale(8**6)
    assert scale.primes == [2]
    d = scale.report(196_608, 32).as_json_dict()
    assert d["n"] == 196_608
    assert set(d) == {"n", "R_exact", "S_trunc", "J_est", "predicted", "ratio"}
    assert d["J_est"] == pytest.approx(0.00033530136406281975, rel=1e-9)
    assert d["R_exact"] == scale.rn(196_608)
    assert d["predicted"] == pytest.approx(d["S_trunc"] * d["J_est"])


def test_window_mass_matches_pointwise_sum():
    ta = WeightTable("a", (3, 5, 7), (1, 2, 1))
    tb = WeightTable("b", (3, 4), (2, 1))
    ev = RnEvaluator(ta, tb, [2, 3])
    for lo, hi in ((0, ev.max_n), (1170, 1170), (1171, 40_000), (ev.max_n // 2, ev.max_n), (5, 4)):
        assert ev.window_mass(lo, hi) == sum(ev(n) for n in range(lo, hi + 1))
    assert ev.window_mass(0, ev.max_n) == ev.total


def _rn_dict_oracle(table_a, table_b, primes):
    """The second exact route: a, aa and bb as {key: multiplicity} dicts, by Python-int loops."""

    def self_sum(x):
        out = {}
        for k1, c1 in x.items():
            for k2, c2 in x.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
        return out

    a, b = {}, {}
    for v, c in zip(table_a.support.tolist(), table_a.counts.tolist()):
        a[v * v] = a.get(v * v, 0) + c
    for p in primes:
        for v, c in zip(table_b.support.tolist(), table_b.counts.tolist()):
            b[p**6 * v * v] = b.get(p**6 * v * v, 0) + c
    return a, self_sum(a), self_sum(b)


class _AaTableRn:
    """The former program route: the bulk self-sum aa built as a table, masses by prefix sums over its keys.

    aa and bb are every raw sum at once (`np.add.outer`), aggregated by the one-sort oracle, apart
    from the bucketed outer sum that builds the program's bb.
    """

    def __init__(self, table_a, table_b, primes):
        ka, ca, (kb, cb) = _squares(table_a), table_a.counts, _thin_series(table_b, primes)
        ca, cb = ca.astype(np.int64), cb.astype(np.int64)  # the products of int16 counts would wrap
        self.aa, self.bb = _one_sort_oracle(ka, ca, ka, ca), _one_sort_oracle(kb, cb, kb, cb)
        self.prefix = np.concatenate(([0], np.cumsum(self.aa[1])))

    def window_mass(self, lo, hi):
        keys, (kb, cb) = self.aa[0], self.bb
        inside = self.prefix[np.searchsorted(keys, hi - kb, "right")] - self.prefix[np.searchsorted(keys, lo - kb)]
        return int(cb @ inside)


def _dict_rn(aa, bb, n):
    return sum(cb * aa.get(n - kb, 0) for kb, cb in bb.items())


def _dict_window_mass(aa, bb, lo, hi):
    keys = sorted(aa)
    prefix = [0, *itertools.accumulate(aa[k] for k in keys)]
    return sum(
        cb * (prefix[bisect.bisect_right(keys, hi - kb)] - prefix[bisect.bisect_left(keys, lo - kb)])
        for kb, cb in bb.items()
    )


@pytest.mark.parametrize("P", [27, 64])
def test_rn_matches_dict_oracle(P):
    scale = Scale(P**6)
    ev = scale.rn
    a, aa, bb = _rn_dict_oracle(scale.table_a, scale.table_b, scale.primes)
    for (keys, counts), oracle in ((ev.a, a), (ev.bb, bb)):
        assert list(zip(keys.tolist(), counts.tolist())) == sorted(oracle.items())
    lo, hi = scale.params.N // 2, scale.params.N
    mass = ev.window_mass(lo, hi)
    assert type(mass) is int and mass == _dict_window_mass(aa, bb, lo, hi) > 0
    rng = np.random.default_rng(P)
    keys_a, keys_b = sorted(aa), sorted(bb)
    hits = [keys_a[i] + keys_b[j] for i, j in zip(rng.integers(len(aa), size=40), rng.integers(len(bb), size=40))]
    for n in [*rng.integers(lo, hi + 1, size=40).tolist(), *hits]:
        r = ev(n)
        assert type(r) is int and r == _dict_rn(aa, bb, n)
    assert all(ev(n) > 0 for n in hits)


@pytest.mark.parametrize("P", [27, 64, 100])
def test_rn_matches_aa_table_oracle(P):
    scale = Scale(P**6)
    ev, oracle = scale.rn, _AaTableRn(scale.table_a, scale.table_b, scale.primes)
    N = scale.params.N
    assert ev.max_n == int(oracle.aa[0][-1]) + int(oracle.bb[0][-1])
    assert ev.window_mass(0, ev.max_n) == ev.total == oracle.window_mass(0, ev.max_n)
    for lo, hi in ((N // 2, N), (N // 3, N // 3 + 1000), (N // 4, 3 * N // 4), (N, 2 * N)):
        assert ev.window_mass(lo, hi) == oracle.window_mass(lo, hi)
    rng = np.random.default_rng(P)
    (ka, _), (kb, _) = oracle.aa, oracle.bb
    hits = ka[rng.integers(ka.size, size=30)] + kb[rng.integers(kb.size, size=30)]
    for n in [*rng.integers(N // 2, N + 1, size=30).tolist(), *hits.tolist()]:
        assert ev(n) == oracle.window_mass(n, n)
    assert all(ev(n) > 0 for n in hits.tolist())


def test_rn_overflowing_keys_raise():
    # every R(n) key must fit an int64: 2 (1.5e9)^2 + 1152 < 2^63 < 2 (2.2e9)^2
    v = 1_500_000_000
    assert RnEvaluator(WeightTable("a", (v,), (1,)), TOY_B, [2])(2 * v * v + 1152) == 1
    with pytest.raises(CapacityError):
        RnEvaluator(WeightTable("a", (2_200_000_000,), (1,)), TOY_B, [2])
    with pytest.raises(CapacityError):  # 2^6 (4e8)^2 > 2^63 already wraps the thin key itself
        RnEvaluator(TOY_A, WeightTable("b", (400_000_000,), (1,)), [2])
    with pytest.raises(CapacityError):  # sum of R(n) = (2^16 * 2^16)^2 = 2^64
        RnEvaluator(WeightTable("a", (3,), (1 << 16,)), WeightTable("b", (3,), (1 << 16,)), [2])
    # the bb key 2 * 2^6 h^2 must fit beside the bits of its largest count (2^10)^2: 2^43 + 21 bits does not
    with pytest.raises(CapacityError):
        RnEvaluator(TOY_A, WeightTable("b", (200_000,), (1 << 10,)), [2])
    assert RnEvaluator(TOY_A, WeightTable("b", (100_000,), (1 << 10,)), [2]).total == 1 << 20


def test_rn_bb_key_holds_one_count_product():
    # bb keys reach 2 * 3^6 h^2 < 2^42 beside one product of two thin counts, 2^20 in 21 bits: 63 bits.
    # Bounding the count by the two primes' summed counts, (2 * 2^10)^2 in 23 bits, refuses this.
    h = 40_000
    tb = WeightTable("b", (h,), (1 << 10,))
    ev = RnEvaluator(TOY_A, tb, [2, 3])
    assert [ev(18 + c * h * h) for c in (128, 793, 1458)] == [1 << 20, 1 << 21, 1 << 20]
    assert ev.window_mass(0, ev.max_n) == ev.total == 1 << 22
    _, aa, bb = _rn_dict_oracle(TOY_A, tb, [2, 3])
    assert list(zip(ev.bb[0].tolist(), ev.bb[1].tolist())) == sorted(bb.items())
    for n in (18 + 128 * h * h, 18 + 793 * h * h, 18 + 1458 * h * h, 19 + 793 * h * h):
        assert ev(n) == _dict_rn(aa, bb, n)


@pytest.mark.parametrize("P, mass", [(27, 2_737_855), (64, 170_633_786)], ids=["27", "64"])
def test_rn_memory_guard_matches_allocation(monkeypatch, P, mass):
    scale = Scale(P**6)
    ta, tb, primes = scale.table_a, scale.table_b, scale.primes
    N = scale.params.N
    # the sweep blocks fill at this scale
    ev = RnEvaluator(ta, tb, primes)
    need = rn_bytes(len(ta), ev.bb[0].size, ev.bb[1].itemsize)
    ev.window_mass(N // 2, N)  # numpy sets up its own state on first use
    del ev
    monkeypatch.setenv(BUDGET_ENV, str(need))
    # a full collection empties the interpreter's free lists, so that every object the run makes
    # is a traced allocation, as in a fresh process; reused objects put P = 27 about 2% below need
    gc.collect()
    tracemalloc.start()
    try:
        got = RnEvaluator(ta, tb, primes).window_mass(N // 2, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == mass
    assert 0.99 * need <= peak <= need
    monkeypatch.setenv(BUDGET_ENV, str(need - 1))
    with pytest.raises(CapacityError):
        RnEvaluator(ta, tb, primes)


def test_rn_at_three_hundred_fits_a_small_budget(monkeypatch):
    # the bulk self-sum at P = 300 (k = 6 740) would need about 0.77 GB; the sweep holds O(k)
    monkeypatch.setenv(BUDGET_ENV, str(64 << 20))
    scale = Scale(300**6)
    assert scale.rn.window_mass(scale.N // 2, scale.N) == 425_153_165_830
