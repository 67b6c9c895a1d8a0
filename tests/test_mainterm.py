import bisect
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import CapacityError, QuadratureError
from cubesquares.mainterm import (
    RnEvaluator,
    conv4_value,
    conv4_value_beta,
    rn_dense_dft,
    singular_integral_J,
)
from cubesquares.oscillatory import plain_slot, scaled_slot
from cubesquares.params import derive_params
from cubesquares.scale import Scale
from cubesquares.smooth import enumerate_smooth
from cubesquares.weights import WeightTable, table_bytes

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


def test_dense_dft_margin_guard():
    ta = WeightTable("a", (3,), (2_000_000,))
    tb = WeightTable("b", (3,), (1_000_000,))
    with pytest.raises(CapacityError):
        rn_dense_dft(ta, tb, [2])


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


def _J_per_tuple(n, params, primes):
    """Oracle: the exhaustive sum of conv4_value over the tuple domain.

    Each tuple (p1, p2, C1, C2, C3, C4) is integrated on its own; repeated
    tuples are counted by multiplicity rather than recomputed.
    """
    s3 = enumerate_smooth(int(math.floor(params.H3)), params.R).members.tolist()
    sp = enumerate_smooth(params.P, params.R).members.tolist()
    pairs3 = Counter(a**3 + b**3 for a in s3 for b in s3)
    pairsp = Counter(a**3 + b**3 for a in sp for b in sp)
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
    s3 = enumerate_smooth(int(math.floor(params.H3)), params.R).members.tolist()
    sp = enumerate_smooth(params.P, params.R).members.tolist()
    thin = [scaled_slot(params.H1, params.H2, 2.0 * c**3, p) for p in primes for c in (min(s3), max(s3))]
    bulk = [plain_slot(params.P / 2.0, float(params.P), 2.0 * c**3) for c in (min(sp), max(sp))]
    lo = 2 * min(s.gamma_lo for s in thin) + 2 * min(s.gamma_lo for s in bulk)
    hi = 2 * max(s.gamma_hi for s in thin) + 2 * max(s.gamma_hi for s in bulk)
    return lo, hi


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
    assert singular_integral_J(n, pp, [2]) == pytest.approx(want, rel=1e-12)


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
    """The second exact route: aa and bb as {key: multiplicity} dicts, by Python-int loops."""

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
    return self_sum(a), self_sum(b)


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
    aa, bb = _rn_dict_oracle(scale.table_a, scale.table_b, scale.primes)
    for table, oracle in ((ev.aa, aa), (ev.bb, bb)):
        assert list(zip(table.support.tolist(), table.counts.tolist())) == sorted(oracle.items())
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


def test_rn_overflowing_keys_raise():
    # 2 v^2 must fit beside one count bit: 2 (1.5e9)^2 < 2^62 < 2 (2.2e9)^2
    v = 1_500_000_000
    assert RnEvaluator(WeightTable("a", (v,), (1,)), TOY_B, [2])(2 * v * v + 1152) == 1
    with pytest.raises(CapacityError):
        RnEvaluator(WeightTable("a", (2_200_000_000,), (1,)), TOY_B, [2])
    with pytest.raises(CapacityError):  # 2^6 (4e8)^2 > 2^63 already wraps the thin key itself
        RnEvaluator(TOY_A, WeightTable("b", (400_000_000,), (1,)), [2])
    with pytest.raises(CapacityError):  # sum of R(n) = (2^16 * 2^16)^2 = 2^64
        RnEvaluator(WeightTable("a", (3,), (1 << 16,)), WeightTable("b", (3,), (1 << 16,)), [2])


def test_rn_memory_guard_matches_allocation(monkeypatch):
    scale = Scale(27**6)
    ta, tb, primes = scale.table_a, scale.table_b, scale.primes
    # v -> v^2 keeps the bulk keys distinct, and the thin keys p^6 h^2 are distinct at this scale
    need = table_bytes(len(ta), len(ta)) + table_bytes(len(primes) * len(tb), len(primes) * len(tb))
    monkeypatch.setenv(BUDGET_ENV, str(need))
    tracemalloc.start()
    try:
        ev = RnEvaluator(ta, tb, primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ev.aa) > 0
    assert 0.99 * need <= peak <= need
    monkeypatch.setenv(BUDGET_ENV, str(need - 1))
    with pytest.raises(CapacityError):
        RnEvaluator(ta, tb, primes)
