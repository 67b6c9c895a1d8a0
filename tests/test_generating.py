import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cubesquares import weights
from cubesquares.arcs import ArcDissection
from cubesquares.generating import (
    ArcDiagnostic,
    F_diagnostic,
    eval_W,
    eval_h,
    model_V,
    model_W,
)
from cubesquares.params import derive_params
from cubesquares.scale import Scale
from cubesquares.smooth import estimate_c_eta
from cubesquares.weights import WeightTable, build_weight_table
from test_weights import as_dict


def test_h_at_zero_is_total_mass():
    t = WeightTable("a", (3, 5, 9), (1, 2, 4))
    assert eval_h(Fraction(0), t) == pytest.approx(7 + 0j)
    assert eval_h(0.0, t) == pytest.approx(7 + 0j)


def test_h_at_half_is_parity_sum():
    t = WeightTable("a", (3, 5, 8, 9), (1, 2, 3, 4))
    # e(v^2 / 2) = (-1)^(v^2) = (-1)^v
    expected = sum(c * (-1) ** (v % 2) for v, c in as_dict(t).items())
    got = eval_h(Fraction(1, 2), t)
    assert got.real == pytest.approx(expected, abs=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_W_at_zero():
    t = WeightTable("b", (218, 225, 232), (1, 2, 1))
    assert eval_W(Fraction(0), t, [2, 3]) == pytest.approx(8 + 0j)
    assert eval_W(Fraction(0), t, []) == 0


def test_W_phase_scale():
    t = WeightTable("b", (3, 4), (1, 1))
    # single prime p: phases carry p^6 v^2
    p = 2
    alpha = Fraction(1, 7)
    direct = sum(
        c * complex(math.cos(2 * math.pi * ((p**6 * v * v) % 7) / 7), math.sin(2 * math.pi * ((p**6 * v * v) % 7) / 7))
        for v, c in as_dict(t).items()
    )
    got = eval_W(alpha, t, [p])
    assert got.real == pytest.approx(direct.real, abs=1e-12)
    assert got.imag == pytest.approx(direct.imag, abs=1e-12)


def test_model_V_at_zero():
    pp = derive_params(8**6)
    c = estimate_c_eta(pp.P, pp.R)
    v = model_V(0.0, 1, 0, pp, c)
    assert v.real == pytest.approx(c * c * pp.P**3 / 2, rel=1e-6)


def test_model_W_at_zero():
    pp = derive_params(27**6)
    c = estimate_c_eta(int(pp.H3), pp.R)
    w = model_W(0.0, 1, 0, pp, c, [2, 3])
    # sum over both primes of the thin volume, scaled by c^2
    assert w.real == pytest.approx(2 * c * c * (pp.H2 - pp.H1) * pp.H3**2, rel=1e-6)


def test_model_vanishes_off_arcs():
    scale = Scale(8**6)
    pp = scale.params
    d = ArcDissection.narrow(pp.P, pp.N)
    c = estimate_c_eta(pp.P, pp.R)
    # 0.237 is far from every a/q with q <= X at this width
    off = F_diagnostic(0.237, scale, d)
    assert not off.on_arc
    assert off.h_model == 0 and off.W_model == 0
    assert off.h != 0  # the data side is still evaluated
    # at the center of the q=1 arc the model is the real-volume term
    v = F_diagnostic(Fraction(0), scale, d).h_model
    assert v.real == pytest.approx(c * c * pp.P**3 / 2, rel=1e-6)


def test_F_diagnostic_fields():
    scale = Scale(8**6)
    pp = scale.params
    d = ArcDissection.wide(pp.P, pp.N)
    diag = F_diagnostic(Fraction(0), scale, d)
    assert isinstance(diag, ArcDiagnostic)
    assert diag.on_arc
    assert diag.h == pytest.approx(eval_h(Fraction(0), scale.table_a))
    assert diag.W == pytest.approx(eval_W(Fraction(0), scale.table_b, scale.primes))
    assert diag.h_model == model_V(0.0, 1, 0, pp, estimate_c_eta(pp.P, pp.R))
    assert diag.W_model == model_W(0.0, 1, 0, pp, scale.c_thin, scale.primes)
    # F = h^2 W^2 - (model h)^2 (model W)^2 is finite
    assert math.isfinite(diag.F.real) and math.isfinite(diag.F.imag)


def test_sums_at_a_denominator_past_float_range_keep_the_mass():
    # alpha = 2^-1100: 2^1100 overflows a float, so the angle must divide int by int
    a, b = WeightTable("a", (3, 5, 9), (1, 2, 4)), WeightTable("b", (2, 7), (3, 1))
    alpha = Fraction(1, 2**1100)
    h, W = eval_h(alpha, a), eval_W(alpha, b, [2, 3])
    assert h.real == 7.0 and abs(h.imag) < 1e-300
    assert W.real == 8.0 and abs(W.imag) < 1e-300


# The per-element phase loop that the array pass replaced, kept as the oracle.
def _exact_phases_loop(table, alpha, scale=1):
    num, den = alpha.numerator % alpha.denominator, alpha.denominator
    re, im = [], []
    for v, c in zip(table.support.tolist(), table.counts.tolist()):
        theta = 2.0 * math.pi * ((num * (v * v * scale * scale % den)) % den / den)
        re.append(c * math.cos(theta))
        im.append(c * math.sin(theta))
    return complex(math.fsum(re), math.fsum(im))


@pytest.mark.parametrize("alpha", [0.1234567891234, 1 / 3, 0.25 + 1e-9, 0.0123456789, Fraction(7, 1009)])
def test_sums_match_phase_loop(alpha):
    scale = Scale(27**6)
    af = Fraction(alpha)
    assert isinstance(alpha, Fraction) or af.denominator > 2**53
    assert eval_h(alpha, scale.table_a) == _exact_phases_loop(scale.table_a, af)
    want_W = sum((_exact_phases_loop(scale.table_b, af, p**3) for p in scale.primes), 0j)
    assert eval_W(alpha, scale.table_b, scale.primes) == want_W


# The one-shot route that the blocks replaced: every residue held as a Python int at once, one fsum per part.
def _exact_phases_one_shot(table, alpha, scale=1):
    num, den = alpha.numerator % alpha.denominator, alpha.denominator
    v = table.support.astype(object)
    theta = 2.0 * math.pi * np.asarray(num * (v * v * scale * scale % den) % den / den, dtype=np.float64)
    c = table.counts
    return complex(math.fsum((c * np.cos(theta)).tolist()), math.fsum((c * np.sin(theta)).tolist()))


@pytest.fixture(scope="module")
def tables_300_1000():
    return [build_weight_table(derive_params(P**6), "a") for P in (300, 1000)]


@pytest.mark.parametrize("alpha", [0.123456789, Fraction(5, 7), 1e-9, Fraction(3, 2**80 + 1)])
def test_blocked_sums_match_the_one_shot_sum(monkeypatch, tables_300_1000, alpha):
    af, table = Fraction(alpha), tables_300_1000[1]
    want = _exact_phases_one_shot(table, af)
    scale = Scale(27**6)
    want_W = sum((_exact_phases_one_shot(scale.table_b, af, p**3) for p in scale.primes), 0j)
    for bucket in (weights.BUCKET, 4096, 7):  # 27 487 values in one block, then 7 blocks, then 3 927
        monkeypatch.setattr(weights, "BUCKET", bucket)
        assert eval_h(alpha, table) == want
        assert eval_W(alpha, scale.table_b, scale.primes) == want_W


def test_h_memory_does_not_grow_with_the_table(monkeypatch, tables_300_1000):
    monkeypatch.setattr(weights, "BUCKET", 256)  # both tables span many blocks
    peaks = []
    for t in tables_300_1000:
        tracemalloc.start()
        try:
            eval_h(0.123456789, t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(tables_300_1000[1]) > 4 * len(tables_300_1000[0]) > 20 * 256
    # holding every residue as a Python int took about 145 bytes per value
    assert peaks[1] < 1.1 * peaks[0] and peaks[1] < 8 * len(tables_300_1000[1])
