import math
import tracemalloc
from fractions import Fraction

import pytest

from cubesquares import generating, weights
from cubesquares.arcs import ArcDissection
from cubesquares.cubesieve import BUDGET_ENV
from cubesquares.errors import CapacityError
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
    # 237/1000 is far from every a/q with q <= X at this width
    off = F_diagnostic(Fraction(237, 1000), scale, d)
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


# The route that the int64 histogram replaced, in Python ints: v^2 mod q per entry, the counts summed per residue
# in a dict, then the same phases and one fsum per part.  a is coprime to q, so u -> a u mod q is one-to-one and
# each residue u of s^2 v^2 keeps its own sum.
def _histogram_oracle(table, alpha, scales=(1,)):
    a, q = alpha.numerator % alpha.denominator, alpha.denominator
    hist = {}
    for v, c in zip(table.support.tolist(), table.counts.tolist()):
        for s in scales:
            u = s * s * (v * v % q) % q
            hist[u] = hist.get(u, 0) + c
    re, im = [], []
    for u, c in hist.items():
        theta = 2.0 * math.pi * (a * u % q / q)
        re.append(c * math.cos(theta))
        im.append(c * math.sin(theta))
    return complex(math.fsum(re), math.fsum(im))


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(3, 8), Fraction(12345, 65521), 0.25, Fraction(7, 1009)])
def test_sums_match_phase_loop(alpha):
    scale = Scale(27**6)
    af = Fraction(alpha)
    assert eval_h(alpha, scale.table_a) == _histogram_oracle(scale.table_a, af)
    want_W = _histogram_oracle(scale.table_b, af, [p**3 for p in scale.primes])
    assert eval_W(alpha, scale.table_b, scale.primes) == want_W


@pytest.mark.parametrize("P", [27, 64])
def test_sums_match_the_residue_histogram_oracle(P):
    scale = Scale(P**6)
    ta, tb, primes = scale.table_a, scale.table_b, scale.primes
    cubes = [p**3 for p in primes]
    assert len(ta) > 200 and len(tb) > 2 and len(primes) == 2
    for alpha in {Fraction(a, q) for q in range(1, 31) for a in range(q)}:  # every a/q in lowest terms, q <= 30
        assert eval_h(alpha, ta) == _histogram_oracle(ta, alpha), alpha
        assert eval_W(alpha, tb, primes) == _histogram_oracle(tb, alpha, cubes), alpha


@pytest.fixture(scope="module")
def tables_300_1000():
    return [build_weight_table(derive_params(P**6), "a") for P in (300, 1000)]


@pytest.mark.parametrize("alpha", [0.375, Fraction(5, 7), 0.25, Fraction(12345, 65521), Fraction(3, 1009)])
def test_blocked_sums_match_the_one_shot_sum(monkeypatch, tables_300_1000, alpha):
    # the per-residue sums are exact integers, so no block size can move the value
    table, scale = tables_300_1000[1], Scale(27**6)
    want = _histogram_oracle(table, Fraction(alpha))
    want_W = _histogram_oracle(scale.table_b, Fraction(alpha), [p**3 for p in scale.primes])
    for bucket in (65_536, 4096, 7):  # 27 487 values in one block, then 7 blocks, then 3 927
        monkeypatch.setattr(weights, "BUCKET", bucket)
        assert eval_h(alpha, table) == want
        assert eval_W(alpha, scale.table_b, scale.primes) == want_W


@pytest.mark.parametrize("alpha", [Fraction(1, 2**31), 0.1, Fraction(1, 2**1100), Fraction(2**40 + 1, 3 * 2**31)])
def test_denominators_from_2_to_the_31_are_refused_before_a_block_is_read(monkeypatch, alpha):
    t = WeightTable("a", (3, 5, 9), (1, 2, 4))
    monkeypatch.setattr(WeightTable, "blocks", lambda self: pytest.fail("a block was read"))
    with pytest.raises(ValueError, match="below 2\\^31"):
        eval_h(alpha, t)
    with pytest.raises(ValueError, match="below 2\\^31"):
        eval_W(alpha, t, [2, 3])


def test_histogram_past_the_budget_is_refused_before_a_block_is_read(monkeypatch):
    t = WeightTable("a", (3, 5, 9), (1, 2, 4))
    monkeypatch.setattr(WeightTable, "blocks", lambda self: pytest.fail("a block was read"))
    monkeypatch.setenv(BUDGET_ENV, str(2**31))
    with pytest.raises(CapacityError, match="residue histogram mod 2147483647"):
        eval_h(Fraction(1, 2**31 - 1), t)  # 2^31 - 1 int64 bins alone are past 2 GiB
    monkeypatch.setenv(BUDGET_ENV, str(10**5))
    with pytest.raises(CapacityError, match="residue histogram mod 65521"):
        eval_W(Fraction(1, 65521), t, [2, 3])


@pytest.mark.parametrize("q", [2, 1009, 65521, 10**6 + 3])
def test_histogram_estimate_holds_the_peak(monkeypatch, tables_300_1000, q):
    asked = []
    monkeypatch.setattr(generating, "reserve", lambda need, what: asked.append(need))
    scale = Scale(27**6)
    for table, primes in ((scale.table_a, None), (tables_300_1000[1], None), (scale.table_b, scale.primes)):
        tracemalloc.start()
        try:
            eval_h(Fraction(5, q), table) if primes is None else eval_W(Fraction(5, q), table, primes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= asked[-1] < 2 * peak + 2**15, (len(table), q)


def test_h_memory_does_not_grow_with_the_table(monkeypatch, tables_300_1000):
    monkeypatch.setattr(weights, "BUCKET", 256)  # both tables span many blocks
    peaks = []
    for t in tables_300_1000:
        tracemalloc.start()
        try:
            eval_h(Fraction(5, 1009), t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(tables_300_1000[1]) > 4 * len(tables_300_1000[0]) > 20 * 256
    # holding every residue as a Python int took about 145 bytes per value
    assert peaks[1] < 1.1 * peaks[0] and peaks[1] < 8 * len(tables_300_1000[1])
