import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubesquares.errors import QuadratureError
from cubesquares.oscillatory import (
    _c_density,
    _c_rule,
    _nodes_for_cycles,
    _panel_rule,
    osc_integral_v,
    osc_integral_v_thin,
    plain_slot,
    scaled_slot,
    thin_volume,
    v_at_zero,
)
from cubesquares.params import derive_params


def test_value_at_zero():
    pp = derive_params(8**6)
    assert v_at_zero(pp) == pp.P**3 / 2
    for method in ("kernel1d", "cubature3d"):
        v0 = osc_integral_v(0.0, pp, method=method)
        assert abs(v0 - 256.0) / 256.0 < 1e-7


def test_routes_agree_off_zero():
    pp = derive_params(8**6)
    for k in (1, 2, 5):
        beta = 2.0 * k / pp.N
        a = osc_integral_v(beta, pp, method="kernel1d")
        b = osc_integral_v(beta, pp, method="cubature3d")
        assert abs(a - b) <= 1e-5 * max(abs(a), abs(b))


def test_routes_agree_at_tight_tol():
    pp = derive_params(16**6)
    for k in range(1, 6):
        beta = 2.0 * k / pp.N
        a = osc_integral_v(beta, pp, method="kernel1d", tol=1e-9)
        b = osc_integral_v(beta, pp, method="cubature3d")
        assert abs(a - b) <= 1e-8 * abs(b)


def _cubature3d_direct(beta_eff, t_lo, t_hi, ybox, tol):
    """The tensor Gauss-Legendre sum of cubature3d as a literal loop over x1 nodes."""
    gamma_max = (t_hi**3 + 2.0 * ybox**3) ** 2
    n = _nodes_for_cycles(abs(beta_eff) * gamma_max)
    prev = None
    for nodes in (n, int(1.4 * n) + 8):
        x1, w1 = _panel_rule(t_lo, t_hi, 1, min(nodes, 64)) if nodes <= 64 else _panel_rule(t_lo, t_hi, (nodes + 15) // 16, 16)
        y, wy = _panel_rule(0.0, ybox, (nodes + 15) // 16, 16)
        cy = y**3
        pair = cy[:, None] + cy[None, :]
        wpair = wy[:, None] * wy[None, :]
        acc = 0.0 + 0.0j
        for t, wt in zip(x1.tolist(), w1.tolist()):
            phase = beta_eff * (t**3 + pair) ** 2
            acc += wt * complex(np.sum(wpair * np.exp(2j * np.pi * phase)))
        if prev is not None and abs(acc - prev) <= tol * max(abs(acc), (t_hi - t_lo) * ybox**2):
            return acc
        prev = acc
    raise QuadratureError("cubature3d did not stabilize", partial=prev)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_cubature_matches_direct_loop(k):
    pp = derive_params(8**6)
    beta = 2.0 * k / pp.N
    fast = osc_integral_v(beta, pp, method="cubature3d")
    direct = _cubature3d_direct(beta, pp.P / 2.0, float(pp.P), float(pp.P), 1e-6)
    assert abs(fast - direct) <= 1e-13 * abs(direct)


def test_thin_cubature_matches_direct_loop():
    pp = derive_params(27**6)
    beta, p = 2.0 * 20 / pp.N, 3
    fast = osc_integral_v_thin(beta, p, pp, method="cubature3d")
    direct = _cubature3d_direct(beta * p**6, pp.H1, pp.H2, pp.H3, 1e-6)
    assert abs(fast - direct) <= 1e-13 * abs(direct)


@pytest.mark.parametrize("ybox", [1.0, 2.5])
def test_c_density_closed_form_below_cusp(ybox):
    # for C <= Y^3 the whole quarter arc y2^3 + y3^3 = C lies in the box, and
    # rho(C) = (1/9) B(1/3, 1/3) C^(-1/3)
    beta13 = math.gamma(1 / 3) ** 2 / math.gamma(2 / 3)
    C = ybox**3 * np.array([1e-12, 1e-6, 0.01, 0.3, 0.7, 0.999, 1.0])
    assert np.allclose(_c_density(C, ybox), beta13 / 9.0 * C ** (-1 / 3), rtol=1e-12, atol=0)


@pytest.mark.parametrize("ybox", [1.0, 2.5])
def test_c_rule_mass_is_box_area(ybox):
    _, w = _c_rule(ybox, 12)
    assert w.sum() == pytest.approx(ybox**2, rel=1e-13)


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
    g, w = _panel_rule(slot.gamma_lo, slot.gamma_hi, 32, 16)
    assert float(np.sum(w * slot.density(g))) == pytest.approx(slot.mass, rel=1e-9)


def test_thin_integral_at_zero():
    pp = derive_params(27**6)
    for p in (2, 3):
        v = osc_integral_v_thin(0.0, p, pp)
        assert v.real == pytest.approx(thin_volume(pp), rel=1e-7)
        assert abs(v.imag) < 1e-9 * thin_volume(pp)


@pytest.mark.parametrize("p", [2, 3])
def test_thin_routes_agree_off_zero(p):
    pp = derive_params(27**6)
    for k in (5, 20):
        beta = 2.0 * k / pp.N
        a = osc_integral_v_thin(beta, p, pp, method="kernel1d")
        b = osc_integral_v_thin(beta, p, pp, method="cubature3d")
        assert abs(b) < 0.99 * thin_volume(pp)  # the phase turns over the box
        assert abs(a - b) <= 1e-10 * abs(b)


def test_node_budget_guard():
    pp = derive_params(16**6)
    with pytest.raises(QuadratureError):
        osc_integral_v(10.0, pp, method="kernel1d")
