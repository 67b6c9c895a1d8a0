import math
from fractions import Fraction

import numpy as np
import pytest

from cubesquares import oscillatory
from cubesquares.errors import QuadratureError
from cubesquares.oscillatory import (
    _c_density,
    _c_rule,
    _nodes_for_cycles,
    _panel_rule,
    gauss_rule,
    osc_integral_v,
    osc_integral_v_thin,
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


def test_routes_agree_at_tight_tol(monkeypatch):
    pp = derive_params(16**6)
    for k in range(1, 6):
        beta = 2.0 * k / pp.N
        b = osc_integral_v(beta, pp, method="cubature3d")
        with monkeypatch.context() as m:
            m.setattr(oscillatory, "TOL", 1e-9)
            a = osc_integral_v(beta, pp, method="kernel1d")
        assert abs(a - b) <= 1e-8 * abs(b)


def _cubature3d_direct(beta_eff, family, tol):
    """The tensor Gauss-Legendre sum of cubature3d as a literal loop over x1 nodes."""
    t_lo, t_hi, ybox = family.lo, family.hi, family.box
    gamma_max = (t_hi**3 + 2.0 * ybox**3) ** 2
    n = _nodes_for_cycles(abs(beta_eff) * gamma_max)
    prev = None
    for nodes in (n, int(1.4 * n) + 8):
        x1, w1 = _panel_rule(t_lo, t_hi, nodes)
        y, wy = _panel_rule(0.0, ybox, nodes)
        cy = y**3
        pair = cy[:, None] + cy[None, :]
        wpair = wy[:, None] * wy[None, :]
        acc = 0.0 + 0.0j
        for t, wt in zip(x1.tolist(), w1.tolist()):
            phase = beta_eff * (t**3 + pair) ** 2
            acc += wt * complex(np.sum(wpair * np.exp(2j * np.pi * phase)))
        if prev is not None and abs(acc - prev) <= tol * max(abs(acc), family.volume):
            return acc
        prev = acc
    raise QuadratureError("cubature3d did not stabilize", partial=prev)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_cubature_matches_direct_loop(k):
    pp = derive_params(8**6)
    beta = 2.0 * k / pp.N
    fast = osc_integral_v(beta, pp, method="cubature3d")
    direct = _cubature3d_direct(beta, pp.bulk, 1e-6)
    assert abs(fast - direct) <= 1e-13 * abs(direct)


def test_thin_cubature_matches_direct_loop():
    pp = derive_params(27**6)
    beta, p = 2.0 * 20 / pp.N, 3
    fast = osc_integral_v_thin(beta, p, pp, method="cubature3d")
    direct = _cubature3d_direct(beta * p**6, pp.thin, 1e-6)
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


def test_thin_integral_at_zero():
    pp = derive_params(27**6)
    for p in (2, 3):
        v = osc_integral_v_thin(0.0, p, pp)
        assert v.real == pytest.approx(pp.thin.volume, rel=1e-7)
        assert abs(v.imag) < 1e-9 * pp.thin.volume


@pytest.mark.parametrize("p", [2, 3])
def test_thin_routes_agree_off_zero(p):
    pp = derive_params(27**6)
    for k in (5, 20):
        beta = 2.0 * k / pp.N
        a = osc_integral_v_thin(beta, p, pp, method="kernel1d")
        b = osc_integral_v_thin(beta, p, pp, method="cubature3d")
        assert abs(b) < 0.99 * pp.thin.volume  # the phase turns over the box
        assert abs(a - b) <= 1e-10 * abs(b)


def test_node_budget_guard():
    pp = derive_params(16**6)
    with pytest.raises(QuadratureError):
        osc_integral_v(10.0, pp, method="kernel1d")


@pytest.mark.parametrize("order", [3, 16, 24])
def test_gauss_rule_exact_to_its_degree_on_uneven_cuts(order):
    edges = [-0.7, 0.1, 0.35, 0.4, 2.0]
    k = 2 * order - 1
    x, w = gauss_rule(edges, order)
    assert x.size == w.size == order * (len(edges) - 1)
    exact = (Fraction(edges[-1]) ** (k + 1) - Fraction(edges[0]) ** (k + 1)) / (k + 1)
    assert float(np.sum(w * x**k)) == pytest.approx(float(exact), rel=1e-12)


def test_gauss_rule_on_unit_interval_is_the_shifted_legendre_rule():
    # J's pair kernel and its loop oracle both take this rule; they must stay bit-identical
    x, w = np.polynomial.legendre.leggauss(24)
    t, wt = gauss_rule((0.0, 1.0), 24)
    assert np.array_equal(t, 0.5 + 0.5 * x) and np.array_equal(wt, 0.5 * w)
