"""Oscillatory volume integrals of e(beta * T(x)^2) over the two cube families.

v(beta) integrates e(beta (x1^3 + y2^3 + y3^3)^2) over x1 in [lo, hi] and
y2, y3 in [0, box] of a `params.Family`.  Two independent evaluation routes
are kept deliberately separate; they share only `gauss_rule`, the 16-point
panel policy of `_panel_rule` and the node count per cycle:

  cubature3d   tensor Gauss-Legendre directly in (x1, y2, y3) space.  The sum
               over each x1 node t is the quadratic form A(t)^T M A(t) from
               expanding the square, which is the same discrete sum.
  kernel1d     y2 and y3 enter only through C = y2^3 + y3^3, so the route
               integrates over (C, x1): Gauss in x1 against a rule in C that
               carries the density rho(C) of C, with the C-axis split at Y^3
               and substituted there to remove rho's singularity and cusp.
               The name is historical; callers pass it as the method string.

Both are driven by an effective frequency: `osc_integral_v` integrates over
the bulk family at beta, and `osc_integral_v_thin` over the thin family at
beta_eff = beta * p^6 for its prime p.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError
from .params import Family, Params

MAX_NODES_PER_AXIS = 4096
TOL = 1e-6  # relative change between refinements at which both routes stop
_BLOCK = 1 << 20  # largest phase block of _kernel1d, in entries


_leggauss = lru_cache(maxsize=64)(np.polynomial.legendre.leggauss)


def gauss_rule(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat nodes and weights of the `order`-point Gauss-Legendre rule on each piece [edges[i], edges[i + 1]].

    On (0.0, 1.0) the rule is 0.5 + 0.5 x with weights 0.5 w, bit for bit.
    """
    x, w = _leggauss(order)
    edges = np.asarray(edges, dtype=np.float64)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _panel_rule(lo: float, hi: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """At least `nodes` Gauss nodes on [lo, hi]: ceil(nodes / 16) equal panels of 16 points."""
    return gauss_rule(np.linspace(lo, hi, (nodes + 15) // 16 + 1), 16)


def _nodes_for_cycles(cycles: float) -> int:
    n = max(12, int(3.2 * cycles) + 12)
    if n > MAX_NODES_PER_AXIS:
        raise QuadratureError(f"oscillation budget exceeded: {cycles:.1f} cycles needs {n} nodes/axis")
    return n


# -- the two integral routes ---------------------------------------------------


def _cubature3d(beta_eff: float, family: Family) -> complex:
    # (t^3 + a + b)^2 = t^6 + (2 t^3 a + a^2) + (2 t^3 b + b^2) + 2ab with a = y2^3,
    # b = y3^3: the (y2, y3) tensor sum at each x1 node t is A(t)^T M A(t).
    t_lo, t_hi, ybox = family.lo, family.hi, family.box
    gamma_max = (t_hi**3 + 2.0 * ybox**3) ** 2
    cycles = abs(beta_eff) * gamma_max
    n = _nodes_for_cycles(cycles)
    prev = None
    for nodes in (n, int(1.4 * n) + 8):
        x1, w1 = _panel_rule(t_lo, t_hi, nodes)
        y, wy = _panel_rule(0.0, ybox, nodes)
        t3, cy = x1**3, y**3
        A = np.exp(2j * np.pi * beta_eff * (2.0 * t3[:, None] * cy[None, :] + cy[None, :] ** 2))
        M = np.outer(wy, wy) * np.exp(2j * np.pi * (2.0 * beta_eff) * np.outer(cy, cy))
        inner = np.einsum("ti,ti->t", A @ M, A)
        acc = complex(np.sum(w1 * np.exp(2j * np.pi * beta_eff * t3**2) * inner))
        if prev is not None and abs(acc - prev) <= TOL * max(abs(acc), family.volume):
            return acc
        prev = acc
    raise QuadratureError("cubature3d did not stabilize")


def _c_density(C: np.ndarray, ybox: float) -> np.ndarray:
    """Density of C = y2^3 + y3^3 for (y2, y3) in [0, ybox]^2, at each C in (0, 2 ybox^3).

    rho(C) = (2/3) int (C - w^3)^(-2/3) dw over w = min(y2, y3), from
    max(C - ybox^3, 0)^(1/3) to (C/2)^(1/3).  There C - w^3 >= C/2, so the
    integrand is analytic and a fixed 24-point Gauss rule is exact to rounding.
    """
    t, wt = gauss_rule((0.0, 1.0), 24)
    lo = np.cbrt(np.maximum(C - ybox**3, 0.0))
    span = np.cbrt(C / 2.0) - lo
    w = lo[:, None] + span[:, None] * t[None, :]
    return (2.0 / 3.0) * span * ((C[:, None] - w**3) ** (-2.0 / 3.0) @ wt)


def _c_rule(ybox: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes C and weights rho(C) dC for int_0^(2 ybox^3) ... dC, split at ybox^3.

    C = s^3 on [0, ybox^3] removes rho's C^(-1/3) singularity, and
    C = ybox^3 + c^3 on [ybox^3, 2 ybox^3] its (C - ybox^3)^(1/3) cusp.
    """
    r, wr = _panel_rule(0.0, ybox, n)
    C = np.concatenate([r**3, ybox**3 + r**3])
    jac = np.tile(3.0 * r**2 * wr, 2)
    return C, jac * _c_density(C, ybox)


def _kernel1d(beta_eff: float, family: Family) -> complex:
    # v = int dx1 int rho(C) e(beta (x1^3 + C)^2) dC: an (x1, C) phase matrix
    # between two weight vectors, built in row blocks of at most _BLOCK entries.
    t_lo, t_hi, ybox = family.lo, family.hi, family.box
    if ybox <= 0.0:
        return 0.0 + 0.0j
    Cmax = 2.0 * ybox**3
    nc = _nodes_for_cycles(abs(beta_eff) * ((t_hi**3 + Cmax) ** 2 - t_hi**6))
    nx = _nodes_for_cycles(abs(beta_eff) * ((t_hi**3 + Cmax) ** 2 - (t_lo**3 + Cmax) ** 2))

    def evaluate(nx_: int, nc_: int) -> complex:
        x, wx = _panel_rule(t_lo, t_hi, nx_)
        C, wC = _c_rule(ybox, nc_)
        x3 = x**3
        rows = max(1, _BLOCK // C.size)
        acc = 0.0 + 0.0j
        for i in range(0, x.size, rows):
            phase = beta_eff * (x3[i : i + rows, None] + C[None, :]) ** 2
            acc += complex(wx[i : i + rows] @ np.exp(2j * np.pi * phase) @ wC)
        return acc

    prev = evaluate(nx, nc)
    cur = evaluate(int(1.4 * nx) + 8, int(1.4 * nc) + 8)
    scale = max(abs(cur), family.volume)
    if abs(cur - prev) <= TOL * scale:
        return cur
    final = evaluate(int(2.0 * nx) + 8, int(2.0 * nc) + 8)
    if abs(final - cur) <= TOL * scale:
        return final
    raise QuadratureError("kernel1d did not stabilize")


def _osc_integral(beta_eff: float, family: Family, method: str) -> complex:
    if method == "kernel1d":
        return _kernel1d(beta_eff, family)
    if method == "cubature3d":
        return _cubature3d(beta_eff, family)
    raise ValueError(f"unknown method {method!r}")


def osc_integral_v(beta: float, params: Params, method: str = "kernel1d") -> complex:
    """v(beta) over the bulk family."""
    return _osc_integral(beta, params.bulk, method)


def osc_integral_v_thin(beta: float, p: int, params: Params, method: str = "kernel1d") -> complex:
    """v(beta) over the thin family with its phase scaled by p^6."""
    return _osc_integral(beta * float(p) ** 6, params.thin, method)


def v_at_zero(params: Params) -> float:
    """Closed form v(0) = P^3 / 2, the bulk family's box volume."""
    return params.bulk.volume
