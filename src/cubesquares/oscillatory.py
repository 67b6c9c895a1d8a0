"""Oscillatory volume integrals of e(beta * T(x)^2) over box families.

v(beta) integrates e(beta (x1^3 + y2^3 + y3^3)^2) over x1 in [t_lo, t_hi] and
y2, y3 in [0, Y].  Two independent evaluation routes are kept deliberately
separate; they share only the Gauss panel rule and the node count per cycle:

  cubature3d   tensor Gauss-Legendre directly in (x1, y2, y3) space.  The sum
               over each x1 node t is the quadratic form A(t)^T M A(t) from
               expanding the square, which is the same discrete sum.
  kernel1d     y2 and y3 enter only through C = y2^3 + y3^3, so the route
               integrates over (C, x1): Gauss in x1 against a rule in C that
               carries the density rho(C) of C, with the C-axis split at Y^3
               and substituted there to remove rho's singularity and cusp.
               The name is historical; callers pass it as the method string.

Both are driven by an effective frequency: the thin-family integral with
prime p equals the plain one at beta_eff = beta * p^6 over its own box.
The kernel slots are reused by the singular-integral convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError
from .params import Params

MAX_NODES_PER_AXIS = 4096
_BLOCK = 1 << 20  # largest phase block of _kernel1d, in entries


@lru_cache(maxsize=64)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_rule(lo: float, hi: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """GL nodes/weights for [lo, hi] split into equal panels."""
    x, w = _leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid + half * x[None, :]).ravel()
    weights = np.broadcast_to(half * w[None, :], (panels, order)).ravel()
    return nodes, weights


def _nodes_for_cycles(cycles: float, base: int = 12) -> int:
    n = max(base, int(3.2 * cycles) + base)
    if n > MAX_NODES_PER_AXIS:
        raise QuadratureError(f"oscillation budget exceeded: {cycles:.1f} cycles needs {n} nodes/axis")
    return n


# -- kernel slots -------------------------------------------------------------


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


# -- the two integral routes ---------------------------------------------------


def _region(params: Params, thin: bool) -> tuple[float, float, float]:
    if thin:
        return params.H1, params.H2, params.H3
    return params.P / 2.0, float(params.P), float(params.P)


def _cubature3d(beta_eff: float, t_lo: float, t_hi: float, ybox: float, tol: float) -> complex:
    # (t^3 + a + b)^2 = t^6 + (2 t^3 a + a^2) + (2 t^3 b + b^2) + 2ab with a = y2^3,
    # b = y3^3: the (y2, y3) tensor sum at each x1 node t is A(t)^T M A(t).
    gamma_max = (t_hi**3 + 2.0 * ybox**3) ** 2
    cycles = abs(beta_eff) * gamma_max
    n = _nodes_for_cycles(cycles)
    prev = None
    for nodes in (n, int(1.4 * n) + 8):
        x1, w1 = _panel_rule(t_lo, t_hi, 1, min(nodes, 64)) if nodes <= 64 else _panel_rule(t_lo, t_hi, (nodes + 15) // 16, 16)
        y, wy = _panel_rule(0.0, ybox, (nodes + 15) // 16, 16)
        t3, cy = x1**3, y**3
        A = np.exp(2j * np.pi * beta_eff * (2.0 * t3[:, None] * cy[None, :] + cy[None, :] ** 2))
        M = np.outer(wy, wy) * np.exp(2j * np.pi * (2.0 * beta_eff) * np.outer(cy, cy))
        inner = np.einsum("ti,ti->t", A @ M, A)
        acc = complex(np.sum(w1 * np.exp(2j * np.pi * beta_eff * t3**2) * inner))
        if prev is not None and abs(acc - prev) <= tol * max(abs(acc), (t_hi - t_lo) * ybox**2):
            return acc
        prev = acc
    raise QuadratureError("cubature3d did not stabilize", partial=prev)


def _c_density(C: np.ndarray, ybox: float) -> np.ndarray:
    """Density of C = y2^3 + y3^3 for (y2, y3) in [0, ybox]^2, at each C in (0, 2 ybox^3).

    rho(C) = (2/3) int (C - w^3)^(-2/3) dw over w = min(y2, y3), from
    max(C - ybox^3, 0)^(1/3) to (C/2)^(1/3).  There C - w^3 >= C/2, so the
    integrand is analytic and a fixed 24-point Gauss rule is exact to rounding.
    """
    u, wu = _leggauss(24)
    lo = np.cbrt(np.maximum(C - ybox**3, 0.0))
    half = 0.5 * (np.cbrt(C / 2.0) - lo)
    w = (lo + half)[:, None] + half[:, None] * u[None, :]
    return (2.0 / 3.0) * half * ((C[:, None] - w**3) ** (-2.0 / 3.0) @ wu)


def _c_rule(ybox: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes C and weights rho(C) dC for int_0^(2 ybox^3) ... dC, split at ybox^3.

    C = s^3 on [0, ybox^3] removes rho's C^(-1/3) singularity, and
    C = ybox^3 + c^3 on [ybox^3, 2 ybox^3] its (C - ybox^3)^(1/3) cusp.
    """
    r, wr = _panel_rule(0.0, ybox, (n + 15) // 16, 16)
    C = np.concatenate([r**3, ybox**3 + r**3])
    jac = np.tile(3.0 * r**2 * wr, 2)
    return C, jac * _c_density(C, ybox)


def _kernel1d(beta_eff: float, t_lo: float, t_hi: float, ybox: float, tol: float) -> complex:
    # v = int dx1 int rho(C) e(beta (x1^3 + C)^2) dC: an (x1, C) phase matrix
    # between two weight vectors, built in row blocks of at most _BLOCK entries.
    if ybox <= 0.0:
        return 0.0 + 0.0j
    Cmax = 2.0 * ybox**3
    nc = _nodes_for_cycles(abs(beta_eff) * ((t_hi**3 + Cmax) ** 2 - t_hi**6))
    nx = _nodes_for_cycles(abs(beta_eff) * ((t_hi**3 + Cmax) ** 2 - (t_lo**3 + Cmax) ** 2))

    def evaluate(nx_: int, nc_: int) -> complex:
        x, wx = _panel_rule(t_lo, t_hi, (nx_ + 15) // 16, 16)
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
    scale = max(abs(cur), (t_hi - t_lo) * ybox**2)
    if abs(cur - prev) <= tol * scale:
        return cur
    final = evaluate(int(2.0 * nx) + 8, int(2.0 * nc) + 8)
    if abs(final - cur) <= tol * scale:
        return final
    raise QuadratureError("kernel1d did not stabilize", partial=final)


def osc_integral_v(
    beta: float, params: Params, method: str = "kernel1d", tol: float = 1e-6, thin: bool = False, p: int = 1
) -> complex:
    """v(beta) over the bulk box, or its thin-family variant at prime p.

    thin=True integrates over (H1, H2] x [0, H3]^2 with phase scaled by p^6.
    """
    t_lo, t_hi, ybox = _region(params, thin)
    beta_eff = beta * float(p) ** 6 if thin else beta
    if method == "kernel1d":
        return _kernel1d(beta_eff, t_lo, t_hi, ybox, tol)
    if method == "cubature3d":
        return _cubature3d(beta_eff, t_lo, t_hi, ybox, tol)
    raise ValueError(f"unknown method {method!r}")


def osc_integral_v_thin(beta: float, p: int, params: Params, method: str = "kernel1d", tol: float = 1e-6) -> complex:
    return osc_integral_v(beta, params, method=method, tol=tol, thin=True, p=p)


def v_at_zero(params: Params) -> float:
    """Closed form v(0) = P^3 / 2 (box volume)."""
    return params.P**3 / 2.0


def thin_volume(params: Params) -> float:
    return (params.H2 - params.H1) * params.H3**2
