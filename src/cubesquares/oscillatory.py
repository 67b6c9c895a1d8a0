"""Oscillatory volume integrals of e(beta * T(x)^2) over box families.

Two independent evaluation routes are kept deliberately separate:

  cubature3d   tensor Gauss-Legendre directly in (x1, y2, y3) space;
  kernel1d     pushforward to gamma = (x1^3 + C)^2 per smooth pair, where the
               inner integral is  int B(gamma) e(beta gamma) dgamma  with the
               exact density B(gamma) = pref * gamma^(-1/2) (gamma^(1/2)-C)^(-2/3),
               then a 2D quadrature over the smooth pair (y2, y3).

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


def kernel_quad(slot: KernelSlot, beta: float, tol: float = 1e-9, max_rounds: int = 7) -> complex:
    """int B(gamma) e(beta gamma) dgamma with panel doubling until stable."""
    width = slot.gamma_hi - slot.gamma_lo
    cycles = abs(beta) * width
    panels = max(2, int(cycles / 3.0) + 1)
    prev = None
    for _ in range(max_rounds):
        g, w = _panel_rule(slot.gamma_lo, slot.gamma_hi, panels, 16)
        val = complex(np.sum(w * slot.density(g) * np.exp(2j * np.pi * beta * g)))
        if prev is not None and abs(val - prev) <= tol * max(slot.mass, abs(val)):
            return val
        prev = val
        panels *= 2
    raise QuadratureError(f"kernel quadrature did not stabilize at {panels} panels", partial=prev)


# -- the two integral routes ---------------------------------------------------


def _region(params: Params, thin: bool) -> tuple[float, float, float]:
    if thin:
        return params.H1, params.H2, params.H3
    return params.P / 2.0, float(params.P), float(params.P)


def _cubature3d(beta_eff: float, t_lo: float, t_hi: float, ybox: float, tol: float) -> complex:
    gamma_max = (t_hi**3 + 2.0 * ybox**3) ** 2
    cycles = abs(beta_eff) * gamma_max
    n = _nodes_for_cycles(cycles)
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


def _kernel1d(beta_eff: float, t_lo: float, t_hi: float, ybox: float, tol: float) -> complex:
    if ybox <= 0.0:
        return 0.0 + 0.0j
    gamma_span = lambda C: (t_hi**3 + C) ** 2 - (t_lo**3 + C) ** 2  # noqa: E731
    Cmax = 2.0 * ybox**3
    outer_cycles = abs(beta_eff) * ((t_hi**3 + Cmax) ** 2 - t_hi**6)
    ny = _nodes_for_cycles(outer_cycles)
    inner_cycles = abs(beta_eff) * gamma_span(Cmax)
    panels = max(2, int(inner_cycles / 3.0) + 1)

    def evaluate(ny_: int, panels_: int) -> complex:
        y, wy = _panel_rule(0.0, ybox, (ny_ + 15) // 16, 16)
        cy = y**3
        C_full = (cy[:, None] + cy[None, :]).ravel()
        wC_full = (wy[:, None] * wy[None, :]).ravel()
        u, wu = _panel_rule(0.0, 1.0, panels_, 16)
        # chunk the smooth-pair grid so nodes x pairs stays ~1e6 entries
        chunk = max(1, int(1_000_000 / max(len(u), 1)))
        acc = 0.0 + 0.0j
        for i in range(0, C_full.size, chunk):
            C = C_full[i : i + chunk]
            wC = wC_full[i : i + chunk]
            glo = (t_lo**3 + C) ** 2
            span = (t_hi**3 + C) ** 2 - glo
            gamma = glo[None, :] + span[None, :] * u[:, None]
            s = np.sqrt(gamma)
            dens = (1.0 / 6.0) / (s * (s - C[None, :]) ** (2.0 / 3.0))
            inner = np.sum((wu[:, None] * span[None, :]) * dens * np.exp(2j * np.pi * beta_eff * gamma), axis=0)
            acc += complex(np.sum(wC * inner))
        return acc

    prev = evaluate(ny, panels)
    cur = evaluate(int(1.4 * ny) + 8, 2 * panels)
    scale = max(abs(cur), (t_hi - t_lo) * ybox**2)
    if abs(cur - prev) <= tol * scale:
        return cur
    final = evaluate(int(2.0 * ny) + 8, 4 * panels)
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
