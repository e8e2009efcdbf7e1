"""Self-contained quadrature kernel and the special values built on it.

Everything here is implemented from scratch on numpy arrays: Gauss-Legendre
rules, sphere volumes, the pairing of a window with the boundary value
(s + i0)^(-alpha), taken as the exact finite part at s = 0, and the
half-line transform of t^beta, whose [1, inf) piece is rotated onto
t = 1 + iu/sigma, where it decays like e^{-u} and needs no damping.  The
plane-wave sphere factors need no Bessel function: oscillatory_models
evaluates them as Poisson integrals with these rules.

Fourier convention used throughout the package:

    fhat(s) = int f(x) exp(-i s x) dx,   f(x) = (1/2pi) int fhat(s) exp(i s x) ds

so that the indicator 1_[-eps,eps] has fhat(0) = 2 eps, and
int_0^inf exp(i t sigma) t^beta dt = i exp(i beta pi/2) Gamma(beta+1) (sigma + i0)^(-beta-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma, pi
from typing import Callable

import numpy as np

from .errors import ValidationError

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "composite_gauss_legendre",
    "sphere_volume",
    "regularized_pairing",
    "fourier_halfline_power",
]


# --------------------------------------------------------------------------
# Gauss-Legendre quadrature
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on (-1, 1): integrates degree <= 2*order - 1 exactly."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


_RULE_CACHE: dict[int, QuadratureRule] = {}


def _legendre_and_derivative(order: int, x: np.ndarray):
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(2, order + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = order * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


def gauss_legendre(order: int) -> QuadratureRule:
    """Nodes and weights by Newton iteration on P_order from Chebyshev guesses."""
    if order < 1:
        raise ValidationError("quadrature order must be >= 1")
    if order in _RULE_CACHE:
        return _RULE_CACHE[order]
    k = np.arange(1, order + 1)
    x = np.cos(pi * (k - 0.25) / (order + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(order, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    rule = QuadratureRule(nodes=np.sort(x), weights=w[np.argsort(x)], order=order)
    _RULE_CACHE[order] = rule
    return rule


def composite_gauss_legendre(breakpoints, order: int = 16):
    """Nodes and weights of a composite rule over consecutive breakpoints."""
    rule = gauss_legendre(order)
    bks = np.asarray(breakpoints, dtype=float)
    lo = bks[:-1]
    width = np.diff(bks)
    x = (rule.nodes[None, :] + 1.0) * 0.5 * width[:, None] + lo[:, None]
    w = rule.weights[None, :] * 0.5 * width[:, None]
    return x.ravel(), w.ravel()


# --------------------------------------------------------------------------
# Sphere volume
# --------------------------------------------------------------------------

def sphere_volume(q: int) -> float:
    """Volume of the unit sphere S^q in R^{q+1}; Vol(S^0) = 2."""
    if q < 0:
        raise ValidationError("sphere dimension must be >= 0")
    return 2.0 * pi ** ((q + 1) / 2.0) / math.exp(lgamma((q + 1) / 2.0))


# --------------------------------------------------------------------------
# Regularized (s + i0)^(-alpha) pairings
# --------------------------------------------------------------------------

_PAIRING_ALPHAS = (0.5, 1.0, 1.5)
_PAIRING_PANELS = 16  # Gauss-Legendre panels of order 24 per side of s = 0


def regularized_pairing(f: Callable, support, alpha: float) -> complex:
    """int f(s) (s + i0)^(-alpha) ds over the support, for alpha in
    _PAIRING_ALPHAS, as the exact finite part at s = 0.

    f must act pointwise and be smooth on each side of 0 (a kink at 0, as
    in the Fejer triangle, is allowed).  Away from 0 the integral is one
    composite rule of f(s) (s + 0j)^(-alpha).  Otherwise each side [0, b]
    (b = hi, and b = -lo with f(-s)) is

        FP int_0^b f(s) s^(-alpha) ds
            = 2 b^(1-alpha) int_0^1 v^(1-2alpha) (f(b v^2) - f(0)) dv
              + f(0) b^(1-alpha)/(1-alpha)     (f(0) log b at alpha = 1),

    whose v-integrand is smooth (f(b v^2) - f(0) = O(v^2)).  The negative
    side carries the phase e^(-i pi alpha) of (s + i0)^(-alpha) there, and
    at alpha = 1 the delta term -i pi f(0) of (s + i0)^(-1) is added.
    f is called once, on the sorted nodes of both sides and 0.
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ValidationError("empty support interval")
    if alpha not in _PAIRING_ALPHAS:
        raise ValidationError(f"alpha must be one of {_PAIRING_ALPHAS}")
    if lo >= 0.0 or hi <= 0.0:
        x, w = composite_gauss_legendre(
            np.linspace(lo, hi, 2 * _PAIRING_PANELS + 1), order=24)
        return complex(np.sum(w * np.asarray(f(x)) * (x + 0j) ** -alpha))
    v, w = composite_gauss_legendre(np.linspace(0.0, 1.0, _PAIRING_PANELS + 1),
                                    order=24)
    k = len(v)
    vals = np.asarray(f(np.concatenate([lo * v[::-1] ** 2, [0.0],
                                        hi * v ** 2])))
    f0 = vals[k]
    total = -1j * pi * f0 if alpha == 1.0 else 0.0
    for b, fb, phase in ((hi, vals[k + 1:], 1.0),
                         (-lo, vals[k - 1::-1], np.exp(-1j * pi * alpha))):
        edge = math.log(b) if alpha == 1.0 else b ** (1.0 - alpha) / (1.0 - alpha)
        side = 2.0 * b ** (1.0 - alpha) * np.sum(
            w * v ** (1.0 - 2.0 * alpha) * (fb - f0))
        total += phase * (side + f0 * edge)
    return complex(total)


def fourier_halfline_power(beta: float, sigma: float) -> complex:
    """int_0^inf exp(i t sigma) t^beta dt for beta > -1, sigma > 0 by quadrature.

    The [1, inf) piece is rotated into the upper half-plane, t = 1 + iu/sigma,
    where exp(i sigma t) decays:

        int_1^inf e^{i sigma t} t^beta dt
            = e^{i sigma} (i/sigma) int_0^inf e^{-u} (1 + iu/sigma)^beta du,

    a smooth, exponentially damped integral, so it needs no damping schedule
    and no extrapolation.  Its Gauss-Legendre panels are uniform on
    [0, 48 + 2 max(beta, 0)] and, when sigma < 4, graded dyadically from 4
    down to (sigma/4, sigma/2]: the integrand bends at u ~ sigma, the
    distance to its branch point u = i sigma.  The [0, 1] piece stays a
    quadrature, so the result is an independent check of the Gamma closed
    form.  There t = v^q with q (beta + 1) = k = max(2, ceil(4 (beta + 1)))
    turns t^beta dt into q v^(k-1) dv, which is smooth at v = 0 (q = 4 when
    4 beta is an integer >= -2, q = 2/(beta + 1) for beta <= -1/2).

    Relative error <= 1e-12 for -0.99 < beta <= 3 and 0.3 <= sigma <= 10.
    beta <= -0.99 is out of scope (q grows like 2/(beta + 1)).  At large
    sigma the two pieces cancel: the integrands are O(1) while the result is
    Gamma(beta+1) sigma^(-beta-1), so the relative error grows like
    1e-16 sigma^(beta+1) / Gamma(beta+1) (2e-9 at beta = 3, sigma = 100).
    """
    if beta <= -1:
        raise ValidationError("need beta > -1")
    if sigma <= 0:
        raise ValidationError("sigma must be > 0")
    k = max(2, math.ceil(4.0 * (beta + 1.0)))
    q = k / (beta + 1.0)
    # the phase sigma v^q turns fastest at v = 1, q sigma radians per unit v
    v, wv = composite_gauss_legendre(
        np.linspace(0.0, 1.0, math.ceil(q * sigma / 12.0) + 6), order=16)
    head = np.sum(q * v ** (k - 1) * np.exp(1j * sigma * v ** q) * wv)
    u_max = 48.0 + 2.0 * max(beta, 0.0)
    bks = np.linspace(0.0, u_max, math.ceil(u_max / 2.0) + 1)
    if sigma < 4.0:
        dyadic = 4.0 * 0.5 ** np.arange(math.ceil(math.log2(16.0 / sigma)))
        bks = np.union1d(bks, dyadic)
    u, wu = composite_gauss_legendre(bks, order=16)
    tail = np.sum(np.exp(-u) * (1.0 + 1j * u / sigma) ** beta * wu)
    return complex(head + np.exp(1j * sigma) * (1j / sigma) * tail)
