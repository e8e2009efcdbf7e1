"""Self-contained special-function and quadrature kernel.

Everything here is implemented from scratch (recurrences, series, plain
quadrature); no external math library beyond numpy array arithmetic.  The
module also hosts the regularized-distribution machinery for boundary
values (u(s) +- i0)^(-alpha), evaluated by a damping schedule with
Richardson extrapolation, and the half-line transform of t^beta, whose
[1, inf) piece is rotated onto t = 1 + iu/sigma, where it decays like
e^{-u} and needs no damping.

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

from .errors import NonConvergenceError, ValidationError

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "composite_gauss_legendre",
    "oscillatory_quadrature",
    "bessel_j",
    "bessel_j_scaled",
    "sphere_volume",
    "RegularizedPower",
    "RegularizedLimit",
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


def oscillatory_quadrature(a: float, b: float, phase_span: float,
                           order: int = 12, min_panels: int = 4):
    """Composite rule on [a, b] with ~3 panels per oscillation cycle."""
    cycles = abs(phase_span) / (2.0 * pi)
    panels = max(min_panels, int(math.ceil(3.0 * cycles)) + 2)
    return composite_gauss_legendre(np.linspace(a, b, panels + 1), order=order)


# --------------------------------------------------------------------------
# Bessel J
# --------------------------------------------------------------------------

_BESSEL_SERIES_CUT = 12.0
_BESSEL_NU_MAX = 200.0
_BESSEL_X_MAX = 5000.0


def _bessel_series(nu: float, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0.0
    if nu == 0.0:
        out[~pos] = 1.0
    if np.any(pos):
        xp = x[pos]
        h = 0.5 * xp
        t = np.exp(nu * np.log(h) - lgamma(nu + 1.0))
        acc = t.copy()
        q = h * h
        for k in range(120):
            t = -t * q / ((k + 1.0) * (nu + k + 1.0))
            acc += t
            if np.max(np.abs(t)) < 1e-18 * max(1e-300, np.max(np.abs(acc))):
                break
        out[pos] = acc
    return out


def _bessel_integral(nu: float, x: np.ndarray) -> np.ndarray:
    # Schlaefli: J_nu(x) = (1/pi) int_0^pi cos(nu t - x sin t) dt
    #                      - sin(nu pi)/pi int_0^inf exp(-nu t - x sinh t) dt
    xmax = float(np.max(x))
    tt, ww = oscillatory_quadrature(0.0, pi, (nu + xmax) * pi, order=12)
    main = np.cos(nu * tt[None, :] - x[:, None] * np.sin(tt)[None, :]) @ ww / pi
    snp = math.sin(pi * (nu - round(nu))) * (-1.0) ** (round(nu) % 2)
    if abs(snp) > 1e-16:
        xmin = float(np.min(x))
        T = math.asinh(50.0 / max(xmin, 1.0))
        uu, wu = composite_gauss_legendre(np.linspace(0.0, T, 9), order=16)
        expo = np.exp(-nu * uu[None, :] - x[:, None] * np.sinh(uu)[None, :])
        main = main - (snp / pi) * (expo @ wu)
    return main


def bessel_j(nu: float, x):
    """Bessel J_nu(x) for nu >= 0, x >= 0.

    Ascending series for small x, Schlaefli integral representation for
    large x.  Absolute accuracy ~1e-12 for x <= 200, nu <= 30.
    """
    if nu < 0.0 or nu > _BESSEL_NU_MAX:
        raise ValidationError(f"order nu={nu} outside supported [0, {_BESSEL_NU_MAX}]")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if np.any(xa < 0.0) or np.any(xa > _BESSEL_X_MAX):
        raise ValidationError(f"argument outside supported [0, {_BESSEL_X_MAX}]")
    out = np.empty_like(xa)
    small = xa <= _BESSEL_SERIES_CUT
    if np.any(small):
        out[small] = _bessel_series(nu, xa[small])
    if np.any(~small):
        out[~small] = _bessel_integral(nu, xa[~small])
    return float(out[0]) if scalar else out


def bessel_j_scaled(nu: float, x):
    """J_nu(x) / x^nu, finite at x = 0 (value 1 / (2^nu Gamma(nu+1)))."""
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    out = np.empty_like(xa)
    tiny = xa < 0.25
    if np.any(tiny):
        xt = xa[tiny]
        t = np.full_like(xt, math.exp(-nu * math.log(2.0) - lgamma(nu + 1.0)))
        acc = t.copy()
        q = 0.25 * xt * xt
        for k in range(30):
            t = -t * q / ((k + 1.0) * (nu + k + 1.0))
            acc += t
            if np.max(np.abs(t)) < 1e-20:
                break
        out[tiny] = acc
    if np.any(~tiny):
        xb = xa[~tiny]
        out[~tiny] = bessel_j(nu, xb) / xb ** nu
    return float(out[0]) if scalar else out


# --------------------------------------------------------------------------
# Sphere volume
# --------------------------------------------------------------------------

def sphere_volume(q: int) -> float:
    """Volume of the unit sphere S^q in R^{q+1}; Vol(S^0) = 2."""
    if q < 0:
        raise ValidationError("sphere dimension must be >= 0")
    return 2.0 * pi ** ((q + 1) / 2.0) / math.exp(lgamma((q + 1) / 2.0))


# --------------------------------------------------------------------------
# Regularized (u(s) +- i0)^(-alpha) pairings
# --------------------------------------------------------------------------

DEFAULT_DAMPING_SCHEDULE = tuple(2.0 ** (-k) for k in range(4, 15))


@dataclass(frozen=True)
class RegularizedPower:
    """The distribution (s +- i0)^(-alpha); its i0 limit is taken on
    DEFAULT_DAMPING_SCHEDULE."""

    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValidationError("exponent alpha must be > 0")


@dataclass(frozen=True)
class RegularizedLimit:
    """Extrapolated i0 limit with its convergence diagnostics."""

    value: complex
    residuals: tuple
    converged: bool
    error_estimate: float


def _find_zeros(u: Callable, lo: float, hi: float) -> list[float]:
    grid = np.linspace(lo, hi, 4097)
    vals = np.asarray(u(grid), dtype=float)
    zeros = [float(g) for g in grid[vals == 0.0]]
    sgn = np.sign(vals)
    for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
        a, b = grid[i], grid[i + 1]
        fa = vals[i]
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = float(u(np.asarray([m]))[0])
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        zeros.append(0.5 * (a + b))
    return sorted(zeros)


def _graded_breakpoints(lo: float, hi: float, zeros: list[float], eps: float):
    # uniform baseline resolving the test function, dyadic grading around
    # each zero of the base function resolving the i0-regularized singularity
    pts = set(np.linspace(lo, hi, 17))
    for z in zeros:
        scale = eps
        while scale < (hi - lo):
            for p in (z - scale, z + scale):
                if lo < p < hi:
                    pts.add(p)
            scale *= 2.0
        if lo < z < hi:
            pts.add(z)
    return np.array(sorted(pts))


def regularized_pairing(f: Callable, support, reg: RegularizedPower,
                        sign: int = +1, base: Callable = None) -> RegularizedLimit:
    """lim_{eps->0+} int f(s) (u(s) + i*sign*eps)^(-alpha) ds over the support.

    u defaults to the identity; pass base=np.sin for the sine-power
    regularization.  Principal branch throughout.  The limit is taken on
    the damping schedule with two Richardson stages (eliminating the eps
    and eps^2 error terms); non-convergence is reported if the remaining
    residuals fail to decrease monotonically over the last 3 steps.

    The rules of the schedule share most of their panels, so f and u are
    called once each, on the sorted union of the rules' nodes (they must
    act pointwise); each rule's sum then reads its own nodes' values.
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ValidationError("empty support interval")
    if sign not in (+1, -1):
        raise ValidationError("sign must be +1 or -1")
    u = base if base is not None else (lambda s: s)
    zeros = _find_zeros(u, lo, hi)
    rules = [composite_gauss_legendre(_graded_breakpoints(lo, hi, zeros, eps),
                                      order=24)
             for eps in DEFAULT_DAMPING_SCHEDULE]
    nodes, where = np.unique(np.concatenate([x for x, _ in rules]),
                             return_inverse=True)
    f_all = np.asarray(f(nodes), dtype=complex)
    u_all = np.asarray(u(nodes), dtype=complex)
    vals = []
    start = 0
    for eps, (_, w) in zip(DEFAULT_DAMPING_SCHEDULE, rules):
        idx = where[start:start + len(w)]
        start += len(w)
        integrand = f_all[idx] * np.exp(
            -reg.alpha * np.log(u_all[idx] + 1j * sign * eps))
        vals.append(complex(np.sum(w * integrand)))
    vals = np.array(vals)
    r1 = 2.0 * vals[1:] - vals[:-1]
    r2 = (4.0 * r1[1:] - r1[:-1]) / 3.0
    resid = np.abs(np.diff(r2))
    value = complex(r2[-1])
    floor = 1e-13 * max(1.0, abs(value))
    tail = resid[-3:]
    monotone = all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
    at_floor = bool(np.all(tail <= floor))
    converged = monotone or at_floor
    result = RegularizedLimit(value=value, residuals=tuple(float(r) for r in resid),
                              converged=converged,
                              error_estimate=float(resid[-1]))
    if not converged:
        raise NonConvergenceError(
            f"extrapolation residuals not decreasing: {tail.tolist()}")
    return result


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
