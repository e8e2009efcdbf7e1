"""Self-contained special-function and quadrature kernel.

Everything here is implemented from scratch (recurrences, series, plain
quadrature); no external math library beyond numpy array arithmetic.  The
module also hosts the regularized-distribution machinery for boundary
values (u(s) +- i0)^(-alpha), evaluated by a damping schedule with
Richardson extrapolation.

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
    "assoc_legendre",
    "assoc_legendre_normalized",
    "gegenbauer",
    "bessel_j",
    "bessel_j_scaled",
    "sphere_volume",
    "sphere_plane_wave_integral",
    "RegularizedPower",
    "RegularizedLimit",
    "regularized_pairing",
    "fourier_halfline_power",
    "halfline_power_gamma_rhs",
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
# Legendre and Gegenbauer recurrences
# --------------------------------------------------------------------------

def assoc_legendre(N: int, m: int, x):
    """Associated Legendre P_N^m(x), no Condon-Shortley phase.

    Forward recurrence in N from the diagonal seed P_m^m.  Unnormalized;
    overflows for m beyond a few hundred, use assoc_legendre_normalized for
    large degrees.
    """
    if not (0 <= m <= N):
        raise ValidationError("need 0 <= m <= N")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValidationError("argument outside [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    # diagonal seed: P_m^m = (2m-1)!! (1-x^2)^{m/2}
    pmm = np.ones_like(x)
    if m > 0:
        s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
        for j in range(1, m + 1):
            pmm = pmm * (2 * j - 1) * s
    if N == m:
        return pmm if pmm.ndim else float(pmm)
    pm1 = (2 * m + 1) * x * pmm
    if N == m + 1:
        return pm1 if pm1.ndim else float(pm1)
    for k in range(m + 2, N + 1):
        pmm, pm1 = pm1, ((2 * k - 1) * x * pm1 - (k + m - 1) * pmm) / (k - m)
    return pm1 if pm1.ndim else float(pm1)


def assoc_legendre_normalized(N: int, m: int, x):
    """P-bar_N^m(x) with int_{-1}^{1} P-bar^2 dx = 1, stable to large N.

    Fully normalized recurrence (diagonal seed then upward in degree), the
    standard stable scheme for geopotential-style evaluations.
    """
    if not (0 <= m <= N):
        raise ValidationError("need 0 <= m <= N")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValidationError("argument outside [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    # seed: P-bar_0^0 = 1/sqrt(2); P-bar_m^m = sqrt((2m+1)/(2m)) s P-bar_{m-1}^{m-1}
    p = np.full_like(x, 1.0 / math.sqrt(2.0))
    for j in range(1, m + 1):
        p = math.sqrt((2 * j + 1) / (2.0 * j)) * s * p
    if N == m:
        return p if p.ndim else float(p)
    pm1 = math.sqrt(2 * m + 3.0) * x * p
    if N == m + 1:
        return pm1 if pm1.ndim else float(pm1)
    for k in range(m + 2, N + 1):
        a = math.sqrt((2 * k - 1.0) * (2 * k + 1.0) / ((k - m) * (k + m)))
        b = math.sqrt((2 * k + 1.0) * (k - m - 1.0) * (k + m - 1.0)
                      / ((2 * k - 3.0) * (k - m) * (k + m)))
        p, pm1 = pm1, a * x * pm1 - b * p
    return pm1 if pm1.ndim else float(pm1)


def gegenbauer(N: int, alpha: float, x):
    """Gegenbauer C_N^alpha(x) by the three-term recurrence."""
    if N < 0:
        raise ValidationError("degree must be >= 0")
    x = np.asarray(x, dtype=float)
    c0 = np.ones_like(x)
    if N == 0:
        return c0 if c0.ndim else float(c0)
    c1 = 2.0 * alpha * x
    for k in range(2, N + 1):
        c0, c1 = c1, (2.0 * x * (k + alpha - 1.0) * c1 - (k + 2.0 * alpha - 2.0) * c0) / k
    return c1 if c1.ndim else float(c1)


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
# Sphere plane-wave integral (both sides of the Bessel identity)
# --------------------------------------------------------------------------

def sphere_volume(q: int) -> float:
    """Volume of the unit sphere S^q in R^{q+1}; Vol(S^0) = 2."""
    if q < 0:
        raise ValidationError("sphere dimension must be >= 0")
    return 2.0 * pi ** ((q + 1) / 2.0) / math.exp(lgamma((q + 1) / 2.0))


def sphere_plane_wave_integral(n: int, r: float):
    """Both sides of int_{S^{n-1}} exp(2 pi i r <xi, w>) dS(w), |xi| = 1.

    Returns (direct, bessel): the direct quadrature of the sphere integral
    (reduced to the polar angle, measure factor sin^{n-2}) and the closed
    form (2 pi)^{n/2} (2 pi r)^{-(n-2)/2} J_{(n-2)/2}(2 pi r).  Both are
    real by symmetry.
    """
    if n < 2:
        raise ValidationError("ambient dimension must be >= 2")
    if r < 0:
        raise ValidationError("radius must be >= 0")
    z = 2.0 * pi * r
    tt, ww = oscillatory_quadrature(0.0, pi, z * pi, order=14)
    integrand = np.cos(z * np.cos(tt)) * np.sin(tt) ** (n - 2)
    direct = sphere_volume(n - 2) * float(integrand @ ww)
    nu = (n - 2) / 2.0
    bessel = (2.0 * pi) ** (n / 2.0) * bessel_j_scaled(nu, z)
    return direct, bessel


# --------------------------------------------------------------------------
# Regularized (u(s) +- i0)^(-alpha) pairings
# --------------------------------------------------------------------------

DEFAULT_DAMPING_SCHEDULE = tuple(2.0 ** (-k) for k in range(4, 15))


@dataclass(frozen=True)
class RegularizedPower:
    """The distribution (s +- i0)^(-alpha) with its i0 damping schedule."""

    alpha: float
    schedule: tuple = DEFAULT_DAMPING_SCHEDULE

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValidationError("exponent alpha must be > 0")
        sched = tuple(self.schedule)
        if len(sched) < 4:
            raise ValidationError("damping schedule needs >= 4 steps")
        if any(e <= 0 for e in sched):
            raise ValidationError("damping schedule must be positive")
        if not all(b < a for a, b in zip(sched, sched[1:])):
            raise ValidationError("damping schedule must be strictly decreasing")


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
    """
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ValidationError("empty support interval")
    if sign not in (+1, -1):
        raise ValidationError("sign must be +1 or -1")
    u = base if base is not None else (lambda s: s)
    zeros = _find_zeros(u, lo, hi)
    rule_order = 24
    vals = []
    for eps in reg.schedule:
        bks = _graded_breakpoints(lo, hi, zeros, eps)
        x, w = composite_gauss_legendre(bks, order=rule_order)
        fx = np.asarray(f(x), dtype=complex)
        ux = np.asarray(u(x), dtype=complex)
        integrand = fx * np.exp(-reg.alpha * np.log(ux + 1j * sign * eps))
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


def halfline_power_gamma_rhs(beta: float, sigma: float) -> complex:
    """i exp(i beta pi/2) Gamma(beta+1) (sigma + i0)^(-beta-1) for sigma > 0."""
    if sigma <= 0:
        raise ValidationError("sigma must be > 0")
    return 1j * np.exp(1j * beta * pi / 2.0) * math.exp(lgamma(beta + 1.0)) \
        * sigma ** (-beta - 1.0)


def fourier_halfline_power(beta: float, sigma: float,
                           schedule=tuple(2.0 ** (-k) for k in range(4, 11))) -> complex:
    """lim_{eps->0+} int_0^inf exp(i t sigma) t^beta exp(-eps t) dt by quadrature.

    Damped oscillatory quadrature on each schedule step, then Richardson
    extrapolation.  The endpoint algebraic singularity t^beta is removed by
    the substitution t = v^4 on [0, 1].
    """
    if beta <= -1:
        raise ValidationError("need beta > -1")
    if sigma <= 0:
        raise ValidationError("sigma must be > 0")
    vals = []
    for eps in schedule:
        T = 45.0 / eps
        # [0, 1] with t = v^4
        v, wv = composite_gauss_legendre(
            np.linspace(0.0, 1.0, int(math.ceil(sigma / 3.0)) + 6), order=16)
        t0 = v ** 4
        g0 = np.exp((1j * sigma - eps) * t0) * v ** (4.0 * beta + 3.0) * 4.0 * wv
        # [1, T] oscillation-adapted
        t1, w1 = oscillatory_quadrature(1.0, T, sigma * (T - 1.0), order=12)
        g1 = np.exp((1j * sigma - eps) * t1) * t1 ** beta * w1
        vals.append(complex(np.sum(g0) + np.sum(g1)))
    vals = np.array(vals)
    r1 = 2.0 * vals[1:] - vals[:-1]
    r2 = (4.0 * r1[1:] - r1[:-1]) / 3.0
    return complex(r2[-1])
