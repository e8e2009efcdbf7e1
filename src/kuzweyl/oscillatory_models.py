"""Standalone oscillatory-integral numerics.

Contents: the double-Bessel integral over a product of spheres and its
product closed form; the model blow-down oscillatory integral over
B_1(R^{n-1}) x R^d with phase sum y_j x_j - (1/2) y_d |x|^2 and its scaling
law, and its leading stationary-phase term for windows supported away from
0; a nondegenerate stationary-phase engine; the Hadamard transport
recursion on round spheres, by exact power series in r^2/pi^2 up to the
supported radius SPHERE_R_MAX = 3.1; and the exact sphere wave kernel.

Normalization conventions pinned numerically by the oracles in the tests:

  * plane-wave sphere factor: int_{S^{q-1}} e^{i<x, w>} dS(w)
      = (2 pi)^{q/2} |x|^{-(q-2)/2} J_{(q-2)/2}(|x|), and the degenerate
      q = 1 factor is the two-point sum 2 cos|x|;
  * sphere wave kernel for the degree operator (eigenvalue N on degree-N
    harmonics), z = e^{it}, Im t > 0:
      U(t, r) = (1 - z^2) / Vol(S^n) * [(1 - z e^{ir})(1 - z e^{-ir})]^{-(n+1)/2}
    with principal-branch factor logs (this is the exactly normalized form
    of the classical closed expression; it reproduces the zonal mode sum).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from math import pi
from typing import Callable, Optional

import numpy as np

from .errors import AccuracyError, ValidationError
from .kuznecov import _bump, _window_of
from .model_spectra import _run_positions
from .special_functions import (
    composite_gauss_legendre,
    gauss_legendre,
    sphere_volume,
)

__all__ = [
    "DoubleBesselResult",
    "double_bessel",
    "ModelCutoff",
    "ModelIntegralResult",
    "model_integral",
    "model_integral_leading",
    "CriticalPoint",
    "PhaseProblem",
    "stationary_phase_leading",
    "RadialMetric",
    "HadamardCoefficients",
    "hadamard_transport",
    "sphere_wave_kernel",
    "sphere_zonal_sum",
]


# --------------------------------------------------------------------------
# double-Bessel integral
# --------------------------------------------------------------------------

_DOUBLE_BESSEL_WARN = 500.0
# read-only polar rules (cos t, sin t, w) by panel count; maxsize in panels (1.4 MB)
_POLAR_RULES, _POLAR_MAXSIZE = {}, 4096


@dataclass(frozen=True)
class DoubleBesselResult:
    closed_form: Optional[complex]
    quadrature: complex


def _plane_wave_factor_quadrature(q: int, z: float, psi_hat=None,
                                  r: float = None, conj: bool = False):
    """int_{S^{q-1}} w(r cos theta) e^{+- i z cos theta} dS by polar reduction."""
    sgn = -1.0 if conj else 1.0
    if q == 1:
        if psi_hat is None:
            return 2.0 * math.cos(z)
        return (complex(psi_hat(np.array([r]))[0]) * np.exp(sgn * 1j * z)
                + complex(psi_hat(np.array([-r]))[0]) * np.exp(-sgn * 1j * z))
    # windows may be merely piecewise-smooth (triangle kinks), so the
    # windowed path carries a denser panel baseline
    min_panels = 4 if psi_hat is None else 64
    panels = max(min_panels, math.ceil(1.5 * abs(z)) + 2)  # ~3 per cycle
    rule = _POLAR_RULES.get(panels)
    if rule is None:
        t, w = composite_gauss_legendre(np.linspace(0.0, pi, panels + 1), order=14)
        rule = np.stack([np.cos(t), np.sin(t), w])
        rule.flags.writeable = False
        if panels <= _POLAR_MAXSIZE:
            if panels + sum(_POLAR_RULES) > _POLAR_MAXSIZE:
                _POLAR_RULES.clear()
            _POLAR_RULES[panels] = rule
    ct, st, ww = rule
    amp = st ** (q - 2)
    if psi_hat is not None:
        amp = amp * psi_hat(r * ct)
    val = np.sum(ww * amp * np.exp(sgn * 1j * z * ct))
    return sphere_volume(q - 2) * complex(val)


# elements per transient block of the batched kernels (2 MB of float64)
_CHUNK = 1 << 18


@functools.lru_cache(maxsize=64)  # P_q's nodes and weights below: lambda-free
def _poisson_rule(q: int, nodes: int):
    if q % 2 == 0:
        t = 0.5 * pi * (np.arange(nodes) + 0.5) / nodes
        x, w = np.cos(t), np.sin(t) ** (q - 2) * (0.5 * pi / nodes)
    else:
        x, w = composite_gauss_legendre([0.0, 1.0], order=nodes)
        w = w * (1.0 - x * x) ** ((q - 3) // 2)
    rule = np.stack([x, 2.0 * sphere_volume(q - 2) * w])
    rule.flags.writeable = False
    return rule


def _plane_wave_factor_closed(q: int, z):
    """int_{S^{q-1}} e^{i<x, w>} dS(w) at |x| = z, elementwise over z.

    q = 1 and q = 3 are the closed forms 2 cos z and 4 pi sinc z.  Every
    other q takes the Poisson integral

        P_q(z) = 2 |S^{q-2}| int_0^{pi/2} cos(z cos t) sin^{q-2} t dt

    with M >= max z / 2 + 24 + q nodes, M a multiple of 8.  For even q the
    integrand is even and pi-periodic, so the M-node midpoint rule errs only
    by aliased Bessel terms of order >= 4M - q > 2z + 96, below rounding.
    For odd q, x = cos t leaves cos(zx) (1 - x^2)^{(q-3)/2} on [0, 1], whose
    polynomial weight one M-node Gauss-Legendre rule absorbs.
    """
    z = np.abs(np.asarray(z, dtype=float))
    if q == 1:
        return 2.0 * np.cos(z)
    if q == 3:
        return 4.0 * pi * np.sinc(z / pi)
    flat = z.ravel()
    nodes = 8 * math.ceil((0.5 * flat.max(initial=0.0) + 24 + q) / 8)
    x, w = _poisson_rule(q, nodes)
    out = np.empty_like(flat)
    step = max(1, _CHUNK // nodes)
    for i in range(0, len(flat), step):
        out[i:i + step] = np.cos(np.outer(flat[i:i + step], x)) @ w
    return out.reshape(z.shape)


def double_bessel(n: int, d: int, lam: float, r: float,
                  psi_hat=None) -> DoubleBesselResult:
    """The double-sphere integral
    int_{S^{n-1}} int_{S^{d-1}} psi_hat(<y, w~>) e^{i lam <y, proj w - w~>} dS dS
    at |y| = r, both by the product closed form (psi_hat = 1 only) and by
    direct quadrature of the factored sphere integrals.

    The d = 1 factor is the two-point sum 2 cos(lam r).
    """
    if not (1 <= d < n):
        raise ValidationError("need 1 <= d < n")
    if r <= 0:
        raise ValidationError("need |y| > 0")
    z = lam * r
    if z > _DOUBLE_BESSEL_WARN:
        warnings.warn(f"lambda*r = {z:.3g} beyond the resolution guard "
                      f"{_DOUBLE_BESSEL_WARN}; quadrature may be under-resolved")
    quad = (_plane_wave_factor_quadrature(n, z)
            * _plane_wave_factor_quadrature(d, z, psi_hat=psi_hat, r=r,
                                            conj=True))
    closed = None
    if psi_hat is None:
        closed = complex(_plane_wave_factor_closed(n, z)
                         * _plane_wave_factor_closed(d, z))
    return DoubleBesselResult(closed_form=closed, quadrature=complex(quad))


# --------------------------------------------------------------------------
# model blow-down integral
# --------------------------------------------------------------------------

def _smooth_plateau(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a = np.zeros_like(t)
    pos = t > 0
    a[pos] = np.exp(-1.0 / t[pos])
    b = np.zeros_like(t)
    neg = t < 1
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b)


@dataclass(frozen=True)
class ModelCutoff:
    """Product cutoff on the y-variables, supported in the unit ball of R^d
    (per-coordinate half-width 0.98/sqrt(d)).

    taper='plateau' is identically 1 on [-p, p] (so windows supported inside
    the plateau pass through unchanged); taper='bump' is the standard
    non-flat mollifier with curvature at 0 (its stationary-phase corrections
    are genuinely O(1/lambda), used by the error-order probes).
    """

    d: int
    width: float = None
    plateau: float = None
    taper: str = "plateau"
    width_tangent: float = None

    def __post_init__(self):
        if not self.d >= 1:
            raise ValidationError(f"need cutoff dimension d >= 1, got {self.d}")
        w = self.width if self.width is not None else 0.98 / math.sqrt(self.d)
        p = self.plateau if self.plateau is not None else 0.5 * w
        wt = self.width_tangent if self.width_tangent is not None else w
        if self.taper not in ("plateau", "bump"):
            raise ValidationError(f"unknown taper {self.taper!r}")
        if not 0 < p < w:
            raise ValidationError("need 0 < plateau < width")
        if not 0 < wt:
            raise ValidationError("need width_tangent > 0")
        if math.sqrt(w * w + (self.d - 1) * wt * wt) > 1.0:
            raise ValidationError("cutoff support leaves the unit ball")
        object.__setattr__(self, "width", w)
        object.__setattr__(self, "plateau", p)
        object.__setattr__(self, "width_tangent", wt)

    def profile(self, s, w: float = None):
        """C-infinity 1-D factor supported in [-w, w], peak value 1."""
        w = self.width if w is None else w
        s = np.abs(np.asarray(s, dtype=float))
        if self.taper == "bump":
            return _bump(s / w)
        p = self.plateau * (w / self.width)
        return _smooth_plateau((w - s) / (w - p))

    def tangent_profile(self, s):
        """The y'-coordinate factor (possibly narrower than the y_d one)."""
        return self.profile(s, w=self.width_tangent)


@dataclass(frozen=True)
class ModelIntegralResult:
    """The fine pass's value, the relative coarse-to-fine difference
    `achieved` (the coarse pass's error estimate, a conservative bound for
    `value`), and the fine pass's number of radial panels."""

    value: complex
    achieved: float
    panels: int


def _graded_phase_breakpoints(lam: float, phase_scale: float, refine: float):
    """Breakpoints on [0, 1]: dyadic grading at 0 (resolving the 1/lam core)
    plus subdivision keeping the quadratic phase change per panel bounded."""
    # x0 = m 2^e with m in [1/2, 1), so x0 2^k < 1 exactly for k <= -e
    x0 = 0.5 / max(lam, 2.0)
    pts = np.r_[0.0, np.ldexp(x0, np.arange(1 - math.frexp(x0)[1])), 1.0]
    a, b = pts[:-1], pts[1:]
    dphase = 0.5 * lam * phase_scale * (b * b - a * a)
    sub = np.maximum(1, np.ceil(refine * dphase / (2.0 * pi)).astype(np.int64))
    # a + pos (b - a) / sub is np.linspace(a, b, sub + 1)[:-1] bit for bit
    return np.r_[np.repeat(a, sub)
                 + _run_positions(sub) * np.repeat((b - a) / sub, sub), 1.0]


def _fourier_on_panels(f: Callable, smax: float, half_panels: int, u):
    """int f(s) e^{-ius} ds over [-smax, smax] for an array of u, by the
    order-12 Gauss-Legendre rule on 2 half_panels equal panels of width h
    (s = 0 a boundary: windows may kink there).  The nodes s = +-c_p + (h/2) x_k,
    c_p > 0, factor it as sum_k e^{-iu h x_k/2} [cos(u c) Fe - i sin(u c) Fo]_uk,
    Fe, Fo the sum and difference of the weighted (panel, node) samples at +-c_p;
    cos(u c) and sin(u c) are formed in row blocks of at most _CHUNK entries."""
    h = smax / half_panels
    rule = gauss_legendre(12)
    c = h * (np.arange(half_panels) + 0.5)
    s = np.stack([c, -c])[:, :, None] + 0.5 * h * rule.nodes
    F = f(s.ravel()).reshape(s.shape) * (0.5 * h * rule.weights)
    Fe, Fo = F[0] + F[1], F[0] - F[1]
    u = np.atleast_1d(np.asarray(u, dtype=float))
    EF = np.empty((len(u), len(rule.nodes)), dtype=complex)
    step = max(1, _CHUNK // len(c))
    for i in range(0, len(u), step):
        uc = np.outer(u[i:i + step], c)
        EF[i:i + step] = np.cos(uc) @ Fe - 1j * (np.sin(uc) @ Fo)
    return np.sum(EF * np.exp(-0.5j * h * np.outer(u, rule.nodes)), axis=1)


def _model_integral_once(n: int, d: int, lam: float, cutoff: ModelCutoff,
                         psi_hat: Callable, a_supp: float, refine: float):
    """One quadrature pass of int_0^1 rho^{n-2} G(lam rho^2 / 2) K(lam rho)
    d rho; returns the value and its number of rho-panels."""
    # G(u) = int c(s) psi_hat(s) e^{-ius} ds for u up to lam/2
    smax = min(cutoff.width, a_supp)
    half_panels = max(int(16 * refine),
                      int(math.ceil(1.5 * (0.5 * lam * smax) / (2.0 * pi))) + 1)
    bks = _graded_phase_breakpoints(lam, cutoff.width, refine)
    wt = cutoff.width_tangent
    if d == 2:
        # K(lam rho) oscillates at frequency lam * wt in rho
        bks = np.union1d(bks, np.linspace(
            0.0, 1.0, int(math.ceil(refine * lam * wt / (2.0 * pi))) + 1))
    rho, w_rho = composite_gauss_legendre(bks, order=12)
    if d == 1:
        # x'' has n - 1 coordinates and the phase depends on its radius only:
        # K is the area of S^{n-2} (the two-point sum when n = 2)
        K = sphere_volume(n - 2)
    else:
        # polar coordinates on the ball of (x_1, x'') in R^{n-1}: chat(lam x_1)
        # averages over the sphere |x| = rho to K(lam rho), and c is even:
        # K(t) = 2 int_0^wt c(y) P_{n-1}(t y) dy
        y, w_y = composite_gauss_legendre(
            np.linspace(0.0, wt, int(6 * refine) + 3), order=12)
        K = (_plane_wave_factor_closed(n - 1, lam * np.outer(rho, y))
             @ (2.0 * cutoff.tangent_profile(y) * w_y))
    G = _fourier_on_panels(lambda s: cutoff.profile(s) * psi_hat(s),
                           smax, half_panels, 0.5 * lam * rho * rho)
    return complex(np.sum(w_rho * G * K * rho ** (n - 2))), len(bks) - 1


def _model_cutoff(n: int, d: int, lam: float, cutoff) -> ModelCutoff:
    """The model integral's argument checks; the cutoff, ModelCutoff(d=d)
    by default."""
    if d < 1 or n <= d:
        raise ValidationError("need 1 <= d < n")
    if d > 2:
        raise ValidationError("model integral implemented for d <= 2 "
                              "(desk-scale dimension cap)")
    if lam <= 0:
        raise ValidationError("need lambda > 0")
    cutoff = cutoff if cutoff is not None else ModelCutoff(d=d)
    if cutoff.d != d:
        raise ValidationError(f"cutoff built for d = {cutoff.d}, not d = {d}")
    return cutoff


def model_integral(n: int, d: int, lam: float, cutoff: ModelCutoff = None,
                   window=None, rel_tol: float = 1e-6) -> ModelIntegralResult:
    """The model oscillatory integral over B_1(R^{n-1}) x R^d with phase
    sum_{j<d} y_j x_j - (1/2) y_d (|x'|^2 + |x''|^2), cutoff on y, window
    psi_hat on y_d.

    The y-integrals have linear phase and are done first, as exact 1-D
    Fourier transforms: y_d gives G(lam |x|^2 / 2) with
    G(u) = int c(s) psi_hat(s) e^{-ius} ds, and for d = 2 y_1 gives
    chat(lam x_1).  G runs on equal s-panels (s = 0 a boundary, where
    windows may kink) factored per panel and folded by the panels' symmetry:
    a cos and a sin per (u, panel pair), two real matmuls, one complex exp
    per (u, node), in row blocks of bounded size.  The x-integral has a
    radial phase, and for both d it is one rule in rho = |x|:

        int_0^1 rho^{n-2} G(lam rho^2 / 2) K(lam rho) d rho.

    For d = 1 the phase depends on R = |x''| only and K = |S^{n-2}|.  For
    d = 2 the rule runs in polar coordinates on the ball of (x_1, x'') in
    R^m, m = n - 1: chat(lam x_1) averages over the sphere |x| = rho to
    K(lam rho) = int c(y) P_m(lam rho y) dy, with the plane-wave sphere
    factor P_m(z) = int_{S^{m-1}} e^{i z w_1} dS(w) in closed form.  The
    radial panels are graded at the 1/lam core, bound the quadratic phase
    change per panel, and for d = 2 also resolve K's linear phase.

    The integral is computed twice, at refine 1.0 (coarse) and 1.6 (fine),
    and the fine value is returned.  `achieved` = |fine - coarse| / |fine|
    estimates the coarse pass's error, so it is a conservative bound for
    the returned value; AccuracyError is raised when it exceeds rel_tol.
    `panels` counts the fine pass's radial panels.
    """
    cutoff = _model_cutoff(n, d, lam, cutoff)
    if window is None:
        psi_hat = lambda s: np.ones_like(np.asarray(s, dtype=float))
        a_supp = cutoff.width
    else:
        win = _window_of(window)
        psi_hat = win.psi_hat
        a_supp = max(abs(win.support[0]), abs(win.support[1]))
    coarse, _ = _model_integral_once(n, d, lam, cutoff, psi_hat, a_supp, 1.0)
    fine, panels = _model_integral_once(n, d, lam, cutoff, psi_hat, a_supp, 1.6)
    achieved = abs(fine - coarse) / max(abs(fine), 1e-300)
    if achieved > rel_tol:
        raise AccuracyError(
            f"model integral accuracy {achieved:.2e} misses target {rel_tol:.2e}",
            achieved=achieved)
    return ModelIntegralResult(value=complex(fine), achieved=float(achieved),
                               panels=panels)


def model_integral_leading(n: int, d: int, lam: float,
                           cutoff: ModelCutoff = None, window=None) -> complex:
    """model_integral's leading stationary-phase term for a window psi_hat
    supported in (0, inf), alpha = (n - d)/2:
    (2 pi/lam)^{d-1+alpha} e^{-i pi alpha/2} int c(s) psi_hat(s) s^{-alpha} ds.
    The (y', x') Hessian block [[0, I], [I, -y_d I]] has |det| 1 and
    signature 0.  The moment takes 64 equal order-12 Gauss-Legendre panels
    on the support; for bump windows they match 256 order-20 panels to
    rounding, and each halving of the panel count costs about 3 digits."""
    cutoff = _model_cutoff(n, d, lam, cutoff)
    win = _window_of(window)
    lo, hi = win.support
    if not 0 < lo < hi < math.inf:
        raise ValidationError("need a window supported in (0, inf)")
    alpha = 0.5 * (n - d)
    s, w = composite_gauss_legendre(np.linspace(lo, hi, 65), order=12)
    moment = np.sum(w * cutoff.profile(s) * win.psi_hat(s) * s ** -alpha)
    return complex((2.0 * pi / lam) ** (d - 1 + alpha)
                   * np.exp(-0.5j * pi * alpha) * moment)


# --------------------------------------------------------------------------
# stationary phase
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPoint:
    point: np.ndarray
    hessian: np.ndarray

    @property
    def determinant(self) -> float:
        return float(np.linalg.det(self.hessian))

    @property
    def signature(self) -> int:
        eig = np.linalg.eigvalsh(0.5 * (self.hessian + self.hessian.T))
        return int(np.sum(eig > 0) - np.sum(eig < 0))


@dataclass(frozen=True)
class PhaseProblem:
    """Oscillatory integral int a(x) e^{i lam S(x)} dx with listed
    nondegenerate critical points.  phase/amplitude must accept arrays of
    shape (..., dimension).  A single point is evaluated as a
    (1, dimension) batch, and a value of shape () or (1,) is accepted
    there."""

    dimension: int
    phase: Callable
    amplitude: Callable
    critical_points: tuple


def _at_point(f: Callable, x: np.ndarray):
    """Value of a PhaseProblem callable at one point, taken as a
    (1, dimension) batch."""
    out = np.asarray(f(np.asarray(x, dtype=float).reshape(1, -1)))
    if out.size != 1:
        raise ValidationError(
            f"callable returned shape {out.shape} for a single point; "
            "expected () or (1,)")
    return out.reshape(-1)[0]


def _fd_gradient(f: Callable, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    dim = len(x)
    grad = np.zeros(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        g_h = (f(x + h * e) - f(x - h * e)) / (2 * h)
        g_h2 = (f(x + 0.5 * h * e) - f(x - 0.5 * h * e)) / h
        grad[i] = (4.0 * g_h2 - g_h) / 3.0
    return grad


def _validate_problem(problem: PhaseProblem) -> None:
    for cp in problem.critical_points:
        x0 = np.asarray(cp.point, dtype=float)
        if len(x0) != problem.dimension:
            raise ValidationError("critical point dimension mismatch")
        grad = _fd_gradient(lambda p: float(_at_point(problem.phase, p)), x0)
        s0 = float(_at_point(problem.phase, x0))
        if np.linalg.norm(grad) > 1e-10 * (1.0 + abs(s0)):
            raise ValidationError(
                f"listed point {x0.tolist()} is not critical "
                f"(|grad| = {np.linalg.norm(grad):.2e})")
        if abs(cp.determinant) < 1e-12:
            raise ValidationError("degenerate Hessian at listed critical point")


def stationary_phase_leading(problem: PhaseProblem, lam: float) -> complex:
    """Leading term sum over critical points of
    (2 pi / lam)^{dim/2} |det H|^{-1/2} e^{i pi sgn(H)/4} e^{i lam S(x0)} a(x0)."""
    _validate_problem(problem)
    total = 0j
    for cp in problem.critical_points:
        x0 = np.asarray(cp.point, dtype=float)
        s0 = float(_at_point(problem.phase, x0))
        a0 = complex(_at_point(problem.amplitude, x0))
        total += ((2.0 * pi / lam) ** (problem.dimension / 2.0)
                  * abs(cp.determinant) ** -0.5
                  * np.exp(1j * pi * cp.signature / 4.0)
                  * np.exp(1j * lam * s0) * a0)
    return complex(total)


# --------------------------------------------------------------------------
# Hadamard transport
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialMetric:
    """Round sphere of dimension n or flat R^n, as seen along a radial geodesic."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in ("sphere", "flat"):
            raise ValidationError(f"unknown metric kind {self.kind!r}")
        if self.dim < 2:
            raise ValidationError("metric dimension must be >= 2")

    @classmethod
    def parse(cls, text: str) -> "RadialMetric":
        kind, _, dim = text.partition(":")
        if not dim.isdecimal():
            raise ValidationError(f"bad metric spec {text!r} (want 'sphere:3')")
        return cls(kind=kind, dim=int(dim))


# Largest radius hadamard_transport accepts on a sphere.  Every W_j is even
# and analytic in r up to the conjugate point pi, so its series in x =
# r^2/pi^2 (zeta(2k) coefficients, growing polynomially in k) converge for
# x < 1.  K terms with x_max^K <= e^-60 leave a tail far below rounding;
# K = ceil(60 / -ln x_max) + 16: 944 terms at pi - 0.1, 2,267 at this radius.
SPHERE_R_MAX = 3.1


def _zeta_even(K: int) -> np.ndarray:
    """zeta(2k) for k = 1 .. K: m^-2k summed directly for m < 32, plus a
    6-term Euler-Maclaurin tail from m = 32.  For k >= 27, zeta(2k) - 1 <
    2^-53 and zeta(2k) rounds to 1, so only k <= 32 is summed."""
    k = np.arange(1, min(K, 32) + 1)
    s = 2.0 * k
    base = np.ldexp(1.0, -10 * k)  # 32^-s, exact
    tail = base * (32.0 / (s - 1.0) + 0.5)
    rising = s / 32.0  # s (s + 1) ... (s + 2j - 2) / 32^(2j - 1)
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
                           -691 / 2730), start=1):  # Bernoulli B_2j
        tail += b / math.factorial(2 * j) * rising * base
        rising = rising * (s + 2 * j - 1) * (s + 2 * j) / 1024.0
    m2 = np.arange(31.0, 1.0, -1.0) ** -2
    terms = np.cumprod(np.broadcast_to(m2, (len(k), len(m2))), axis=0)
    return np.r_[1.0 + (tail + terms.sum(axis=1)), np.ones(K - len(k))]


def _power_series(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c[:, k] x^k for each row of c: the coefficients, cut into
    giant steps of 32, times x^0 .. x^31 in one matmul, then Horner in
    y = x^32 over the giant steps, in blocks of radii whose
    (row, giant step, radius) table stays within _CHUNK entries."""
    rows, K = c.shape
    giant = -(-K // 32)
    c = np.pad(c, ((0, 0), (0, 32 * giant - K))).reshape(rows * giant, 32)
    out = np.empty((rows, len(x)))
    step = max(1, _CHUNK // (rows * giant))
    for i in range(0, len(x), step):
        xb = x[i:i + step]
        inner = (c @ (xb ** np.arange(32)[:, None])).reshape(rows, giant, -1)
        acc, y = inner[:, -1], xb ** 32
        for g in range(giant - 2, -1, -1):
            acc = acc * y + inner[:, g]
        out[:, i:i + step] = acc
    return out


@dataclass
class HadamardCoefficients:
    """Radial transport amplitudes W_j on a grid, with residual diagnostics.

    W_0 = Theta^{-1/2}; W_{j+1}(r) = Theta^{-1/2}(r) int_0^1 s^j
    Theta^{1/2}(sr) (Delta W_j)(sr) ds, the integrated form of the radial
    transport equations (constant normalization follows the integrated
    identity d/dr[r^{j+1} Theta^{1/2} W_{j+1}] = r^j Theta^{1/2} Delta W_j).
    transport_residuals[j] is the largest defect on the grid of the
    differential form ((j/r) + Theta'/(2 Theta)) W_j + W_j' = Delta W_{j-1}/r
    (no right side for j = 0), with Theta'/Theta = (n-1)(cot r - 1/r) in
    closed form; on the sphere that residual checks the derivative of
    the zeta(2k) series of log(r / sin r) against cot r.
    """

    metric: RadialMetric
    j_max: int
    r_grid: np.ndarray
    W: list
    theta: np.ndarray
    transport_residuals: list


def _sphere_transport(n: int, j_max: int, r: np.ndarray):
    """W_0 .. W_{j_max} of the round S^n on r, and their residuals.

    All series are coefficient arrays in x = r^2/pi^2, from the zeta(2k)
    series l(x) = log(r / sin r) = sum_{k>=1} zeta(2k)/k x^k and
    1/sin^2 r - 1/r^2 = pi^-2 sum_{k>=1} 2 (2k-1) zeta(2k) x^(k-1).
    W_0 = exp(p l), p = (n-1)/2.  The rest is carried by U_j =
    Theta^{1/2} W_j: conjugating Delta by Theta^{1/2} leaves the flat
    radial Laplacian plus a potential,
        Theta^{1/2} Delta (Theta^{-1/2} U) = L U = U'' + (n-1)/r U' + q U,
        q = p^2 - p (p-1) (1/sin^2 r - 1/r^2),
    so U_0 = 1, U_{j+1}(x) = int_0^1 s^j (L U_j)(s^2 x) ds (coefficient k
    divided by 2k + j + 1) and W_j = W_0 U_j.  On S^3 q = 1 and U_j = 1/j!
    exactly.  Transporting W_j itself would form Theta^{1/2} Delta W_j as a
    product of series whose terms outgrow the result by a power of k (k^3
    for W_0 on S^7): that left the W_1 coefficients of S^7 with relative
    errors of 7e-7 for r up to pi - 0.1.
    """
    x = (r / pi) ** 2
    # -ln x_max = 2 ln(pi / r_max), free of underflow at tiny radii
    K = math.ceil(30.0 / math.log(pi / float(r.max()))) + 16
    k = np.arange(K)
    zeta = _zeta_even(K)  # zeta(2i + 2), also coefficient i of dl/dx
    p = 0.5 * (n - 1)
    q = -p * (p - 1) / (pi * pi) * 2.0 * (2 * k + 1) * zeta
    q[0] += p * p
    U = [np.r_[1.0, np.zeros(K - 1)]]
    LU = []
    for j in range(j_max):
        # in x: L U = (4 x U_xx + 2 n U_x) / pi^2 + q U
        lu = np.convolve(q, U[j])[:K]
        lu[:-1] += 2.0 * k[1:] * (2 * k[:-1] + n) * U[j][1:] / (pi * pi)
        LU.append(lu)
        U.append(lu / (2 * k + j + 1))
    rows = ([np.r_[0.0, zeta[:-1] / k[1:]]] + U[1:] + LU + [zeta]
            + [np.r_[k[1:] * u[1:], 0.0] for u in U[1:]])
    vals = _power_series(np.stack(rows), x)
    W0 = np.exp(p * vals[0])
    Uv, LUv = vals[1:j_max + 1], vals[j_max + 1:2 * j_max + 1]
    # d/dr = (2 r / pi^2) d/dx
    dl, *dU = (2.0 * r / (pi * pi)) * vals[2 * j_max + 1:]
    dW0 = p * dl * W0
    half_log_dtheta = p * (1.0 / np.tan(r) - 1.0 / r)
    W = [W0] + [W0 * u for u in Uv]
    residuals = [float(np.max(np.abs(half_log_dtheta * W0 + dW0)))]
    for j in range(j_max):
        dW = dW0 * Uv[j] + W0 * dU[j]
        res = ((half_log_dtheta + (j + 1) / r) * W[j + 1] + dW
               - W0 * LUv[j] / r)
        residuals.append(float(np.max(np.abs(res))))
    return W, residuals


def hadamard_transport(metric, j_max: int, r_grid) -> HadamardCoefficients:
    if isinstance(metric, str):
        metric = RadialMetric.parse(metric)
    if j_max < 0:
        raise ValidationError("j_max must be >= 0")
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size == 0 or not np.all(r_grid > 0):  # NaN fails r > 0
        raise ValidationError("r grid must be nonempty and positive")
    if metric.kind == "sphere" and float(r_grid.max()) > SPHERE_R_MAX:
        raise ValidationError(
            f"need r <= {SPHERE_R_MAX} on the sphere: the transport series "
            "diverge at the conjugate point pi")
    if metric.kind == "flat":
        # Theta = 1: W_0 = 1 and every transported amplitude vanishes exactly
        W = [np.ones_like(r_grid)] + [np.zeros_like(r_grid)
                                      for _ in range(j_max)]
        return HadamardCoefficients(metric=metric, j_max=j_max, r_grid=r_grid,
                                    W=W, theta=np.ones_like(r_grid),
                                    transport_residuals=[0.0] * (j_max + 1))
    if j_max > 3:
        raise ValidationError("transport order capped at j_max <= 3, the "
                              "orders the sphere oracles check")
    W, residuals = _sphere_transport(metric.dim, j_max, r_grid)
    theta = (np.sin(r_grid) / r_grid) ** (metric.dim - 1)
    return HadamardCoefficients(metric=metric, j_max=j_max, r_grid=r_grid,
                                W=W, theta=theta,
                                transport_residuals=residuals)


# --------------------------------------------------------------------------
# exact sphere wave kernel
# --------------------------------------------------------------------------

def sphere_wave_kernel(n: int, t: complex, r):
    """Exact degree-operator propagator kernel on the round S^n at geodesic
    distance r, holomorphic in t on the upper half plane (Im t > 0 required):

        U(t, r) = (1 - z^2)/Vol(S^n) * [(1 - z e^{ir})(1 - z e^{-ir})]^{-(n+1)/2},
        z = e^{it},

    principal branch of each factor log (each factor has positive real part
    for |z| < 1, so the product power is the analytic continuation from
    z = 0 and matches the zonal mode sum exactly).
    """
    t = complex(t)
    if t.imag <= 0:
        raise ValidationError("need Im t > 0 (holomorphic regularization)")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    z = np.exp(1j * t)
    f1 = 1.0 - z * np.exp(1j * r)
    f2 = 1.0 - z * np.exp(-1j * r)
    power = np.exp(-(n + 1) / 2.0 * (np.log(f1) + np.log(f2)))
    out = (1.0 - z * z) / sphere_volume(n) * power
    return complex(out[0]) if scalar else out


def sphere_zonal_sum(n: int, t: complex, r: float, n_terms: int) -> complex:
    """Mode-sum oracle: sum_N e^{iNt} Z_N(cos r) with Z_N the reproducing
    kernel of degree-N harmonics (explicit geometric series for n = 1)."""
    t = complex(t)
    if n == 1:
        N = np.arange(1, n_terms)
        return complex(1.0 / (2.0 * pi)
                       + np.sum(np.exp(1j * N * t) * np.cos(N * r)) / pi)
    # Gegenbauer C_N^a(cos r) for every N by one pass of the recurrence
    a = (n - 1) / 2.0
    x = math.cos(r)
    gegen = np.empty(n_terms)
    c0, c1 = 0.0, 1.0
    for k in range(n_terms):
        gegen[k] = c1
        c0, c1 = c1, (2.0 * x * (k + a) * c1 - (k + 2.0 * a - 1.0) * c0) / (k + 1)
    N = np.arange(n_terms)
    zonal = (2 * N + n - 1) / ((n - 1) * sphere_volume(n)) * gegen
    return complex(np.sum(np.exp(1j * N * t) * zonal))
