"""Standalone oscillatory-integral numerics.

Contents: the double-Bessel integral over a product of spheres and its
product closed form; the model blow-down oscillatory integral over
B_1(R^{n-1}) x R^d with phase sum y_j x_j - (1/2) y_d |x|^2 and its scaling
law; a nondegenerate stationary-phase engine with a brute-quadrature error
probe; the model-phase Hessian block facts; the Hadamard transport
recursion with sphere volume densities; and the exact sphere wave kernel.

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

import math
import warnings
from dataclasses import dataclass, field
from math import pi
from typing import Callable, Optional

import numpy as np

from .errors import AccuracyError, ResourceGuardError, ValidationError
from .kuznecov import FourierWindow, TestFunction, _bump, _smooth_plateau
from .special_functions import (
    bessel_j_scaled,
    composite_gauss_legendre,
    gauss_legendre,
    oscillatory_quadrature,
    sphere_volume,
)

__all__ = [
    "DoubleBesselResult",
    "double_bessel",
    "ModelCutoff",
    "ModelIntegralResult",
    "model_integral",
    "CriticalPoint",
    "PhaseProblem",
    "stationary_phase_leading",
    "brute_oscillatory_integral",
    "stationary_phase_error_probe",
    "ModelHessian",
    "hessian_model",
    "full_model_hessian_rank",
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
    tt, ww = oscillatory_quadrature(0.0, pi, z * pi, order=14,
                                    min_panels=min_panels)
    ct = np.cos(tt)
    amp = np.sin(tt) ** (q - 2)
    if psi_hat is not None:
        amp = amp * psi_hat(r * ct)
    val = np.sum(ww * amp * np.exp(sgn * 1j * z * ct))
    return sphere_volume(q - 2) * complex(val)


def _plane_wave_factor_closed(q: int, z: float) -> float:
    if q == 1:
        return 2.0 * math.cos(z)
    return (2.0 * pi) ** (q / 2.0) * float(bessel_j_scaled((q - 2) / 2.0, z))


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
    value: complex
    achieved: float
    panels: int


def _graded_phase_breakpoints(lam: float, phase_scale: float, refine: float):
    """Breakpoints on [0, 1]: dyadic grading at 0 (resolving the 1/lam core)
    plus subdivision keeping the quadratic phase change per panel bounded."""
    pts = [0.0]
    x = 0.5 / max(lam, 2.0)
    while x < 1.0:
        pts.append(x)
        x *= 2.0
    pts.append(1.0)
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        dphase = 0.5 * lam * phase_scale * (b * b - a * a)
        sub = max(1, int(math.ceil(refine * dphase / (2.0 * pi))))
        out.extend(np.linspace(a, b, sub + 1)[:-1])
    out.append(1.0)
    return np.array(out)


def _fourier_on_support(fvals_nodes, nodes, weights, u):
    """int f(s) e^{-ius} ds for an array of u, from fixed sample nodes."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty(len(u), dtype=complex)
    chunk = 4096
    fw = fvals_nodes * weights
    for i in range(0, len(u), chunk):
        ui = u[i:i + chunk]
        out[i:i + chunk] = np.exp(-1j * np.outer(ui, nodes)) @ fw
    return out


def _model_integral_once(n: int, d: int, lam: float, cutoff: ModelCutoff,
                         psi_hat: Callable, a_supp: float, refine: float) -> complex:
    w = cutoff.width
    # s-nodes for G(u) = int c(s) psi_hat(s) e^{-ius} ds, u up to lam/2
    smax = min(w, a_supp)
    # s = 0 must be a panel boundary (window kinds may kink there)
    half_panels = max(int(16 * refine),
                      int(math.ceil(1.5 * (0.5 * lam * smax) / (2.0 * pi))) + 1)
    s_bks = np.concatenate([np.linspace(-smax, 0.0, half_panels + 1),
                            np.linspace(0.0, smax, half_panels + 1)[1:]])
    s_nodes, s_weights = composite_gauss_legendre(s_bks, order=12)
    g_samples = cutoff.profile(s_nodes) * psi_hat(s_nodes)

    def G(u):
        return _fourier_on_support(g_samples, s_nodes, s_weights, u)

    # the transverse block x'' has n - d coordinates; its radial reduction
    # carries R^{n-d-1} against Vol(S^{n-d-1}) (two-point sum when n-d = 1)
    if d == 1:
        bks = _graded_phase_breakpoints(lam, w, refine)
        R, wR = composite_gauss_legendre(bks, order=12)
        vals = G(0.5 * lam * R * R) * R ** (n - 2)
        return sphere_volume(n - 2) * complex(np.sum(wR * vals))
    if d == 2:
        # y_1 integral gives chat(lam x_1); x_1 graded around 0 at scale 1/lam
        wt = cutoff.width_tangent
        bks1 = _graded_phase_breakpoints(lam, w, refine)
        x1, wx1 = composite_gauss_legendre(bks1, order=12)
        c_nodes, c_weights = composite_gauss_legendre(
            np.linspace(-wt, wt, int(12 * refine) + 5), order=12)
        c_samples = cutoff.tangent_profile(c_nodes)
        chat = _fourier_on_support(c_samples, c_nodes, c_weights, lam * x1)
        total = 0j
        for i in range(len(x1)):
            rmax = math.sqrt(max(0.0, 1.0 - x1[i] * x1[i]))
            if rmax <= 0:
                continue
            bksR = _graded_phase_breakpoints(lam, w, refine) * rmax
            R, wR = composite_gauss_legendre(bksR, order=12)
            u = 0.5 * lam * (x1[i] * x1[i] + R * R)
            inner = np.sum(wR * G(u) * R ** (n - d - 1))
            total += wx1[i] * chat[i] * inner
        # x_1 runs over [-1, 1]; integrand is even in x_1 (chat, G even)
        return sphere_volume(n - d - 1) * 2.0 * complex(total)
    raise ValidationError("model integral implemented for d <= 2 "
                          "(desk-scale dimension cap)")


def model_integral(n: int, d: int, lam: float, cutoff: ModelCutoff = None,
                   window=None, rel_tol: float = 1e-6) -> ModelIntegralResult:
    """The model oscillatory integral over B_1(R^{n-1}) x R^d with phase
    sum_{j<d} y_j x_j - (1/2) y_d (|x'|^2 + |x''|^2), cutoff on y, window
    psi_hat on y_d.

    Evaluated by exact 1-D Fourier transforms of the (linear-phase)
    y-integrals paired with panel quadrature in the x-variables, panel
    count growing like sqrt(lambda) near the core; accuracy is estimated by
    a refined re-run and reported, raising when the relative target is
    missed.
    """
    if d < 1 or n <= d:
        raise ValidationError("need 1 <= d < n")
    if lam <= 0:
        raise ValidationError("need lambda > 0")
    cutoff = cutoff if cutoff is not None else ModelCutoff(d=d)
    if window is None:
        psi_hat = lambda s: np.ones_like(np.asarray(s, dtype=float))
        a_supp = cutoff.width
    elif isinstance(window, TestFunction):
        psi_hat = window.psi_hat
        a_supp = window.a
    elif isinstance(window, FourierWindow):
        psi_hat = window.psi_hat
        a_supp = max(abs(window.support[0]), abs(window.support[1]))
    else:
        raise ValidationError("window must be TestFunction or FourierWindow")
    coarse = _model_integral_once(n, d, lam, cutoff, psi_hat, a_supp, 1.0)
    fine = _model_integral_once(n, d, lam, cutoff, psi_hat, a_supp, 1.6)
    achieved = abs(fine - coarse) / max(abs(fine), 1e-300)
    if achieved > rel_tol:
        raise AccuracyError(
            f"model integral accuracy {achieved:.2e} misses target {rel_tol:.2e}",
            achieved=achieved)
    return ModelIntegralResult(value=complex(fine), achieved=float(achieved),
                               panels=len(_graded_phase_breakpoints(
                                   lam, cutoff.width, 1.6)) - 1)


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


def brute_oscillatory_integral(problem: PhaseProblem, lam: float, box,
                               panels: int = None, order: int = 8) -> complex:
    """Tensor composite Gauss-Legendre quadrature of the full integral over
    the box; desk-scale guard caps the dimension at 3 and lambda at 2000."""
    dim = problem.dimension
    if dim > 3:
        raise ResourceGuardError("brute oracle capped at dimension 3")
    if lam > 2000:
        raise ResourceGuardError("brute oracle capped at lambda <= 2000")
    if panels is None:
        panels = max(16, int(math.ceil(0.7 * lam)))
    axes = []
    for (lo, hi) in box:
        x, w = composite_gauss_legendre(np.linspace(lo, hi, panels + 1),
                                        order=order)
        axes.append((x, w))
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrid = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    wtot = np.ones_like(wgrid[0])
    for wg in wgrid:
        wtot = wtot * wg
    vals = problem.amplitude(pts) * np.exp(1j * lam * problem.phase(pts))
    return complex(np.sum(wtot.ravel() * vals))


def stationary_phase_error_probe(problem: PhaseProblem, box, lams,
                                 panels: int = None) -> dict:
    """Relative error of the leading term against brute quadrature across a
    lambda ladder, with the fitted decay slope (expected near -1)."""
    errs = []
    for lam in lams:
        brute = brute_oscillatory_integral(problem, lam, box, panels=panels)
        lead = stationary_phase_leading(problem, lam)
        errs.append(abs(brute - lead) / abs(lead))
    x = np.log(np.asarray(lams, dtype=float))
    y = np.log(np.asarray(errs, dtype=float))
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, _), *_ = np.linalg.lstsq(design, y, rcond=None)
    return {"lambdas": list(map(float, lams)), "relative_errors": errs,
            "slope": float(slope)}


# --------------------------------------------------------------------------
# model-phase Hessian facts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelHessian:
    """The 2(d-1)-variable Hessian block [[0, I], [I, -y_d I]].

    `det` follows the displayed convention (paired column swap), equal to 1
    for every d and y_d; `signed_det` is the raw determinant (-1)^(d-1).
    The quantity entering stationary phase is |det|^(-1/2) = 1 either way.
    """

    matrix: np.ndarray
    det: float
    signed_det: float
    signature: int
    inverse: np.ndarray


def hessian_model(n: int, d: int, y_d: float) -> ModelHessian:
    k = d - 1
    eye = np.eye(k)
    zero = np.zeros((k, k))
    mat = np.block([[zero, eye], [eye, -y_d * eye]]) if k else np.zeros((0, 0))
    inv = np.block([[y_d * eye, eye], [eye, zero]]) if k else np.zeros((0, 0))
    signed = float(np.linalg.det(mat)) if k else 1.0
    if k:
        eig = np.linalg.eigvalsh(mat)
        signature = int(np.sum(eig > 0) - np.sum(eig < 0))
    else:
        signature = 0
    return ModelHessian(matrix=mat, det=abs(signed), signed_det=signed,
                        signature=signature, inverse=inv)


def full_model_hessian_rank(n: int, d: int, y_d: float):
    """Rank of the full model-phase Hessian in (y, x', x'') at the critical
    point x' = x'' = 0, y' = 0: 2d-2 when y_d = 0, n+d-2 otherwise."""
    dim = n + d - 1  # y (d) + x' (d-1) + x'' (n-d)
    H = np.zeros((dim, dim))
    for j in range(d - 1):
        iy, ix = j, d + j
        H[iy, ix] = H[ix, iy] = 1.0
    for j in range(d - 1):
        ix = d + j
        H[ix, ix] = -y_d
    for j in range(n - d):
        ix = 2 * d - 1 + j
        H[ix, ix] = -y_d
    rank = int(np.linalg.matrix_rank(H, tol=1e-12))
    return H, rank


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
        if not dim:
            raise ValidationError("metric spec must look like 'sphere:3'")
        return cls(kind=kind, dim=int(dim))


def _sinc_ratio(u):
    """sin(r)/r as a function of u = r^2, series-guarded near 0."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    small = u < 1e-4
    us = u[small]
    out[small] = 1.0 - us / 6.0 + us * us / 120.0 - us ** 3 / 5040.0
    ub = u[~small]
    r = np.sqrt(ub)
    out[~small] = np.sin(r) / r
    return out


def _cot_ratio(u):
    """r*cot(r) as a function of u = r^2, series-guarded near 0."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    small = u < 1e-4
    us = u[small]
    out[small] = 1.0 - us / 3.0 - us * us / 45.0 - 2.0 * us ** 3 / 945.0
    ub = u[~small]
    r = np.sqrt(ub)
    out[~small] = r * np.cos(r) / np.sin(r)
    return out


class _ChebBasis:
    """Chebyshev-Lobatto value/coefficient machinery on [0, hi], with
    coefficient filtering to keep spectral differentiation noise-stable."""

    def __init__(self, npts: int, hi: float):
        self.npts = npts
        self.hi = hi
        k = np.arange(npts)
        self.x = np.cos(pi * k / (npts - 1))  # 1 .. -1
        self.v = (self.x + 1.0) * 0.5 * hi
        K = npts - 1
        self._C = np.cos(pi * np.outer(k, k) / K)
        self._wts = np.ones(npts)
        self._wts[0] = self._wts[-1] = 0.5
        self._bw = np.ones(npts) * (-1.0) ** k
        self._bw[0] *= 0.5
        self._bw[-1] *= 0.5

    def to_coef(self, f):
        K = self.npts - 1
        a = (2.0 / K) * (self._C @ (f * self._wts))
        a[0] *= 0.5
        a[-1] *= 0.5
        return a

    def to_vals(self, a):
        return self._C @ a

    def filter(self, f, floor: float):
        a = self.to_coef(f)
        m = float(np.max(np.abs(a)))
        a[np.abs(a) < floor * max(m, 1e-300)] = 0.0
        return self.to_vals(a)

    def derivative(self, f, floor: float):
        """d/dv via the coefficient recurrence, filtered at the noise floor."""
        a = self.to_coef(f)
        m = float(np.max(np.abs(a)))
        a[np.abs(a) < floor * max(m, 1e-300)] = 0.0
        K = self.npts - 1
        b = np.zeros_like(a)
        b[K - 1] = 2.0 * K * a[K]
        for j in range(K - 2, -1, -1):
            b[j] = b[j + 2] + 2.0 * (j + 1) * a[j + 1]
        b[0] *= 0.5
        return self.to_vals(b) * (2.0 / self.hi)

    def eval(self, fvals, vq):
        """Barycentric evaluation at arbitrary points of [0, hi]."""
        xq = 2.0 * np.asarray(vq, dtype=float) / self.hi - 1.0
        num = np.zeros(len(xq))
        den = np.zeros(len(xq))
        exact = np.full(len(xq), -1, dtype=np.int64)
        for j, xj in enumerate(self.x):
            diff = xq - xj
            hit = np.abs(diff) < 1e-15
            exact[hit] = j
            with np.errstate(divide="ignore", invalid="ignore"):
                t = self._bw[j] / diff
            num += np.where(hit, 0.0, t * fvals[j])
            den += np.where(hit, 0.0, t)
        out = num / den
        has = exact >= 0
        out[has] = fvals[exact[has]]
        return out


@dataclass
class HadamardCoefficients:
    """Radial transport amplitudes W_j on a grid, with residual diagnostics.

    W_0 = Theta^{-1/2}; W_{j+1}(r) = Theta^{-1/2}(r) int_0^1 s^j
    Theta^{1/2}(sr) (Delta W_j)(sr) ds, the integrated form of the radial
    transport equations (constant normalization follows the integrated
    identity d/dr[r^{j+1} Theta^{1/2} W_{j+1}] = r^j Theta^{1/2} Delta W_j).
    """

    metric: RadialMetric
    j_max: int
    r_grid: np.ndarray
    W: list
    theta: np.ndarray
    transport_residuals: list


def hadamard_transport(metric, j_max: int, r_grid) -> HadamardCoefficients:
    if isinstance(metric, str):
        metric = RadialMetric.parse(metric)
    if j_max < 0:
        raise ValidationError("j_max must be >= 0")
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid <= 0):
        raise ValidationError("r grid must be positive")
    if metric.kind == "sphere" and float(r_grid.max()) >= pi:
        raise ValidationError("conjugate-point guard: need r < pi on the sphere")
    n = metric.dim
    if metric.kind == "flat":
        # Theta = 1: W_0 = 1 and every transported amplitude vanishes exactly
        W = [np.ones_like(r_grid)] + [np.zeros_like(r_grid)
                                      for _ in range(j_max)]
        return HadamardCoefficients(metric=metric, j_max=j_max, r_grid=r_grid,
                                    W=W, theta=np.ones_like(r_grid),
                                    transport_residuals=[0.0] * (j_max + 1))

    if j_max > 3:
        raise ValidationError("transport order capped at j_max <= 3: repeated "
                              "numerical differentiation is noise-limited "
                              "beyond that at double precision")
    # Sqrt-mapped coordinate u = pi^2 v(2-v) (u = r^2): the conjugate-point
    # pole of Theta^(-1/2) sits at v = 1, well outside the mapped interval,
    # so Chebyshev coefficients decay fast; the representation is padded a
    # little beyond the requested radii to keep endpoint-differentiation
    # noise off the user grid.  Filter floors grow with the transport level
    # (each level inherits the previous quadrature/differentiation noise).
    pi2 = pi * pi
    v_need = 1.0 - math.sqrt(max(0.0, 1.0 - float(r_grid.max()) ** 2 / pi2))
    v_hi = min(0.93, v_need + 0.04)
    basis = _ChebBasis(220, v_hi)
    v = basis.v
    u_nodes = pi2 * v * (2.0 - v)
    dudv = 2.0 * pi2 * (1.0 - v)
    floors = [1e-14, 1e-12, 1e-11, 1e-10]

    def ddu(fvals, floor):
        return basis.derivative(fvals, floor) / dudv

    def lap(Wvals, floor):
        # radial Laplacian on W(r) = V(u), u = r^2:
        # 4u V'' + 2 V' + 2(n-1) rcot(r) V'
        dV = ddu(Wvals, floor)
        d2V = ddu(dV, floor)
        return (4.0 * u_nodes * d2V + 2.0 * dV
                + 2.0 * (n - 1) * _cot_ratio(u_nodes) * dV)

    def v_of_u(uq):
        return 1.0 - np.sqrt(np.maximum(0.0, 1.0 - uq / pi2))

    theta_nodes = _sinc_ratio(u_nodes) ** (n - 1)
    sqrt_theta = np.sqrt(theta_nodes)
    V = [theta_nodes ** -0.5]
    laps = []
    s_nodes, s_weights = composite_gauss_legendre(np.linspace(0, 1, 11),
                                                  order=14)
    for j in range(j_max):
        lapV = lap(V[j], floors[min(j, len(floors) - 1)])
        laps.append(lapV)
        g = sqrt_theta * lapV
        Wnext = np.empty(basis.npts)
        for i, ui in enumerate(u_nodes):
            g_at = basis.eval(g, v_of_u((s_nodes ** 2) * ui))
            Wnext[i] = (theta_nodes[i] ** -0.5
                        * float(np.sum(s_weights * (s_nodes ** j) * g_at)))
        V.append(basis.filter(Wnext, floors[min(j + 1, len(floors) - 1)]))

    # evaluate on the requested grid; residuals check the differential
    # transport identity ((j+1)/r + Theta'/(2 Theta)) W_{j+1} + W_{j+1}'
    # = Delta W_j / r with an independent (spectral) derivative of W_{j+1}
    # and the analytic log-derivative Theta'/Theta = (n-1)(cot r - 1/r)
    uq = r_grid ** 2
    vq = v_of_u(uq)
    theta_q = _sinc_ratio(uq) ** (n - 1)
    log_dtheta = (n - 1) * (_cot_ratio(uq) - 1.0) / r_grid
    Wgrid = [basis.eval(V[j], vq) for j in range(j_max + 1)]
    residuals = []
    res0 = (0.5 * log_dtheta * Wgrid[0]
            + 2.0 * r_grid * basis.eval(ddu(V[0], floors[0]), vq))
    residuals.append(float(np.max(np.abs(res0))))
    for j in range(j_max):
        dWn = ddu(V[j + 1], floors[min(j + 1, len(floors) - 1)])
        res = ((0.5 * log_dtheta + (j + 1) / r_grid) * Wgrid[j + 1]
               + 2.0 * r_grid * basis.eval(dWn, vq)
               - basis.eval(laps[j], vq) / r_grid)
        residuals.append(float(np.max(np.abs(res))))
    return HadamardCoefficients(metric=metric, j_max=j_max, r_grid=r_grid,
                                W=Wgrid, theta=theta_q,
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
    from .special_functions import gegenbauer

    t = complex(t)
    if n == 1:
        total = 1.0 / (2.0 * pi)
        for N in range(1, n_terms):
            total += np.exp(1j * N * t) * math.cos(N * r) / pi
        return complex(total)
    a = (n - 1) / 2.0
    x = math.cos(r)
    total = 0j
    for N in range(n_terms):
        zonal = (2 * N + n - 1) / ((n - 1) * sphere_volume(n)) * gegenbauer(N, a, x)
        total += np.exp(1j * N * t) * zonal
    return complex(total)
