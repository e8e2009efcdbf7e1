"""Test functions and the windowed spectral sums built from coefficient tables.

Windows follow the package Fourier convention (see special_functions):
psi_hat(s) = int psi(x) exp(-isx) dx.  All smooth kinds have nonnegative
psi and compactly supported psi_hat:

  * fejer(a):        psi_hat triangular on [-a, a], psi(x) = (a/2pi) sinc^2(ax/2)
  * bumpsquare(a):   psi = g^2 with ghat a smooth bump on [-a/2, a/2], so
                     psi >= 0 and psi_hat = (ghat * ghat)/2pi lives on [-a, a];
                     both are a-free profiles scaled by a: one g_1 table by
                     one real FFT, and B = bump * bump (see TestFunction)
  * sharp(eps):      psi = indicator of [-eps, eps] (sharp-sharp sums only)

Windows are immutable values; `support` is psi_hat's compact support (the
sharp kind has none and raises).  Sums evaluate the cached double sum
exactly, over a RowTable's rows, one per eigenvalue pair (a per-mode
CoefficientTable is a RowTable); the contribution beyond
mu_k > c*lambda_j + 10a is reported as `tail_fraction` metadata.  No sum
is truncated in mu: a restricted M-mode meets one H-mode, with
mu_k <= lambda_j (so `tail_fraction` is 0 at c = 1), and a table up to
lambda_max holds every term up to lambda_max; a grid beyond it raises
TruncationRiskError.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import warnings
from dataclasses import dataclass, field
from math import pi
from typing import Optional

import numpy as np

from .errors import TailBoundWarning, TruncationRiskError, ValidationError
from .restriction_coeffs import RowTable
from .special_functions import composite_gauss_legendre

__all__ = [
    "TestFunction",
    "FourierWindow",
    "make_test_function",
    "dominating_test_function",
    "SumTable",
    "kuznecov_sum",
    "sharp_sum",
    "averaged_sharp_sum",
    "jump",
    "doubly_smoothed_sum",
    "dual_trace",
    "DualTrace",
]


# --------------------------------------------------------------------------
# test functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierWindow:
    """A bare Fourier-side window: psi_hat callable on a compact support.

    Used by the oscillatory-model and coefficient operations that accept
    windows whose psi_hat is supported away from 0 (not realizable as one
    of the nonnegative TestFunction kinds).
    """

    psi_hat_fn: object
    support: tuple

    def psi_hat(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        lo, hi = self.support
        m = (s > lo) & (s < hi)
        if np.any(m):
            out[m] = self.psi_hat_fn(s[m])
        return out if out.ndim else float(out)

    def descriptor(self) -> dict:
        return {"kind": "window", "support": list(self.support)}


def _window_of(psi):
    """psi, checked to be a window (the sharp kind's `support` raises)."""
    if isinstance(psi, (TestFunction, FourierWindow)):
        return psi
    raise ValidationError("psi must be a TestFunction or FourierWindow")


def _bump(u):
    """Smooth bump exp(1 - 1/(1 - u^2)) on |u| < 1, zero outside, peak 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - u[m] ** 2))
    return out


_G1_PER_Y = 1024  # bump-square g_1 grid points per unit y
_G1_TAIL = 1024.0  # |g_1(y)| < 1e-16 beyond (1.1e-16 at 1000, 2e-17 at 1100)
_G1_FFT = 10 << 17  # period P = 1280 in y, kept below P - _G1_TAIL = 256
_EVAL_BLOCK = 1 << 15  # psi arguments interpolated per block
_PRODUCT_BLOCK = 1 << 18  # grid x eigenspace kernel values per block


@functools.lru_cache(maxsize=1)
def _g1_table() -> np.ndarray:
    """g_1 on y_k = k/_G1_PER_Y for y < 256 (see TestFunction); read-only,
    shared by every bump-square window."""
    du = 2.0 * pi * _G1_PER_Y / _G1_FFT
    # irfft pads the bump samples on [0, 1] with zeros up to _G1_FFT/2 + 1
    g1 = np.fft.irfft(_bump(np.arange(int(1.0 / du) + 1) * du), _G1_FFT)
    table = _G1_PER_Y * g1[:_G1_FFT - int(_G1_TAIL * _G1_PER_Y)]
    table.flags.writeable = False
    return table


def shifted_bump_window(lo: float, hi: float) -> FourierWindow:
    """Smooth bump supported in (lo, hi), peak 1 at the midpoint."""
    if not lo < hi:
        raise ValidationError("empty window")
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def fn(s):
        return _bump((np.asarray(s, dtype=float) - mid) / half)

    return FourierWindow(psi_hat_fn=fn, support=(lo, hi))


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative window psi with compactly supported psi_hat.

    `a` is the support radius of psi_hat for the smooth kinds (a > 0) and
    the half-width eps of the indicator for the sharp kind (a >= 0; a = 0
    counts exact coincidences).  `scale` multiplies psi and psi_hat jointly
    (used by the dominating-function construction).

    Bump-square: two a-free profiles scaled by a, g(x) = (a/2) g_1(a x/2)
    with g_1(y) = (1/2pi) int_{-1}^{1} bump(u) exp(iuy) du, psi = g^2, and
    psi_hat(s) = (a/4pi) B(2s/a), B = bump * bump.  The trapezoid rule on
    u_j = j du is exactly the P-periodised g_1, P = 2pi/du (Poisson
    summation), so one real FFT of length 1024 P gives g_1 on y_k = k/1024
    with alias sum_{p != 0} g_1(y + pP) < 1e-16 on y <= P - _G1_TAIL
    (g_1(0) = 0.19).  P = 1280 keeps y < 256; beyond, |g_1| <= 1.8e-9 and
    psi < 8.6e-17 psi(0) is taken as 0.
    """

    kind: str
    a: float
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fejer", "bumpsquare", "sharp"):
            raise ValidationError(f"unknown test-function kind {self.kind!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.scale)):
            raise ValidationError("a and scale must be finite")
        if self.a < 0 or (self.a == 0 and self.kind != "sharp"):
            raise ValidationError("support radius must be > 0 (>= 0 for sharp)")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "scale", float(self.scale))

    def descriptor(self) -> dict:
        if self.kind == "sharp":
            return {"kind": "sharp", "eps": self.a}
        return {"kind": self.kind, "a": self.a, "scale": self.scale}

    @property
    def support(self) -> tuple:
        """psi_hat's compact support; the indicator's 2 sin(eps s)/s has
        none, so the sharp kind is rejected rather than truncated."""
        if self.kind == "sharp":
            raise ValidationError(
                "the sharp window's psi_hat has no compact support")
        return (-self.a, self.a)

    def _g_eval(self, x: np.ndarray) -> np.ndarray:
        """g(x) = (a/2) g_1(a|x|/2), 0 beyond the g_1 table."""
        grid = _g1_table()
        ax = np.abs(x).ravel()
        out = np.zeros_like(ax)
        # 4-point cubic (Catmull-Rom) interpolation on the uniform grid, in
        # blocks so that the temporaries stay small for large tables; g_1 is
        # even, so node -1 of the stencil is node 1
        for lo in range(0, len(ax), _EVAL_BLOCK):
            t = (0.5 * self.a * _G1_PER_Y) * ax[lo:lo + _EVAL_BLOCK]
            inside = t <= len(grid) - 2
            t = t[inside]
            i1 = np.minimum(t.astype(np.int64), len(grid) - 3)
            f = t - i1
            pm1, p0, p1, p2 = grid[np.abs(i1 - 1)], grid[i1], grid[i1 + 1], grid[i1 + 2]
            out[lo:lo + _EVAL_BLOCK][inside] = (
                p0
                + 0.5 * f * (p1 - pm1)
                + f * f * (pm1 - 2.5 * p0 + 2.0 * p1 - 0.5 * p2)
                + f * f * f * (1.5 * (p0 - p1) + 0.5 * (p2 - pm1))
            )
        return (0.5 * self.a) * out.reshape(np.shape(x))

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if self.kind == "fejer":
            u = self.a * x / 2.0
            s = np.sinc(u / pi)
            out = (self.a / (2.0 * pi)) * s * s
        elif self.kind == "sharp":
            out = (np.abs(x) <= self.a).astype(float)
        else:
            g = self._g_eval(x)
            out = g * g
        out = out * self.scale
        return float(out[0]) if scalar else out

    def psi_hat(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if self.kind == "fejer":
            out = np.maximum(0.0, 1.0 - np.abs(s) / self.a)
        elif self.kind == "sharp":
            out = np.where(s == 0.0, 2.0 * self.a, 2.0 * np.sin(self.a * s)
                           / np.where(s == 0.0, 1.0, s))
        else:
            # (a/4pi) B(t), t = 2|s|/a: the integrand of B = bump * bump is
            # symmetric about v = t/2, so B = 2 int_{t/2}^{1} bump(v)
            # bump(t - v) dv, here by 12 Gauss-Legendre panels of order 16
            out = np.zeros_like(s)
            m = np.abs(s) < self.a
            x, w = composite_gauss_legendre(np.linspace(0.0, 1.0, 13), order=16)
            t = np.abs(2.0 * s[m] / self.a)[:, None]
            v = 0.5 * t + (1.0 - 0.5 * t) * x
            out[m] = ((self.a / (2.0 * pi)) * (1.0 - 0.5 * t[:, 0])
                      * ((_bump(v) * _bump(t - v)) @ w))
        out = out * self.scale
        return float(out[0]) if scalar else out


def make_test_function(kind: str, a: float, scale: float = 1.0) -> TestFunction:
    """Factory for the three window kinds."""
    return TestFunction(kind=kind, a=a, scale=scale)


def dominating_test_function(eps: float, a: float = 1.0) -> TestFunction:
    """A smooth psi >= indicator of [-eps, eps], psi_hat supported in [-a, a].

    Square construction scaled so min over [-eps, eps] is exactly 1; needs
    the first zero of psi beyond eps.
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise ValidationError(f"need a finite eps >= 0, got {eps}")
    m = float(np.min(TestFunction("bumpsquare", a).psi(
        np.linspace(0.0, eps, 512))))
    if m <= 0.0:
        raise ValidationError(
            f"bump-square window with a={a} vanishes inside [-{eps}, {eps}]")
    return TestFunction("bumpsquare", a, scale=1.0 / m)


# --------------------------------------------------------------------------
# sum tables
# --------------------------------------------------------------------------

def _write_csv(path: str, header, rows) -> None:
    """CSV with a header row; floats (numpy's too) at 17 significant
    digits, which round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.17g" % v if isinstance(v, float) else v
                             for v in row])


@dataclass
class SumTable:
    """Values of a windowed spectral sum on a lambda grid, with metadata."""

    pair: dict
    c: float
    test: dict
    rho: Optional[dict]
    lambda_grid: np.ndarray
    values: np.ndarray
    variant: str
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path: str) -> None:
        _write_csv(path, ["lambda", "value"],
                   zip(self.lambda_grid, self.values))

    def sidecar(self) -> dict:
        return {
            "pair": self.pair,
            "c": self.c,
            "test": self.test,
            "rho": self.rho,
            "variant": self.variant,
            "metadata": self.metadata,
        }

    def write(self, csv_path: str) -> None:
        self.to_csv(csv_path)
        with open(csv_path + ".json", "w") as fh:
            json.dump(self.sidecar(), fh, indent=2, sort_keys=True)


def _entry_weights(table: RowTable, c: float, psi: TestFunction):
    lam, mu = table.lam, table.mu
    return lam, mu, psi.psi(c * lam - mu) * table.weight


def _check_grid(table: RowTable, grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) <= 0):
        raise ValidationError("lambda grid must be strictly increasing")
    if grid[0] <= 0:
        raise ValidationError("lambda grid must be positive")
    if grid[-1] > table.lambda_max * (1 + 1e-12):
        raise TruncationRiskError(
            f"grid max {grid[-1]} exceeds cached lambda_max {table.lambda_max}")
    return grid


def _cumulate(lam, w, grid):
    """Running sums of the row weights w, rows in M-frequency order,
    read at each grid point; and their total."""
    csum = np.cumsum(w)
    idx = np.searchsorted(lam, grid * (1 + 1e-15), side="right")
    total = float(csum[-1]) if len(csum) else 0.0
    return np.where(idx > 0, csum[np.maximum(idx - 1, 0)], 0.0), total


def kuznecov_sum(table: RowTable, c: float, psi: TestFunction,
                 lambda_grid) -> SumTable:
    """N^c(lambda) = sum_{lambda_j <= lambda} sum_k psi(c lambda_j - mu_k) |coeff|^2.

    The argument order c*lambda_j - mu_k is fixed; rows are cumulated in
    M-frequency order so the grid values come from one pass.  The variant
    is "sharp-sharp" for the sharp kind, else "smooth-sharp".  Tables hold
    mu_k <= lambda_j, so `tail_fraction` is 0 for every c = 1 sum.
    """
    if not 0.0 <= c <= 1.0:
        raise ValidationError("need 0 <= c <= 1")
    grid = _check_grid(table, lambda_grid)
    lam, mu, w = _entry_weights(table, c, psi)
    vals, total = _cumulate(lam, w, grid)
    tail_mask = mu > c * lam + 10.0 * psi.a
    tail = float(np.sum(np.abs(w[tail_mask]))) if len(w) else 0.0
    meta = {"tail_fraction": tail / total if total > 0 else 0.0}
    variant = "sharp-sharp" if psi.kind == "sharp" else "smooth-sharp"
    return SumTable(pair=table.pair.to_dict(), c=c, test=psi.descriptor(),
                    rho=None, lambda_grid=grid, values=vals, variant=variant,
                    metadata=meta)


def sharp_sum(table: RowTable, c: float, eps: float,
              lambda_grid) -> SumTable:
    """Sharp-sharp variant: indicator window |c lambda_j - mu_k| <= eps
    (eps >= 0, as the sharp TestFunction checks)."""
    return kuznecov_sum(table, c, TestFunction("sharp", a=eps), lambda_grid)


def averaged_sharp_sum(table: RowTable, c: float, eps: float,
                       lambda_grid, jitter: float = 0.1,
                       samples: int = 5) -> SumTable:
    """Mean of sharp sums over eps * (1 +- jitter), damping the jumps the
    sharp window suffers at special eps values; one pass serves every eps."""
    if samples < 1:
        raise ValidationError("need >= 1 sample")
    eps_vals = np.linspace(eps * (1 - jitter), eps * (1 + jitter), samples)
    if eps_vals.min() < 0:
        raise ValidationError("eps must be >= 0")
    if not 0.0 <= c <= 1.0:
        raise ValidationError("need 0 <= c <= 1")
    grid = _check_grid(table, lambda_grid)
    lam, weight = table.lam, table.weight
    dist = np.abs(c * lam - table.mu)
    acc = sum(_cumulate(lam, (dist <= e) * weight, grid)[0] for e in eps_vals)
    # the indicator vanishes beyond mu_k > c lambda_j + eps: no tail
    return SumTable(pair=table.pair.to_dict(), c=c,
                    test={"kind": "sharp-averaged", "eps": eps,
                          "jitter": jitter, "samples": samples},
                    rho=None, lambda_grid=grid, values=acc / samples,
                    variant="sharp-sharp",
                    metadata={"tail_fraction": 0.0,
                              "eps_values": [float(e) for e in eps_vals]})


def _eigenspaces(table: RowTable, psi: TestFunction):
    """The c = 1 row weights summed over each exact eigenspace.

    Rows run in eigenkey order, so each eigenspace is one run of equal
    keys.  Returns the eigenvalues (that of the run's first row) and the
    summed weights.
    """
    lam, mu, w = _entry_weights(table, 1.0, psi)
    keys = table.key
    new_key = np.ones(len(keys), dtype=bool)
    new_key[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new_key)
    return lam[starts], np.add.reduceat(w, starts)


def _as_test_function(window) -> TestFunction:
    return window if isinstance(window, TestFunction) else TestFunction(
        "sharp", a=float(window))


def jump(table: RowTable, window, lambda_j: float) -> float:
    """J^1(lambda_j): the inner sums over the full eigenspace at lambda_j.

    `window` is a TestFunction or a float eps (indicator window).  lambda_j
    selects one exact eigenspace; sums never mix eigenspaces.
    """
    lams, sums = _eigenspaces(table, _as_test_function(window))
    tol = 1e-9 * max(1.0, abs(lambda_j))
    near = np.flatnonzero(np.abs(lams - lambda_j) <= tol)
    if len(near) == 0:
        raise ValidationError(f"{lambda_j} is not an eigenvalue of the slice")
    if len(near) > 1:
        raise ValidationError(
            f"{lambda_j} matches several exact eigenspaces; tighten the value")
    return float(sums[near[0]])


def eigenvalue_jumps(table: RowTable, window, lambda_min: float = 0.0,
                     lambda_max: float = None):
    """All (lambda_j, J(lambda_j)) for distinct eigenvalues in the range."""
    hi = lambda_max if lambda_max is not None else table.lambda_max
    lams, sums = _eigenspaces(table, _as_test_function(window))
    keep = (lams >= lambda_min) & (lams <= hi)
    return lams[keep], sums[keep]


def _grid_product(kernel, grid, lams, weights):
    """sum_e kernel(grid[:, None], lams[None, :]) weights[e], in row blocks of
    at most _PRODUCT_BLOCK kernel values (at least one row)."""
    rows = max(1, _PRODUCT_BLOCK // max(1, len(lams)))
    return np.concatenate([np.zeros(0)] + [
        kernel(grid[i:i + rows, None], lams[None, :]) @ weights
        for i in range(0, len(grid), rows)])


def doubly_smoothed_sum(table: RowTable, psi: TestFunction,
                        rho: TestFunction, lambda_grid) -> SumTable:
    """sum_{j,k} rho(lambda - lambda_j) psi(lambda_j - mu_k) |coeff|^2.

    The j-sum runs over all cached modes, one term per eigenspace; warns
    when the estimated rho mass beyond the cache cutoff exceeds 1e-9 of the
    total.
    """
    if rho.kind not in ("fejer", "bumpsquare"):
        raise ValidationError("rho must be a smooth kind")
    grid = np.asarray(lambda_grid, dtype=float)
    lams, sums = _eigenspaces(table, psi)
    vals = _grid_product(lambda g, l: rho.psi(g - l), grid, lams, sums)
    # rho tail estimate: x^-2 envelope beyond the cache edge times the local
    # modal weight density at the top of the cache
    edge = table.lambda_max
    density = float(np.sum(np.abs(sums[lams > edge - 1.0])))
    gaps = np.maximum(edge - grid, 1e-6)
    tail_est = density * rho.scale * (2.0 / (pi * rho.a)) / gaps
    total = np.abs(vals) + 1e-300
    worst = float(np.max(tail_est / total))
    if worst > 1e-9:
        warnings.warn(f"rho tail beyond cache cutoff may reach {worst:.2g} "
                      "of the total", TailBoundWarning)
    return SumTable(pair=table.pair.to_dict(), c=1.0, test=psi.descriptor(),
                    rho=rho.descriptor(), lambda_grid=grid, values=vals,
                    variant="doubly-smoothed",
                    metadata={"tail_estimate": worst})


@dataclass
class DualTrace:
    """S(t) = sum exp(i t lambda_j) psi(lambda_j - mu_k) |coeff|^2 on a t grid."""

    t_grid: np.ndarray
    values: np.ndarray
    test: dict

    def to_csv(self, path: str) -> None:
        _write_csv(path, ["t", "re", "im", "abs"],
                   ((t, v.real, v.imag, abs(v))
                    for t, v in zip(self.t_grid, self.values)))


def dual_trace(table: RowTable, psi: TestFunction, t_grid) -> DualTrace:
    t_grid = np.asarray(t_grid, dtype=float)
    lams, sums = _eigenspaces(table, psi)
    keep = sums != 0.0
    values = _grid_product(lambda t, l: np.exp(1j * t * l), t_grid,
                           lams[keep], sums[keep])
    return DualTrace(t_grid=t_grid, values=values.astype(complex, copy=False),
                     test=psi.descriptor())
