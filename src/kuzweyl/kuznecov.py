"""Test functions and the windowed spectral sums built from coefficient tables.

Windows follow the package Fourier convention (see special_functions):
psi_hat(s) = int psi(x) exp(-isx) dx.  All smooth kinds have nonnegative
psi and compactly supported psi_hat:

  * fejer(a):        psi_hat triangular on [-a, a], psi(x) = (a/2pi) sinc^2(ax/2)
  * bumpsquare(a):   psi = g^2 with ghat a smooth bump on [-a/2, a/2], so
                     psi >= 0 and psi_hat = (ghat * ghat)/2pi lives on [-a, a]
  * sharp(eps):      psi = indicator of [-eps, eps] (sharp-sharp sums only)

Sums evaluate the cached double sum exactly; the inner sum runs over the
full cached H-spectrum and the contribution beyond mu_k > c*lambda_j + 10a
is reported as `tail_fraction` metadata.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from math import pi
from typing import Optional

import numpy as np

from .errors import TailBoundWarning, TruncationRiskError, ValidationError
from .restriction_coeffs import CoefficientTable
from .special_functions import composite_gauss_legendre, oscillatory_quadrature

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


def _bump(u):
    """Smooth bump exp(1 - 1/(1 - u^2)) on |u| < 1, zero outside, peak 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - u[m] ** 2))
    return out


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


def shifted_bump_window(lo: float, hi: float) -> FourierWindow:
    """Smooth bump supported in (lo, hi), peak 1 at the midpoint."""
    if not lo < hi:
        raise ValidationError("empty window")
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def fn(s):
        return _bump((np.asarray(s, dtype=float) - mid) / half)

    return FourierWindow(psi_hat_fn=fn, support=(lo, hi))


class TestFunction:
    """Nonnegative window psi with compactly supported psi_hat.

    `a` is the support radius of psi_hat for the smooth kinds (a > 0) and
    the half-width eps of the indicator for the sharp kind (a >= 0; a = 0
    counts exact coincidences).  `scale` multiplies psi and psi_hat jointly
    (used by the dominating-function construction).
    """

    GRID_STEP_DIV = 512  # psi-grid step = a / 512 for the bump-square kind

    def __init__(self, kind: str, a: float, scale: float = 1.0):
        if kind not in ("fejer", "bumpsquare", "sharp"):
            raise ValidationError(f"unknown test-function kind {kind!r}")
        if a < 0 or (a == 0 and kind != "sharp"):
            raise ValidationError("support radius must be > 0 (>= 0 for sharp)")
        self.kind = kind
        self.a = float(a)
        self.scale = float(scale)
        self._g_grid: Optional[np.ndarray] = None
        self._g_xmax = 0.0
        self._g_cut: Optional[float] = None

    # -- descriptors ------------------------------------------------------

    def descriptor(self) -> dict:
        return {"kind": self.kind, "a": self.a, "scale": self.scale}

    def __repr__(self):
        return f"TestFunction({self.kind}, a={self.a}, scale={self.scale})"

    @property
    def psi_hat_support(self) -> tuple:
        return (-self.a, self.a)

    def as_window(self) -> FourierWindow:
        return FourierWindow(psi_hat_fn=lambda s: self.psi_hat(s),
                             support=self.psi_hat_support)

    # -- bump-square internals ---------------------------------------------

    def _ghat(self, s):
        """Smooth bump on [-a/2, a/2], peak 1."""
        return _bump(2.0 * np.asarray(s, dtype=float) / self.a)

    def _ensure_g_grid(self, xmax: float) -> None:
        """g(x) = (1/2pi) int ghat exp(isx) ds on a uniform grid, step a/512.

        The grid stops early once the envelope of |g| falls below 1e-12 of
        its peak; beyond that cut psi = g^2 vanishes to double precision.
        """
        if self._g_cut is not None and xmax > self._g_cut:
            xmax = self._g_cut
        step = self.a / self.GRID_STEP_DIV
        xmax = max(xmax, 8.0 * step)
        if self._g_grid is not None and len(self._g_grid) and xmax <= self._g_xmax:
            return
        half = 0.5 * self.a
        seg_pts = 4096
        if self._g_grid is None:
            self._g_grid = np.empty(0)
            self._g_xmax = 0.0
        while self._g_xmax < xmax:
            start = len(self._g_grid)
            x = (start + np.arange(seg_pts)) * step
            snodes, sweights = oscillatory_quadrature(
                0.0, half, half * float(x[-1]), order=12, min_panels=24)
            gh = self._ghat(snodes) * sweights
            vals = np.cos(np.outer(x, snodes)) @ gh / pi
            self._g_grid = np.concatenate([self._g_grid, vals])
            self._g_xmax = float(x[-1])
            peak = float(np.max(np.abs(self._g_grid)))
            if float(np.max(np.abs(vals))) < 1e-12 * peak:
                self._g_cut = self._g_xmax
                break

    def _g_eval(self, x: np.ndarray) -> np.ndarray:
        ax = np.abs(x)
        self._ensure_g_grid(float(ax.max()) if ax.size else 1.0)
        step = self.a / self.GRID_STEP_DIV
        grid = self._g_grid
        out = np.zeros_like(ax)
        inside = ax <= self._g_xmax
        # 4-point cubic (Catmull-Rom) interpolation on the uniform grid
        t = ax[inside] / step
        i1 = np.clip(t.astype(np.int64), 1, len(grid) - 3)
        f = t - i1
        pm1, p0, p1, p2 = grid[i1 - 1], grid[i1], grid[i1 + 1], grid[i1 + 2]
        out[inside] = (
            p0
            + 0.5 * f * (p1 - pm1)
            + f * f * (pm1 - 2.5 * p0 + 2.0 * p1 - 0.5 * p2)
            + f * f * f * (1.5 * (p0 - p1) + 0.5 * (p2 - pm1))
        )
        return out

    # -- evaluation ---------------------------------------------------------

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
            # (ghat * ghat)(s) / 2pi on the overlap interval
            out = np.zeros_like(s)
            half = 0.5 * self.a
            m = np.abs(s) < self.a
            if np.any(m):
                sm = s[m]
                nodes, weights = composite_gauss_legendre(
                    np.linspace(-1.0, 1.0, 25), order=16)
                lo = np.maximum(-half, sm - half)
                hi = np.minimum(half, sm + half)
                mid = 0.5 * (lo + hi)
                rad = 0.5 * (hi - lo)
                u = mid[:, None] + rad[:, None] * nodes[None, :]
                vals = self._ghat(u) * self._ghat(sm[:, None] - u)
                out[m] = (vals @ weights) * rad / (2.0 * pi)
        out = out * self.scale
        return float(out[0]) if scalar else out


def make_test_function(kind: str, a: float, shape=None) -> TestFunction:
    """Factory for the three window kinds; `shape` holds kind-specific extras
    (currently only 'scale')."""
    scale = 1.0
    if shape:
        scale = float(shape.get("scale", 1.0))
    return TestFunction(kind=kind, a=a, scale=scale)


def dominating_test_function(eps: float, a: float = 1.0) -> TestFunction:
    """A smooth psi >= indicator of [-eps, eps], psi_hat supported in [-a, a].

    Square construction scaled so min over [-eps, eps] is exactly 1; needs
    the first zero of psi beyond eps.
    """
    base = TestFunction("bumpsquare", a)
    grid = np.linspace(0.0, eps, 512)
    m = float(np.min(base.psi(grid)))
    if m <= 0.0:
        raise ValidationError(
            f"bump-square window with a={a} vanishes inside [-{eps}, {eps}]")
    return TestFunction("bumpsquare", a, scale=1.0 / m)


# --------------------------------------------------------------------------
# sum tables
# --------------------------------------------------------------------------

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "value"])
            for lam, val in zip(self.lambda_grid, self.values):
                writer.writerow([f"{lam:.17g}", f"{val:.17g}"])

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


def _entry_weights(table: CoefficientTable, c: float, psi: TestFunction):
    lam = table.entry_m_freqs()
    mu = table.entry_h_freqs()
    w = psi.psi(c * lam - mu) * table.values
    return lam, mu, w


def _check_grid(table: CoefficientTable, c: float, margin: float, grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) <= 0):
        raise ValidationError("lambda grid must be strictly increasing")
    if grid[0] <= 0:
        raise ValidationError("lambda grid must be positive")
    if grid[-1] > table.lambda_max * (1 + 1e-12):
        raise TruncationRiskError(
            f"grid max {grid[-1]} exceeds cached lambda_max {table.lambda_max}")
    needed = c * grid[-1] + margin
    if table.mu_max < needed - 1e-9:
        raise TruncationRiskError(
            f"inner sum truncated: need mu_max >= {needed:.3f}, "
            f"cached {table.mu_max:.3f}")
    return grid


def kuznecov_sum(table: CoefficientTable, c: float, psi: TestFunction,
                 lambda_grid, variant: str = "smooth-sharp") -> SumTable:
    """N^c(lambda) = sum_{lambda_j <= lambda} sum_k psi(c lambda_j - mu_k) |coeff|^2.

    The argument order c*lambda_j - mu_k is fixed; entries are cumulated in
    M-frequency order so the grid values come from one pass.
    """
    if not 0.0 <= c <= 1.0:
        raise ValidationError("need 0 <= c <= 1")
    grid = _check_grid(table, c, psi.a, lambda_grid)
    lam, mu, w = _entry_weights(table, c, psi)
    csum = np.cumsum(w)
    idx = np.searchsorted(lam, grid * (1 + 1e-15), side="right")
    vals = np.where(idx > 0, csum[np.maximum(idx - 1, 0)], 0.0)
    total = float(csum[-1]) if len(csum) else 0.0
    tail_mask = mu > c * lam + 10.0 * psi.a
    tail = float(np.sum(np.abs(w[tail_mask]))) if len(w) else 0.0
    meta = {
        "mu_max": table.mu_max,
        "tail_fraction": tail / total if total > 0 else 0.0,
    }
    return SumTable(pair=table.pair.to_dict(), c=c, test=psi.descriptor(),
                    rho=None, lambda_grid=grid, values=vals, variant=variant,
                    metadata=meta)


def sharp_sum(table: CoefficientTable, c: float, eps: float,
              lambda_grid) -> SumTable:
    """Sharp-sharp variant: indicator window |c lambda_j - mu_k| <= eps."""
    if eps < 0:
        raise ValidationError("eps must be >= 0")
    out = kuznecov_sum(table, c, TestFunction("sharp", a=eps), lambda_grid,
                       variant="sharp-sharp")
    out.test = {"kind": "sharp", "eps": eps}
    return out


def averaged_sharp_sum(table: CoefficientTable, c: float, eps: float,
                       lambda_grid, jitter: float = 0.1,
                       samples: int = 5) -> SumTable:
    """Mean of sharp sums over eps * (1 +- jitter), damping the jumps the
    sharp window suffers at special eps values."""
    if samples < 1:
        raise ValidationError("need >= 1 sample")
    eps_vals = np.linspace(eps * (1 - jitter), eps * (1 + jitter), samples)
    acc = None
    for e in eps_vals:
        st = sharp_sum(table, c, float(e), lambda_grid)
        acc = st.values if acc is None else acc + st.values
    st.values = acc / samples
    st.test = {"kind": "sharp-averaged", "eps": eps, "jitter": jitter,
               "samples": samples}
    st.metadata["eps_values"] = [float(e) for e in eps_vals]
    return st


def _eigenspace_entries(table: CoefficientTable, lambda_j: float):
    slc = table.slice
    freqs = slc.m_freqs[table.j_idx]
    keys = slc.m_eigenkeys[table.j_idx]
    tol = 1e-9 * max(1.0, abs(lambda_j))
    near = np.abs(freqs - lambda_j) <= tol
    if not np.any(near):
        raise ValidationError(f"{lambda_j} is not an eigenvalue of the slice")
    cand = np.unique(keys[near])
    if len(cand) != 1:
        raise ValidationError(
            f"{lambda_j} matches several exact eigenspaces; tighten the value")
    return keys == cand[0]


def jump(table: CoefficientTable, window, lambda_j: float) -> float:
    """J^1(lambda_j): the inner sums over the full eigenspace at lambda_j.

    `window` is a TestFunction or a float eps (indicator window).  Matching
    is by exact eigenspace key, never by float comparison across groups.
    """
    psi = window if isinstance(window, TestFunction) else TestFunction(
        "sharp", a=float(window))
    in_space = _eigenspace_entries(table, lambda_j)
    lam = table.entry_m_freqs()[in_space]
    mu = table.entry_h_freqs()[in_space]
    vals = table.values[in_space]
    return float(np.sum(psi.psi(lam - mu) * vals))


def eigenvalue_jumps(table: CoefficientTable, window, lambda_min: float = 0.0,
                     lambda_max: float = None):
    """All (lambda_j, J(lambda_j)) for distinct eigenvalues in the range.

    Vectorized over eigenspace groups; used for jump-bound scans.
    """
    psi = window if isinstance(window, TestFunction) else TestFunction(
        "sharp", a=float(window))
    hi = lambda_max if lambda_max is not None else table.lambda_max
    lam = table.entry_m_freqs()
    mu = table.entry_h_freqs()
    keys = table.slice.m_eigenkeys[table.j_idx]
    w = psi.psi(lam - mu) * table.values
    order = np.argsort(keys, kind="stable")
    keys_s, lam_s, w_s = keys[order], lam[order], w[order]
    group_starts = np.nonzero(np.concatenate(
        [[True], keys_s[1:] != keys_s[:-1]]))[0]
    sums = np.add.reduceat(w_s, group_starts)
    lams = lam_s[group_starts]
    keep = (lams >= lambda_min) & (lams <= hi)
    return lams[keep], sums[keep]


def doubly_smoothed_sum(table: CoefficientTable, psi: TestFunction,
                        rho: TestFunction, lambda_grid) -> SumTable:
    """sum_{j,k} rho(lambda - lambda_j) psi(lambda_j - mu_k) |coeff|^2.

    The j-sum runs over all cached modes; warns when the estimated rho mass
    beyond the cache cutoff exceeds 1e-9 of the total.
    """
    if rho.kind not in ("fejer", "bumpsquare"):
        raise ValidationError("rho must be a smooth kind")
    grid = np.asarray(lambda_grid, dtype=float)
    lam, mu, w = _entry_weights(table, 1.0, psi)
    vals = np.array([float(np.sum(w * rho.psi(g - lam))) for g in grid])
    # rho tail estimate: x^-2 envelope beyond the cache edge times the local
    # modal weight density at the top of the cache
    edge = table.lambda_max
    top = lam > edge - 1.0
    density = float(np.sum(np.abs(w[top])))
    gaps = np.maximum(edge - grid, 1e-6)
    tail_est = density * rho.scale * (2.0 / (pi * rho.a)) / gaps
    total = np.abs(vals) + 1e-300
    worst = float(np.max(tail_est / total))
    if worst > 1e-9:
        import warnings
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "re", "im", "abs"])
            for t, v in zip(self.t_grid, self.values):
                writer.writerow([f"{t:.17g}", f"{v.real:.17g}",
                                 f"{v.imag:.17g}", f"{abs(v):.17g}"])


def dual_trace(table: CoefficientTable, psi: TestFunction, t_grid) -> DualTrace:
    t_grid = np.asarray(t_grid, dtype=float)
    lam, mu, w = _entry_weights(table, 1.0, psi)
    keep = w != 0.0
    lam, w = lam[keep], w[keep]
    out = np.empty(len(t_grid), dtype=complex)
    for i, t in enumerate(t_grid):
        out[i] = np.sum(w * np.exp(1j * t * lam))
    return DualTrace(t_grid=t_grid, values=out, test=psi.descriptor())
