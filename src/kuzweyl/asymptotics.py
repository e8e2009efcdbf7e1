"""Growth-exponent fits and leading-coefficient predictions.

Exponent law: the edge window c = 1 grows like lambda^((n+d)/2); every
bulk window 0 <= c < 1 grows like lambda^(n-1) independently of d.  The
universal constant C_{n,d} of the leading term is never hardcoded: all
coefficient comparisons are ratio tests across test functions or across c,
where it cancels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kuznecov import SumTable, _window_of
from .special_functions import regularized_pairing, sphere_volume

__all__ = [
    "FitReport",
    "CoefficientPrediction",
    "fit_growth",
    "predicted_exponent",
    "sphere_leading_coefficient",
    "flat_leading_coefficient",
    "subcritical_coefficient",
    "jump_bound_check",
]

_Z_95 = 1.96  # two-sided 95% normal quantile of the jump-trend test


@dataclass
class FitReport:
    """Power-law fit of a SumTable: N ~ coefficient * lambda^exponent."""

    exponent: float
    coefficient: float
    r_squared: float
    window: tuple
    residual_profile: list

    def to_json(self) -> dict:
        return {
            "exponent": self.exponent,
            "coefficient": self.coefficient,
            "r_squared": self.r_squared,
            "window": list(self.window),
            "residual_profile": self.residual_profile,
        }


@dataclass
class CoefficientPrediction:
    """Predicted leading coefficient (up to the universal constant).

    `value` is the complex pairing the formula computes.  For the edge
    formulas (FlatRegularized, SphereGlobal) and a nonnegative window, the
    pairing int psi_hat(s) (s + i0)^(-alpha) ds, alpha = (n - d)/2, has the
    phase e^(-i pi alpha/2), so `real` is Re(e^(i pi alpha/2) value): the
    coefficient, positive for every pair.  The subcritical value is real,
    and `real` is its real part.
    """

    value: complex
    formula: str
    inputs: dict

    @property
    def real(self) -> float:
        if self.formula == "SubcriticalC":
            return float(self.value.real)
        alpha = 0.5 * (self.inputs["n"] - self.inputs["d"])
        return float((cmath.exp(0.5j * math.pi * alpha) * self.value).real)

    def to_json(self) -> dict:
        return {
            "value_re": self.value.real,
            "value_im": self.value.imag,
            "formula": self.formula,
            "inputs": self.inputs,
        }


def fit_growth(table: SumTable, window) -> FitReport:
    """Least-squares slope/intercept of log N against log lambda in the window."""
    lo, hi = float(window[0]), float(window[1])
    grid = np.asarray(table.lambda_grid, dtype=float)
    vals = np.asarray(table.values, dtype=float)
    mask = (grid >= lo) & (grid <= hi) & (vals > 0)
    if int(mask.sum()) < 8:
        raise ValidationError("need >= 8 positive grid points in the window")
    x = np.log(grid[mask])
    y = np.log(vals[mask])
    if float(np.var(x)) == 0.0:
        raise ValidationError("degenerate fit: no spread in lambda")
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = slope * x + intercept
    resid = y - fitted
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return FitReport(exponent=float(slope), coefficient=float(math.exp(intercept)),
                     r_squared=r2, window=(lo, hi),
                     residual_profile=[float(r) for r in resid])


def predicted_exponent(c: float, n: int, d: int) -> float:
    """(n+d)/2 at the edge c = 1; n-1 in the bulk (independent of d)."""
    if not 0.0 <= c <= 1.0:
        raise ValidationError("need 0 <= c <= 1")
    if c >= 1.0 - 1e-12:
        return (n + d) / 2.0
    return float(n - 1)


def sphere_leading_coefficient(n: int, d: int, psi) -> CoefficientPrediction:
    """Global-in-s edge coefficient on the sphere pair:
    int psi_hat(s) (sin(s + i0))^(-(n-d)/2) ds.

    Requires psi_hat supported inside (-pi, pi), away from the antipodal
    conjugate point of sin.
    """
    win = _window_of(psi)
    lo, hi = win.support
    if lo <= -math.pi or hi >= math.pi:
        raise ValidationError("psi_hat support must lie inside (-pi, pi)")
    alpha = 0.5 * (n - d)
    # (sin s + i0)^(-alpha) = (s + i0)^(-alpha) (s / sin s)^alpha on (-pi, pi)
    value = regularized_pairing(
        lambda s: win.psi_hat(s) * np.sinc(s / math.pi) ** -alpha, (lo, hi),
        alpha)
    return CoefficientPrediction(value=value, formula="SphereGlobal",
                                 inputs={"n": n, "d": d,
                                         "psi": win.descriptor()})


def flat_leading_coefficient(n: int, d: int, psi,
                             vol_H: float = None) -> CoefficientPrediction:
    """Flat-torus edge coefficient up to the universal constant:
    Vol(H) * Vol(S^{d-1}) * int psi_hat(s) (s + i0)^(-(n-d)/2) ds.

    Meaningful only in ratios (the universal constant is left at 1).
    """
    win = _window_of(psi)
    pairing = regularized_pairing(win.psi_hat, win.support, 0.5 * (n - d))
    vol = float(vol_H) if vol_H is not None else (2.0 * math.pi) ** d
    value = pairing * vol * sphere_volume(d - 1)
    return CoefficientPrediction(value=value, formula="FlatRegularized",
                                 inputs={"n": n, "d": d, "vol_H": vol})


def subcritical_coefficient(n: int, d: int, c: float, psi,
                            vol_H: float = None) -> CoefficientPrediction:
    """Bulk-window coefficient psi_hat(0) c^(d-1) (1-c^2)^((n-d-2)/2) Vol(H).

    Reads psi_hat only at 0, so it also takes the sharp kind (2 eps there).
    """
    if not 0.0 < c < 1.0:
        raise ValidationError("need 0 < c < 1")
    vol = float(vol_H) if vol_H is not None else (2.0 * math.pi) ** d
    ph0 = float(_window_of(psi).psi_hat(0.0))
    value = ph0 * c ** (d - 1) * (1.0 - c * c) ** (0.5 * (n - d - 2)) * vol
    return CoefficientPrediction(value=complex(value), formula="SubcriticalC",
                                 inputs={"n": n, "d": d, "c": c, "vol_H": vol})


def jump_bound_check(lambdas, jumps, n: int, d: int) -> dict:
    """Normalize jumps by lambda^((n+d)/2 - 1) and test for a positive trend.

    PASS when the 95% (z = 1.96) OLS slope confidence interval of the
    normalized sequence against lambda contains 0 or is negative.
    """
    lam = np.asarray(lambdas, dtype=float)
    J = np.asarray(jumps, dtype=float)
    if len(lam) < 8:
        raise ValidationError("need >= 8 jump samples")
    if np.any(lam <= 0):
        raise ValidationError("eigenvalues must be positive")
    normalized = J / lam ** ((n + d) / 2.0 - 1.0)
    x = lam - np.mean(lam)
    slope = float(np.sum(x * (normalized - np.mean(normalized)))
                  / np.sum(x * x))
    resid = normalized - np.mean(normalized) - slope * x
    dof = max(len(lam) - 2, 1)
    se = math.sqrt(float(np.sum(resid ** 2)) / dof / float(np.sum(x * x)))
    ci = (slope - _Z_95 * se, slope + _Z_95 * se)
    return {
        "max": float(np.max(normalized)),
        "median": float(np.median(normalized)),
        "slope": slope,
        "slope_ci": ci,
        "passed": ci[0] <= 0.0,
        "count": int(len(lam)),
    }
