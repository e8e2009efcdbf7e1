"""Reference values computed without the kuzweyl package.

Everything here uses only math, numpy and mpmath, so a fault in the package
cannot pass a check by agreeing with itself.  Conventions follow the package
README: Fourier transform fhat(s) = int f(x) e^{-isx} dx, torus periods 2 pi,
sphere frequencies sqrt(N(N+n-1)).
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# windows
# --------------------------------------------------------------------------

def indicator(eps):
    return lambda x: (np.abs(x) <= eps).astype(float)


def averaged_indicator(eps, jitter, samples):
    """Mean of the indicators of [-e, e] over e in eps * (1 -+ jitter)."""
    widths = np.linspace(eps * (1 - jitter), eps * (1 + jitter), samples)
    return lambda x: sum((np.abs(x) <= e).astype(float) for e in widths) / samples


def fejer(a):
    """psi(x) = (a / 2 pi) (sin(ax/2) / (ax/2))^2, psi_hat triangular on [-a, a]."""
    return lambda x: (a / TWO_PI) * np.sinc(a * np.asarray(x) / TWO_PI) ** 2


def bump(lo, hi):
    """exp(1 - 1/(1 - u^2)) on (lo, hi), u the position relative to the midpoint."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def fn(s):
        u = (np.asarray(s, dtype=float) - mid) / half
        out = np.zeros_like(u)
        m = np.abs(u) < 1.0
        out[m] = np.exp(1.0 - 1.0 / (1.0 - u[m] ** 2))
        return out

    return fn


# --------------------------------------------------------------------------
# spectral sums by brute force
# --------------------------------------------------------------------------

def torus_window_sums(n, d, c, lams, window):
    """sum over m in Z^n with |m| <= lam of window(c |m| - |m_H|) / (2 pi)^(n-d).

    m_H is the first d coordinates; one value per lam.  Loops over the first
    coordinate so memory stays at one (2L+1)^(n-1) slab.
    """
    lams = np.asarray(lams, dtype=float)
    L = int(lams.max()) + 1
    axis = np.arange(-L, L + 1, dtype=np.int64)
    rest = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
    rest_sq = sum(g ** 2 for g in rest).ravel()
    h_rest_sq = sum((g ** 2 for g in rest[: d - 1]), np.zeros_like(rest[0])).ravel()
    out = np.zeros(len(lams))
    for m1 in axis:
        lam = np.sqrt((rest_sq + m1 * m1).astype(float))
        mu = np.sqrt((h_rest_sq + m1 * m1).astype(float))
        w = window(c * lam - mu)
        for i, lv in enumerate(lams):
            out[i] += w[lam <= lv].sum()
    return out / TWO_PI ** (n - d)


def torus21_jump(key, eps):
    """J(sqrt(key)) on torus(2,1): sum over m with |m|^2 = key of the
    indicator of | |m| - |m_1| | <= eps, over 2 pi."""
    lam = math.sqrt(key)
    total = 0
    for m1 in range(-math.isqrt(key), math.isqrt(key) + 1):
        r = key - m1 * m1
        m2 = math.isqrt(r)
        if m2 * m2 == r:
            total += (1 if m2 == 0 else 2) * (abs(lam - abs(m1)) <= eps)
    return total / TWO_PI


def legendre_equator_sq(N, l):
    """Normalized P_N^l(0)^2 (int_{-1}^{1} Pbar^2 dx = 1) from the closed form
    |P_N^l(0)| = (N+l-1)!! / (N-l)!!, zero when N - l is odd."""
    if (N - l) % 2:
        return 0.0
    p, q = (N + l) // 2, (N - l) // 2
    log_p = (p - q) * math.log(2.0) + math.lgamma(p + 0.5) \
        - 0.5 * math.log(math.pi) - math.lgamma(q + 1)
    log_norm = math.log(N + 0.5) + math.lgamma(N - l + 1) - math.lgamma(N + l + 1)
    return math.exp(log_norm + 2.0 * log_p)


def legendre_equator_sq_mp(N, l):
    """The same value through mpmath's Ferrers function, at 30 digits."""
    with mpmath.workdps(30):
        v = mpmath.legenp(N, l, 0)
        norm = mpmath.mpf(2 * N + 1) / 2 * mpmath.factorial(N - l) \
            / mpmath.factorial(N + l)
        return float(norm * v * v)


def sphere21_window_sums(lams, window):
    """Edge (c = 1) sum on sphere(2,1): over degrees N with sqrt(N(N+1)) <= lam
    and equator degrees l = N, N-2, ..., each carrying dim H_l(S^1) modes of
    squared coefficient Pbar_N^l(0)^2 at H-frequency l."""
    lams = np.asarray(lams, dtype=float)
    n_max = int(lams.max()) + 1
    rows = [(N, l) for N in range(n_max + 1) for l in range(N % 2, N + 1, 2)]
    N = np.array([r[0] for r in rows], dtype=float)
    l = np.array([r[1] for r in rows], dtype=float)
    weight = np.array([(1 if li == 0 else 2) * legendre_equator_sq(Ni, li)
                       for Ni, li in rows])
    lam_n = np.sqrt(N * (N + 1.0))
    w = weight * window(lam_n - l)
    return np.array([w[lam_n <= lv].sum() for lv in lams])


def loglog_slope(x, y):
    x, y = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    xm = x - x.mean()
    return float(np.sum(xm * (y - y.mean())) / np.sum(xm * xm))


def predicted_exponent(c, n, d):
    return (n + d) / 2.0 if c == 1.0 else float(n - 1)


# --------------------------------------------------------------------------
# oscillatory identities
# --------------------------------------------------------------------------

def plane_wave_factor(q, z):
    """int_{S^{q-1}} e^{i z <e, w>} dS(w) = (2 pi)^{q/2} z^{-(q-2)/2} J_{(q-2)/2}(z);
    the q = 1 factor is the two-point sum 2 cos z."""
    if q == 1:
        return 2.0 * math.cos(z)
    nu = (q - 2) / 2.0
    return float(TWO_PI ** (q / 2.0) * mpmath.besselj(nu, z) / mpmath.mpf(z) ** nu)


def halfline_gamma(beta, sigma):
    """i e^{i beta pi/2} Gamma(beta+1) sigma^(-beta-1)."""
    return 1j * cmath.exp(1j * beta * math.pi / 2.0) * math.gamma(beta + 1.0) \
        * sigma ** (-beta - 1.0)


def flat_fejer_coefficient_21(a):
    """Vol(T^1) Vol(S^0) int (1 - |s|/a)_+ (s + i0)^(-1/2) ds for torus(2,1):
    the two half-line integrals give (4/3) sqrt(a) (1 - i)."""
    return (4.0 / 3.0) * math.sqrt(a) * (1 - 1j) * TWO_PI * 2.0


def gauss_moment(fn, lo, hi, panels=32, order=16):
    """int_lo^hi fn(s) ds by composite Gauss-Legendre (numpy's nodes)."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        s = 0.5 * (b - a) * x + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.sum(w * fn(s)))
    return total


def sphere_zonal_series(n, t, r, terms):
    """sum_N e^{iNt} Z_N(cos r), Z_N the degree-N reproducing kernel on S^n,
    for n = 1 (cos(Nr)/pi, 1/(2pi) at N = 0) and n = 3
    ((N+1) sin((N+1)r) / (2 pi^2 sin r))."""
    N = np.arange(terms, dtype=float)
    if n == 1:
        z = np.where(N == 0, 1.0 / TWO_PI, np.cos(N * r) / math.pi)
    elif n == 3:
        z = (N + 1) * np.sin((N + 1) * r) / (2.0 * math.pi ** 2 * math.sin(r))
    else:
        raise ValueError("zonal series implemented for n = 1, 3")
    return complex(np.sum(np.exp(1j * N * t) * z))
