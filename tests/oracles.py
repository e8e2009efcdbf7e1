"""Reference implementations the tests compare the package against.

Independent forms: the Legendre and Gegenbauer recurrences (oracles for
the closed-form restriction coefficients and zonal kernels), the
30-digit mpmath integral of the first Hadamard transport coefficient and
the x-space mpmath integral of a window's regularized pairing (the
package takes its finite part at s = 0, the oracle needs no
regularization).

Replaced forms, slow and kept here only as references: the per-block
closed form of the sphere restriction coefficients (replaced by one
lgamma table), the segment-by-segment cosine-matrix tabulation of the
bump-square g-grid (one FFT of the a-free g_1), the u-convolution of the
bump-square psi_hat over the whole overlap (the mirror-symmetric profile
bump * bump), the dense transform of the model integral's G(u), one
exp per (u, s-node) (factored per panel), with the d = 1 model-integral
pass recomputed by it, the model integral's radial breakpoints by one
np.linspace per dyadic interval (one repeat over all intervals), the
x_1-then-R quadrature of the d = 2 model
integral (batched polar; its G and chat also by the dense transform),
the damped-ladder half-line transform (contour rotation), the sharp and
averaged sharp sums cumulated over every row (over the eps-band rows
only), the per-mode
forms of the jumps, doubly smoothed sums and dual trace
(per-eigenspace), the per-entry view of a per-mode table (its rows are
build_table's eigenvalue-pair rows), the meshgrid and lexsort
torus enumeration with its volume-estimate budget check (coordinate at a
time), the (N, l, m) triple-loop sphere enumeration (block level), the
degree-by-degree search for the top sphere degree (closed-form root) and
the Hadamard transport on powers of the sin r / r series by Miller's
recurrence, summed by Horner (closed-form zeta(2k) series, one
baby-step/giant-step pass), and the polar quadrature of a plane-wave
sphere factor with its rule built on every call (rules cached by panel
count).

Also the test-only helpers: the composite oscillatory Gauss-Legendre
rule (about 3 panels per oscillation cycle), the Gamma closed form of
the half-line transform, the rank of the full model-phase Hessian, the
direct sphere plane-wave quadrature with its mpmath Bessel closed form,
the full difference spectrum, the lattice shell counts r_k(B) by the
sum over one coordinate, the torus(3, d) sharp counts by a Gauss-circle
count over one coordinate, plain-CSV plot data, the brute tensor quadrature of
an oscillatory integral with its stationary-phase error probe, the
per-mode Parseval row sums of a coefficient table, and each row's
window-weighted mass.
"""

import math
from types import SimpleNamespace

import mpmath
import numpy as np

from kuzweyl.errors import ResourceGuardError, ValidationError
from kuzweyl.kuznecov import (
    DualTrace,
    SumTable,
    TestFunction,
    _bump,
    _write_csv,
)
from kuzweyl.model_spectra import (
    SpectrumSlice,
    _sphere_frequency,
    harmonic_dim,
)
from kuzweyl.oscillatory_models import (
    ModelCutoff,
    PhaseProblem,
    _graded_phase_breakpoints,
    stationary_phase_leading,
)
from kuzweyl.special_functions import composite_gauss_legendre, sphere_volume

PI = math.pi


def oscillatory_quadrature(a: float, b: float, phase_span: float,
                           order: int = 12, min_panels: int = 4):
    """Composite rule on [a, b] with ~3 panels per oscillation cycle."""
    cycles = abs(phase_span) / (2.0 * PI)
    panels = max(min_panels, int(math.ceil(3.0 * cycles)) + 2)
    return composite_gauss_legendre(np.linspace(a, b, panels + 1), order=order)


def plane_wave_factor_polar(q: int, z: float, psi_hat=None, r: float = None,
                            conj: bool = False) -> complex:
    """int_{S^{q-1}} w(r cos theta) e^{+- i z cos theta} dS, q >= 2, by the
    polar quadrature built afresh on each call: cos t and sin^{q-2} t on
    the oscillatory rule of [0, pi] (64 panels at least when windowed)."""
    tt, ww = oscillatory_quadrature(0.0, PI, z * PI, order=14,
                                    min_panels=4 if psi_hat is None else 64)
    amp = np.sin(tt) ** (q - 2)
    if psi_hat is not None:
        amp = amp * psi_hat(r * np.cos(tt))
    sgn = -1.0 if conj else 1.0
    return sphere_volume(q - 2) * complex(
        np.sum(ww * amp * np.exp(sgn * 1j * z * np.cos(tt))))


# --------------------------------------------------- Legendre and Gegenbauer

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


# ------------------------------------ sphere restriction coefficient, per block

def sphere_coefficient_value(n: int, d: int, N: int, l: int) -> float:
    """Closed-form squared coefficient of the adapted mode (N, l, m=0),
    one block at a time.

    Zero when N - l is odd; otherwise the Jacobi-polynomial value at the
    equator, normalized in the split measure.
    """
    if not (0 <= l <= N):
        raise ValidationError("need 0 <= l <= N")
    if (N - l) % 2:
        return 0.0
    k = (N - l) // 2
    A = 0.5 * (n - d - 2)
    B = l + 0.5 * (d - 1)
    lg = math.lgamma
    log_p1 = lg(k + A + 1.0) - lg(k + 1.0) - lg(A + 1.0)
    log_h = ((A + B + 1.0) * math.log(2.0) - math.log(2.0 * k + A + B + 1.0)
             + lg(k + A + 1.0) + lg(k + B + 1.0)
             - lg(k + 1.0) - lg(k + A + B + 1.0))
    log_c0 = -(l + 0.5 * (n + 1)) * math.log(2.0)
    return math.exp(2.0 * log_p1 - log_h - log_c0) / sphere_volume(n - d - 1)


# --------------------------------------------- bump-square g-grid, cos loop

def bump_g_grid_loop(a: float, xmax: float):
    """g(x) = (1/2pi) int ghat exp(isx) ds of the bump-square window with
    psi_hat radius a, on the grid x_k = k a/512 up to at least xmax, in
    segments of 4096 points, each a cosine matrix times oscillatory
    Gauss-Legendre weights.  Stops early once a segment falls below 1e-12
    of the peak.  Returns the grid values."""
    def ghat(s):
        return _bump(2.0 * np.asarray(s, dtype=float) / a)

    step = a / 512
    xmax = max(xmax, 8.0 * step)
    half = 0.5 * a
    seg_pts = 4096
    grid = np.empty(0)
    g_xmax = 0.0
    while g_xmax < xmax:
        start = len(grid)
        x = (start + np.arange(seg_pts)) * step
        snodes, sweights = oscillatory_quadrature(
            0.0, half, half * float(x[-1]), order=12, min_panels=24)
        gh = ghat(snodes) * sweights
        vals = np.cos(np.outer(x, snodes)) @ gh / PI
        grid = np.concatenate([grid, vals])
        g_xmax = float(x[-1])
        peak = float(np.max(np.abs(grid)))
        if float(np.max(np.abs(vals))) < 1e-12 * peak:
            break
    return grid


def bump_psi_hat_u_convolution(a: float, s):
    """psi_hat of the bump-square window with radius a as the convolution
    (ghat * ghat)(s)/2pi, ghat(u) = bump(2u/a), over the whole overlap
    interval of u by 24 Gauss-Legendre panels of order 16 per argument."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(s)
    half = 0.5 * a
    m = np.abs(s) < a
    sm = s[m]
    nodes, weights = composite_gauss_legendre(np.linspace(-1.0, 1.0, 25),
                                              order=16)
    lo = np.maximum(-half, sm - half)
    hi = np.minimum(half, sm + half)
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    u = mid[:, None] + rad[:, None] * nodes[None, :]
    vals = _bump(2.0 * u / a) * _bump(2.0 * (sm[:, None] - u) / a)
    out[m] = (vals @ weights) * rad / (2.0 * PI)
    return out


def bump_g_direct(a: float, x):
    """The same g at each point of x on its own: an oscillatory
    Gauss-Legendre rule on [0, a/2] fitted to |x|."""
    half = 0.5 * a
    out = []
    for xi in np.abs(np.asarray(x, dtype=float)):
        s, w = oscillatory_quadrature(0.0, half, half * max(xi, 1.0),
                                      order=12, min_panels=24)
        out.append(float(np.sum(_bump(s / half) * w * np.cos(s * xi))) / PI)
    return np.array(out)


# ------------------------------------- model integral, dense G and d = 2 loop

def fourier_on_support_dense(fvals_nodes, nodes, weights, u):
    """int f(s) e^{-ius} ds for an array of u, from fixed sample nodes: one
    complex exp per (u, node) pair, in blocks of 4096 u values."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty(len(u), dtype=complex)
    chunk = 4096
    fw = fvals_nodes * weights
    for i in range(0, len(u), chunk):
        ui = u[i:i + chunk]
        out[i:i + chunk] = np.exp(-1j * np.outer(ui, nodes)) @ fw
    return out


def graded_phase_breakpoints_loop(lam: float, phase_scale: float,
                                  refine: float):
    """The model integral's radial breakpoints on [0, 1], one np.linspace
    per dyadic interval: dyadic grading at 0, each interval cut into equal
    panels of quadratic phase change at most 2 pi / refine."""
    pts = [0.0]
    x = 0.5 / max(lam, 2.0)
    while x < 1.0:
        pts.append(x)
        x *= 2.0
    pts.append(1.0)
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        dphase = 0.5 * lam * phase_scale * (b * b - a * a)
        sub = max(1, int(math.ceil(refine * dphase / (2.0 * PI))))
        out.extend(np.linspace(a, b, sub + 1)[:-1])
    out.append(1.0)
    return np.array(out)


def model_s_half_panels(lam: float, smax: float, refine: float) -> int:
    """Equal s-panels on each side of 0 in the package's model-integral
    pass."""
    return max(int(16 * refine),
               int(math.ceil(1.5 * (0.5 * lam * smax) / (2.0 * PI))) + 1)


def model_s_breakpoints(lam: float, smax: float, refine: float):
    """The s-panels of the package's model-integral pass: 2 half_panels
    equal panels over [-smax, smax], with s = 0 a panel boundary."""
    half_panels = model_s_half_panels(lam, smax, refine)
    return np.concatenate([np.linspace(-smax, 0.0, half_panels + 1),
                           np.linspace(0.0, smax, half_panels + 1)[1:]])


def model_G_dense(lam: float, cutoff: ModelCutoff, psi_hat, a_supp: float,
                  refine: float):
    """u -> G(u) = int c(s) psi_hat(s) e^{-ius} ds by the dense transform on
    the package's s-panels at this refine."""
    s_nodes, s_weights = composite_gauss_legendre(
        model_s_breakpoints(lam, min(cutoff.width, a_supp), refine), order=12)
    g_samples = cutoff.profile(s_nodes) * psi_hat(s_nodes)
    return lambda u: fourier_on_support_dense(g_samples, s_nodes, s_weights, u)


def model_integral_d1_dense(n: int, lam: float, cutoff: ModelCutoff, psi_hat,
                            a_supp: float, refine: float = 1.6):
    """The d = 1 model-integral pass at this refine with G by the dense
    transform: the radial integral over R = |x''| on the package's graded
    panels.  Returns the value and the number of radial panels."""
    G = model_G_dense(lam, cutoff, psi_hat, a_supp, refine)
    bks = _graded_phase_breakpoints(lam, cutoff.width, refine)
    R, wR = composite_gauss_legendre(bks, order=12)
    vals = G(0.5 * lam * R * R) * R ** (n - 2)
    return sphere_volume(n - 2) * complex(np.sum(wR * vals)), len(bks) - 1


def model_integral_d2_loop(n: int, lam: float, cutoff: ModelCutoff = None,
                           psi_hat=None, a_supp: float = None,
                           refine: float = 1.6) -> complex:
    """The d = 2 model integral by iterated quadrature: x_1 graded around 0,
    then for each x_1 node the transverse radius R over [0, sqrt(1 - x_1^2)].
    G and chat(lam x_1) by the dense transform, G on the same s-nodes as the
    package's pass at this refine."""
    cutoff = cutoff if cutoff is not None else ModelCutoff(d=2)
    if psi_hat is None:
        psi_hat = lambda s: np.ones_like(np.asarray(s, dtype=float))
        a_supp = cutoff.width
    w = cutoff.width
    G = model_G_dense(lam, cutoff, psi_hat, a_supp, refine)
    wt = cutoff.width_tangent
    x1, wx1 = composite_gauss_legendre(
        _graded_phase_breakpoints(lam, w, refine), order=12)
    c_nodes, c_weights = composite_gauss_legendre(
        np.linspace(-wt, wt, int(12 * refine) + 5), order=12)
    chat = fourier_on_support_dense(cutoff.tangent_profile(c_nodes), c_nodes,
                                    c_weights, lam * x1)
    total = 0j
    for i in range(len(x1)):
        rmax = math.sqrt(max(0.0, 1.0 - x1[i] * x1[i]))
        if rmax <= 0:
            continue
        R, wR = composite_gauss_legendre(
            _graded_phase_breakpoints(lam, w, refine) * rmax, order=12)
        u = 0.5 * lam * (x1[i] * x1[i] + R * R)
        total += wx1[i] * chat[i] * np.sum(wR * G(u) * R ** (n - 3))
    # x_1 runs over [-1, 1]; the integrand is even in x_1
    return sphere_volume(n - 3) * 2.0 * complex(total)


# -------------------------------------- Hadamard transport, mpmath integral

def hadamard_w1_mpmath(n: int, r: float, dps: int = 30) -> float:
    """W_1 of the round S^n at radius r from its integral definition,
    W_1(r) = Theta^{-1/2}(r) int_0^1 (Theta^{1/2} Delta W_0)(s r) ds, at
    dps digits: mp.quad over s, with W_0 = (r / sin r)^{(n-1)/2} =
    Theta^{-1/2} differentiated by mp.diffs and
    Delta = d^2/dr^2 + (n - 1) cot r d/dr."""
    with mpmath.workdps(dps):
        p = mpmath.mpf(n - 1) / 2
        rr = mpmath.mpf(r)

        def w0(t):
            return (t / mpmath.sin(t)) ** p

        def integrand(s):
            t = s * rr
            _, d1, d2 = mpmath.diffs(w0, t, 2)
            return (d2 + (n - 1) * mpmath.cot(t) * d1) / w0(t)

        return float(w0(rr) * mpmath.quad(integrand, [0, 1]))


# ------------------------- Hadamard transport, Miller's recurrence + Horner

def sphere_transport_miller(n: int, j_max: int, r):
    """W_0 .. W_{j_max} of the round S^n on r by series in x = r^2/pi^2
    built from the sin r / r series: W_0 = (sin r / r)^{-p}, p = (n-1)/2,
    and (sin r / r)^{-2} (for the potential q) as its powers by
    J. C. P. Miller's recurrence k g_k = sum_i ((alpha + 1) i - k) f_i g_{k-i};
    U_j = Theta^{1/2} W_j transported as in the package (coefficient k of
    L U_j over 2k + j + 1), every series summed by numpy's polyval (Horner).
    Same series length K as the package.  The recurrence and the sums run
    in np.longdouble: in float64 their rounding reaches 2e-12 relative
    where W_j is small against W_0 (S^5, j = 1, r = 2.96)."""
    r = np.asarray(r, dtype=float)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    x = (r.astype(np.longdouble) / pi) ** 2
    K = math.ceil(30.0 / math.log(PI / float(r.max()))) + 16
    k = np.arange(K)
    sinc = np.cumprod(np.r_[np.longdouble(1.0),
                            -pi * pi / ((2 * k[1:]) * (2 * k[1:] + 1))])
    p = 0.5 * (n - 1)
    alphas = np.array([-p, -2.0], dtype=np.longdouble)
    g = np.zeros((K, 2), dtype=np.longdouble)
    g[0] = 1.0
    i_f = k * sinc
    for m in range(1, K):
        rev = g[m - 1::-1]
        g[m] = (alphas + 1.0) / m * (i_f[1:m + 1] @ rev) - sinc[1:m + 1] @ rev
    w0, inv_sinc2 = g.T
    q = -p * (p - 1) / (pi * pi) * np.r_[inv_sinc2[1:], 0.0]
    q[0] += p * p
    U = [np.r_[np.longdouble(1.0), np.zeros(K - 1, dtype=np.longdouble)]]
    for j in range(j_max):
        lu = np.convolve(q, U[j])[:K]
        lu[:-1] += 2.0 * k[1:] * (2 * k[:-1] + n) * U[j][1:] / (pi * pi)
        U.append(lu / (2 * k + j + 1))
    W0 = np.polynomial.polynomial.polyval(x, w0)
    return [W.astype(float) for W in
            [W0] + [W0 * np.polynomial.polynomial.polyval(x, u) for u in U[1:]]]


# ---------------------------------------- pairing, x-space mpmath integral

def pairing_xspace_mpmath(psi: TestFunction, alpha: float) -> float:
    """(2pi/Gamma(alpha)) int_0^inf psi(t) t^(alpha-1) dt, which equals
    e^(i pi alpha/2) int psi_hat(s) (s + i0)^(-alpha) ds for even psi
    (int_0^inf e^(ist) t^(alpha-1) dt = Gamma(alpha) e^(i pi alpha/2)
    (s + i0)^(-alpha)).  mpmath tanh-sinh on dyadic panels [2^k, 2^(k+1)]/a
    up to 2^11/a, beyond which the bump-square psi is 0 to double
    precision; psi itself is the package's x-space evaluation."""
    a = psi.a
    pts = [0.0] + [2.0 ** k / a for k in range(-2, 12)]
    with mpmath.workdps(15):
        integral = mpmath.quad(
            lambda t: float(psi.psi(float(t))) * t ** (alpha - 1.0), pts)
    return 2.0 * PI / math.gamma(alpha) * float(integral)


# ------------------------------------------ half-line transform, damped ladder

def fourier_halfline_power_damped(
        beta: float, sigma: float,
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


# ---------------------------------- per-mode jumps, smoothed sums and trace

def entry_view(table):
    """A per-mode CoefficientTable as one row per entry: each entry's
    M-frequency, H-frequency, value and M-eigenkey gathered from the slice.
    It carries every field the sums read, so they run on it unchanged."""
    slc = table.slice
    return SimpleNamespace(pair=table.pair, lambda_max=table.lambda_max,
                           lam=slc.m_freqs[table.j_idx],
                           mu=slc.h_freqs[table.k_idx], weight=table.values,
                           key=slc.m_eigenkeys[table.j_idx], band=None)


def eigenvalue_jumps_argsort(table, window, lambda_min: float = 0.0,
                             lambda_max: float = None):
    """All (lambda_j, J(lambda_j)) for distinct eigenvalues in the range,
    grouping the rows (lam, mu, weight, key) by a stable argsort of their
    eigenkeys."""
    psi = window if isinstance(window, TestFunction) else TestFunction(
        "sharp", a=float(window))
    hi = lambda_max if lambda_max is not None else table.lambda_max
    lam, mu, keys = table.lam, table.mu, table.key
    w = psi.psi(lam - mu) * table.weight
    order = np.argsort(keys, kind="stable")
    keys_s, lam_s, w_s = keys[order], lam[order], w[order]
    group_starts = np.nonzero(np.concatenate(
        [[True], keys_s[1:] != keys_s[:-1]]))[0]
    sums = np.add.reduceat(w_s, group_starts)
    lams = lam_s[group_starts]
    keep = (lams >= lambda_min) & (lams <= hi)
    return lams[keep], sums[keep]


def entry_weights(table, c: float, psi):
    """Each row's lam, mu and window-weighted coefficient mass."""
    lam, mu = table.lam, table.mu
    return lam, mu, psi.psi(c * lam - mu) * table.weight


def sharp_sum_full_rows(table, c: float, eps: float, grid) -> np.ndarray:
    """The sharp sum on a grid, cumulating the indicator-weighted rows of
    the whole table, inside and outside the band."""
    w = (np.abs(c * table.lam - table.mu) <= eps) * table.weight
    csum = np.cumsum(w)
    idx = np.searchsorted(table.lam, grid * (1 + 1e-15), side="right")
    return np.where(idx > 0, csum[np.maximum(idx - 1, 0)], 0.0)


def averaged_sharp_sum_full_rows(table, c: float, eps: float, grid,
                                 jitter: float = 0.1,
                                 samples: int = 5) -> np.ndarray:
    """The mean of full-row sharp sums over eps * (1 +- jitter)."""
    eps_vals = np.linspace(eps * (1 - jitter), eps * (1 + jitter), samples)
    return sum(sharp_sum_full_rows(table, c, e, grid)
               for e in eps_vals) / samples


def doubly_smoothed_loop(table, psi, rho, lambda_grid) -> np.ndarray:
    """The doubly smoothed sum, one pass over every entry per grid point."""
    grid = np.asarray(lambda_grid, dtype=float)
    lam, mu, w = entry_weights(table, 1.0, psi)
    return np.array([float(np.sum(w * rho.psi(g - lam))) for g in grid])


def dual_trace_loop(table, psi, t_grid) -> np.ndarray:
    """The dual trace, one pass over every entry per t."""
    t_grid = np.asarray(t_grid, dtype=float)
    lam, mu, w = entry_weights(table, 1.0, psi)
    keep = w != 0.0
    lam, w = lam[keep], w[keep]
    out = np.empty(len(t_grid), dtype=complex)
    for i, t in enumerate(t_grid):
        out[i] = np.sum(w * np.exp(1j * t * lam))
    return out


# ------------------------------------- torus enumeration, meshgrid loop

def torus_count_estimate(periods, cutoff: float) -> float:
    # volume of the frequency ellipsoid |2 pi m / L| <= cutoff
    dim = len(periods)
    ball = PI ** (dim / 2.0) / math.exp(math.lgamma(dim / 2.0 + 1.0))
    vol = ball
    for L in periods:
        vol *= cutoff * L / (2.0 * PI)
    return vol


def enumerate_torus_lattice_lexsort(periods, cutoff: float, budget: int):
    """All m in Z^dim with sum (2 pi m_i / L_i)^2 <= cutoff^2, lex-sorted."""
    dim = len(periods)
    est = torus_count_estimate(periods, cutoff)
    if est > 1.2 * budget + 1000:
        raise ResourceGuardError(
            f"estimated mode count {est:.3g} exceeds budget {budget}")
    scale = np.array([2.0 * PI / L for L in periods])
    bounds = np.floor(cutoff / scale + 1e-12).astype(np.int64)
    uniform = np.allclose(scale, scale[0], rtol=0, atol=0)
    cut2 = cutoff * cutoff
    chunks_lab = []
    chunks_key = []
    if dim == 1:
        m = np.arange(-bounds[0], bounds[0] + 1, dtype=np.int64)
        keep = (scale[0] * m) ** 2 <= cut2 * (1 + 1e-15)
        chunks_lab.append(m[keep].reshape(-1, 1))
        chunks_key.append((m[keep] ** 2))
    else:
        tail = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds[1:]]
        grids = np.meshgrid(*tail, indexing="ij")
        tail_labels = np.stack([g.ravel() for g in grids], axis=1)
        tail_q = np.zeros(len(tail_labels))
        for i in range(1, dim):
            tail_q += (scale[i] * tail_labels[:, i - 1]) ** 2
        for m1 in range(-int(bounds[0]), int(bounds[0]) + 1):
            q = tail_q + (scale[0] * m1) ** 2
            keep = q <= cut2 * (1 + 1e-15)
            if not np.any(keep):
                continue
            lab = np.empty((int(keep.sum()), dim), dtype=np.int64)
            lab[:, 0] = m1
            lab[:, 1:] = tail_labels[keep]
            chunks_lab.append(lab)
            if uniform:
                chunks_key.append((lab.astype(np.int64) ** 2).sum(axis=1))
            else:
                chunks_key.append(np.zeros(len(lab), dtype=np.int64))
    labels = np.concatenate(chunks_lab, axis=0)
    keys = np.concatenate(chunks_key)
    if len(labels) > budget:
        raise ResourceGuardError(
            f"mode count {len(labels)} exceeds budget {budget}")
    freqs2 = np.zeros(len(labels))
    for i in range(dim):
        freqs2 += (scale[i] * labels[:, i]) ** 2
    freqs = np.sqrt(freqs2)
    if not uniform:
        # no exact integer key available: number the clusters of squared
        # frequencies, a new one wherever the sorted values jump by more
        # than 2^-40 of the larger
        keys = np.zeros(len(labels), dtype=np.int64)
        by_q = sorted(range(len(labels)), key=lambda i: freqs2[i])
        for prev, i in zip(by_q, by_q[1:]):
            gap = freqs2[i] - freqs2[prev]
            keys[i] = keys[prev] + (gap > freqs2[i] * 2.0 ** -40)
    # deterministic order: frequency group, then lexicographic label
    sort_keys = tuple(labels[:, i] for i in range(dim - 1, -1, -1)) + (keys,)
    order = np.lexsort(sort_keys)
    return (labels[order].astype(np.int32), freqs[order], keys[order])


def lattice_shell_counts(k: int, B_max: int) -> np.ndarray:
    """r_k(B), the number of m in Z^k with |m|^2 = B, for 0 <= B <= B_max,
    in exact int64 by r_(j+1)(B) = sum over m of r_j(B - m^2)."""
    r = np.zeros(B_max + 1, dtype=np.int64)
    r[0] = 1
    for _ in range(k):
        nxt = r.copy()
        for m in range(1, math.isqrt(B_max) + 1):
            nxt[m * m:] += 2 * r[:B_max + 1 - m * m]
        r = nxt
    return r


def torus3_sharp_count(d: int, eps: float, lams) -> np.ndarray:
    """The c = 1 sharp sum of torus(3, d) at each lambda in lams,
    #{m in Z^3 : |m| <= lambda, |m| - |m'| <= eps} / (2 pi)^(3 - d) with m'
    the first d coordinates, by a Gauss-circle count over the last one: for
    each (m_1, m_2) the m_3 with m_3^2 <= top = min(floor(lambda^2),
    floor((|m'| + eps)^2)) - m_1^2 - m_2^2 number 2 isqrt(top) + 1, in
    int64 (|m| >= |m'|, so the window's other side always holds).  O(L^2)
    in memory and time, with no shells."""
    counts = []
    for lam in lams:
        m = np.arange(-int(lam) - 1, int(lam) + 2, dtype=np.int64)
        m1, m2 = m[:, None], m[None, :]
        p = m1 * m1 + m2 * m2
        proj2 = m1 * m1 if d == 1 else p
        edge = np.floor((np.sqrt(proj2) + eps) ** 2).astype(np.int64)
        top = np.minimum(edge, math.floor(lam * lam)) - p
        r = np.sqrt(np.maximum(top, 0)).astype(np.int64)
        r -= r * r > top  # isqrt: the float root corrected by one either way
        r += (r + 1) * (r + 1) <= top
        counts.append(int(np.sum(np.where(top >= 0, 2 * r + 1, 0))))
    return np.array(counts) / (2 * math.pi) ** (3 - d)


# ------------------------------------------- sphere enumeration, block loop

def sphere_degree_max_loop(n: int, normalization: str, cutoff: float) -> int:
    """Largest degree N >= 0 with frequency <= cutoff, one degree at a time."""
    N = 0
    while float(_sphere_frequency(N + 1, n, normalization)) <= cutoff:
        N += 1
    return N


def enumerate_sphere_ambient_loop(n: int, d: int, normalization: str,
                                  cutoff: float, budget: int):
    """Adapted-basis labels (N, l, m, alpha, beta) for degrees up to cutoff,
    filled block by block in a Python loop over (N, l, m)."""
    n_max = sphere_degree_max_loop(n, normalization, cutoff)
    q_trans = n - d - 1
    total = sum(harmonic_dim(n, N) for N in range(n_max + 1))
    if total > budget:
        raise ResourceGuardError(f"mode count {total} exceeds budget {budget}")
    labels = np.empty((total, 5), dtype=np.int32)
    degrees = np.empty(total, dtype=np.int64)
    pos = 0
    for N in range(n_max + 1):
        block = []
        for l in range(N, -1, -1):
            for m in range(N - l, -1, -1):
                if (N - l - m) % 2:
                    continue
                da = harmonic_dim(d, l)
                db = harmonic_dim(q_trans, m)
                if da == 0 or db == 0:
                    continue
                block.append((l, m, da, db))
        # lexicographic in (l, m, alpha, beta)
        block.sort()
        for (l, m, da, db) in block:
            cnt = da * db
            seg = labels[pos:pos + cnt]
            seg[:, 0] = N
            seg[:, 1] = l
            seg[:, 2] = m
            seg[:, 3] = np.repeat(np.arange(da, dtype=np.int32), db)
            seg[:, 4] = np.tile(np.arange(db, dtype=np.int32), da)
            degrees[pos:pos + cnt] = N
            pos += cnt
    if pos != total:
        raise RuntimeError("adapted-basis enumeration does not fill the eigenspace")
    freqs = _sphere_frequency(degrees, n, normalization)
    return labels, freqs, degrees


# ------------------------------------------------------- test-only helpers

def halfline_power_gamma_rhs(beta: float, sigma: float) -> complex:
    """i exp(i beta pi/2) Gamma(beta+1) (sigma + i0)^(-beta-1) for sigma > 0."""
    if sigma <= 0:
        raise ValidationError("sigma must be > 0")
    return (1j * np.exp(1j * beta * PI / 2.0) * math.exp(math.lgamma(beta + 1.0))
            * sigma ** (-beta - 1.0))


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
    z = 2.0 * PI * r
    tt, ww = oscillatory_quadrature(0.0, PI, z * PI, order=14)
    integrand = np.cos(z * np.cos(tt)) * np.sin(tt) ** (n - 2)
    direct = sphere_volume(n - 2) * float(integrand @ ww)
    nu = mpmath.mpf(n - 2) / 2
    scaled = (mpmath.besselj(nu, z) / mpmath.mpf(z) ** nu if z
              else 1 / (2 ** nu * mpmath.gamma(nu + 1)))
    bessel = float((2 * mpmath.pi) ** (mpmath.mpf(n) / 2) * scaled)
    return direct, bessel


def difference_spectrum(slice_: SpectrumSlice, c: float,
                        max_pairs: int = 50_000_000) -> np.ndarray:
    """The ordered multiset {c*lambda_j - mu_k} over all mode pairs, ascending."""
    if not 0.0 <= c <= 1.0:
        raise ValidationError("need 0 <= c <= 1")
    n_pairs = slice_.m_count * slice_.h_count
    if n_pairs > max_pairs:
        raise ResourceGuardError(
            f"difference spectrum would hold {n_pairs} entries")
    diffs = (c * slice_.m_freqs[:, None] - slice_.h_freqs[None, :]).ravel()
    diffs.sort()
    return diffs


def parseval_row_sums(table) -> np.ndarray:
    """Sum of squared coefficients per M-mode (the restricted L2 norm)."""
    sums = np.zeros(table.slice.m_count)
    np.add.at(sums, table.j_idx, table.values)
    return sums


def emit_plot_data(obj, kind: str, path: str) -> None:
    """Plain-CSV emission for downstream plotting; no plotting here."""
    if kind == "loglog":
        if not isinstance(obj, SumTable):
            raise ValidationError("loglog emission needs a SumTable")
        rows = [(math.log10(l), math.log10(v))
                for l, v in zip(obj.lambda_grid, obj.values) if v > 0]
        _write_csv(path, ["log10_lambda", "log10_value"], rows)
    elif kind == "jumps":
        lams, jumps, n, d = obj
        power = (n + d) / 2.0 - 1.0
        rows = [(float(l), float(j), float(j / l ** power))
                for l, j in zip(lams, jumps)]
        _write_csv(path, ["lambda_j", "jump", "jump_normalized"], rows)
    elif kind == "trace":
        if not isinstance(obj, DualTrace):
            raise ValidationError("trace emission needs a DualTrace")
        obj.to_csv(path)
    elif kind == "coefficient-ratio":
        rows = [(str(k), float(v)) for k, v in obj.items()]
        _write_csv(path, ["label", "ratio"], rows)
    else:
        raise ValidationError(f"unknown plot-data kind {kind!r}")


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
