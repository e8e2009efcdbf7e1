import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuzweyl.errors import ValidationError
from kuzweyl.kuznecov import make_test_function
from kuzweyl.special_functions import (
    composite_gauss_legendre,
    fourier_halfline_power,
    gauss_legendre,
    regularized_pairing,
    sphere_volume,
)

from oracles import (
    assoc_legendre,
    assoc_legendre_normalized,
    fourier_halfline_power_damped,
    gegenbauer,
    halfline_power_gamma_rhs,
    pairing_xspace_mpmath,
    sphere_plane_wave_integral,
)

PI = math.pi


# ---------------------------------------------------------------- quadrature

def test_gauss_legendre_weights_sum():
    for order in (4, 12, 31, 64):
        rule = gauss_legendre(order)
        assert abs(rule.weights.sum() - 2.0) < 1e-13


def test_gauss_legendre_polynomial_exactness():
    # exact for monomials up to degree 2*order - 1
    for order in (3, 9, 16):
        rule = gauss_legendre(order)
        for deg in range(2 * order):
            exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
            got = float(np.sum(rule.weights * rule.nodes ** deg))
            assert abs(got - exact) < 1e-12


def test_composite_rule():
    x, w = composite_gauss_legendre(np.linspace(0, 2, 5), order=8)
    assert abs(np.sum(w * np.exp(x)) - (math.e ** 2 - 1)) < 1e-12


# ------------------------------------------------------------------ legendre

def test_assoc_legendre_constant():
    for x in (-1.0, -0.3, 0.0, 0.9, 1.0):
        assert assoc_legendre(0, 0, x) == 1.0


def test_assoc_legendre_p2_at_zero():
    assert assoc_legendre(2, 0, 0.0) == pytest.approx(-0.5, abs=1e-15)


def test_assoc_legendre_rodrigues_oracle():
    # Rodrigues-formula value, computed independently with exact polynomial
    # differentiation: P_5^3(0.3) = (1-x^2)^{3/2} d^8/dx^8 (x^2-1)^5 / (2^5 5!)
    poly = np.polynomial.polynomial.polypow([-1.0, 0.0, 1.0], 5)
    for _ in range(8):
        poly = np.polynomial.polynomial.polyder(poly)
    x = 0.3
    expected = ((1 - x * x) ** 1.5
                * np.polynomial.polynomial.polyval(x, poly) / (2 ** 5 * math.factorial(5)))
    assert expected == pytest.approx(-8.6591446160619699, rel=1e-14)
    assert assoc_legendre(5, 3, x) == pytest.approx(expected, rel=1e-13)


def test_assoc_legendre_domain_error():
    with pytest.raises(ValidationError):
        assoc_legendre(3, 1, 1.2)
    with pytest.raises(ValidationError):
        assoc_legendre(2, 3, 0.5)


def test_normalized_legendre_gram_matrix():
    # dense-quadrature orthonormality of the theta-normalized functions
    rule = gauss_legendre(80)
    for m in (0, 2, 5):
        for N in (m, m + 1, m + 4, 30):
            pn = assoc_legendre_normalized(N, m, rule.nodes)
            norm = float(np.sum(rule.weights * pn * pn))
            assert abs(norm - 1.0) < 1e-10
            for N2 in (N + 2, N + 5):
                pn2 = assoc_legendre_normalized(N2, m, rule.nodes)
                assert abs(float(np.sum(rule.weights * pn * pn2))) < 1e-10


def test_normalized_matches_unnormalized():
    # explicit normalization factor, moderate degrees only (factorials)
    for (N, m) in [(5, 3), (12, 0), (9, 9)]:
        factor = math.sqrt((2 * N + 1) / 2.0
                           * math.factorial(N - m) / math.factorial(N + m))
        got = assoc_legendre_normalized(N, m, 0.37)
        ref = factor * assoc_legendre(N, m, 0.37)
        assert got == pytest.approx(ref, rel=1e-12)


def test_normalized_large_degree_finite():
    val = assoc_legendre_normalized(400, 380, 0.0)
    assert np.isfinite(val)


# ---------------------------------------------------------------- gegenbauer

def test_gegenbauer_seeds():
    assert gegenbauer(0, 0.8, 0.31) == 1.0
    assert gegenbauer(1, 0.8, 0.31) == pytest.approx(2 * 0.8 * 0.31, abs=1e-15)


def test_gegenbauer_series_oracle():
    # independent finite Gauss-series evaluation:
    # C_N^a(x) = sum_k (-1)^k Gamma(a+N-k) / (Gamma(a) k! (N-2k)!) (2x)^{N-2k}
    def series(N, a, x):
        total = 0.0
        for k in range(N // 2 + 1):
            total += ((-1) ** k
                      * math.exp(math.lgamma(a + N - k) - math.lgamma(a))
                      / (math.factorial(k) * math.factorial(N - 2 * k))
                      * (2 * x) ** (N - 2 * k))
        return total

    assert gegenbauer(4, 1.5, 0.2) == pytest.approx(series(4, 1.5, 0.2), abs=1e-11)
    assert gegenbauer(4, 1.5, 0.2) == pytest.approx(0.888, abs=1e-11)
    # the alternating series cancels catastrophically for larger N*|x|, so
    # the series oracle only covers moderate degrees
    for N in (2, 5, 7):
        for a in (0.5, 1.0, 2.5):
            for x in (-0.9, 0.1, 0.77):
                assert gegenbauer(N, a, x) == pytest.approx(
                    series(N, a, x), rel=1e-11, abs=1e-11)


def test_gegenbauer_large_degree_reference():
    # frozen 30-digit references for degrees where the series oracle cancels
    assert gegenbauer(15, 2.5, -0.9) == pytest.approx(
        78.815045869386333201, rel=1e-13)
    # C_N^1 = Chebyshev U_N: U_15(cos t) = sin(16 t)/sin(t)
    t = 0.8
    assert gegenbauer(15, 1.0, math.cos(t)) == pytest.approx(
        math.sin(16 * t) / math.sin(t), rel=1e-12)


# --------------------------------------------------------- plane-wave factor

def test_plane_wave_circle_at_zero():
    direct, bessel = sphere_plane_wave_integral(2, 0.0)
    assert direct == pytest.approx(2 * PI, abs=1e-12)
    assert bessel == pytest.approx(2 * PI, abs=1e-12)


def test_plane_wave_three_sphere_sinc():
    for r in (0.3, 1.0, 4.7):
        direct, bessel = sphere_plane_wave_integral(3, r)
        ref = 4 * PI * math.sin(2 * PI * r) / (2 * PI * r)
        assert direct == pytest.approx(ref, abs=1e-9)
        assert bessel == pytest.approx(ref, abs=1e-9)


def test_plane_wave_n4_product_quadrature_oracle():
    # independent 2-angle product quadrature over S^3:
    # int = int_0^pi int_0^pi e^{2 pi i r cos t1} sin^2 t1 sin t2 ... collapses
    # to Vol(S^1) int int e^{...} sin^2(t1) sin(t2) dt1 dt2 with t2 trivial;
    # use the full product form to stay independent of the 1-D reduction.
    r = 1.0
    t1, w1 = composite_gauss_legendre(np.linspace(0, PI, 41), order=10)
    t2, w2 = composite_gauss_legendre(np.linspace(0, PI, 21), order=10)
    phase = np.cos(2 * PI * r * np.cos(t1))[:, None] * np.ones_like(t2)[None, :]
    meas = (np.sin(t1) ** 2)[:, None] * np.sin(t2)[None, :]
    oracle = 2 * PI * float(np.sum((w1[:, None] * w2[None, :]) * phase * meas))
    direct, bessel = sphere_plane_wave_integral(4, r)
    assert direct == pytest.approx(oracle, abs=1e-8)
    assert bessel == pytest.approx(oracle, abs=1e-8)


def test_plane_wave_two_sides_agree_grid():
    for n in (2, 3, 4, 5):
        for r in (0.0, 0.35, 2.0, 9.5, 20.0):
            direct, bessel = sphere_plane_wave_integral(n, r)
            assert abs(direct - bessel) < 1e-8


# ------------------------------------------------------ regularized pairings

def _even_bump(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - s[m] ** 2))
    return out


def test_pairing_smooth_support_away_from_zero():
    # f supported in (1, 2): no regularization needed, plain quadrature
    # oracle; on the mirrored support (-2, -1), (s + i0)^(-1/2) is
    # e^{-i pi/2} |s|^(-1/2)
    def f(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        m = (s > 1.0) & (s < 2.0)
        u = 2.0 * (s[m] - 1.5)
        out[m] = np.exp(1.0 - 1.0 / (1.0 - u ** 2))
        return out

    x, w = composite_gauss_legendre(np.linspace(1, 2, 21), order=14)
    oracle = float(np.sum(w * f(x) * x ** -0.5))
    got = regularized_pairing(f, (1.0, 2.0), 0.5)
    assert abs(got - oracle) < 1e-10
    mirrored = regularized_pairing(lambda s: f(-s), (-2.0, -1.0), 0.5)
    assert abs(mirrored - (-1j) * oracle) < 1e-10


def test_pairing_even_bump_one_sided_decomposition():
    # (s + i0)^{-1/2} on an even bump: value = (1 + e^{-i pi/2}) I+ with
    # one-sided I+ = int_0^1 f s^{-1/2} ds = 1.5264292363979489 (frozen
    # 30-digit tanh-sinh quadrature of the analytic one-sided integral)
    i_plus = 1.5264292363979489
    got = regularized_pairing(_even_bump, (-1.0, 1.0), 0.5)
    expected = (1.0 + np.exp(-1j * PI / 2)) * i_plus
    assert abs(got - expected) < 1e-9


def test_pairing_alpha_one_delta_term():
    # (s + i0)^{-1} = p.v. 1/s - i pi delta; for an even bump the p.v. part
    # vanishes and the value is -i pi f(0)
    got = regularized_pairing(_even_bump, (-1.0, 1.0), 1.0)
    assert abs(got - (-1j * PI * _even_bump(np.array([0.0]))[0])) < 1e-8


def test_pairing_alpha_three_halves_finite_part():
    # finite part by parts: FP int_0^1 f s^{-3/2} = 2 int_0^1 f' s^{-1/2}
    # = -2.7707571192131608 (frozen high-precision value); even f doubles it
    # with the phase e^{-3 i pi/2} = +i on the negative side
    fp = -2.7707571192131608
    got = regularized_pairing(_even_bump, (-1.0, 1.0), 1.5)
    expected = (1.0 + np.exp(-1.5j * PI)) * fp
    assert abs(got - expected) < 1e-7


def test_pairing_evaluates_each_node_once():
    calls = []

    def f(s):
        calls.append(np.array(s))
        return _even_bump(s)

    regularized_pairing(f, (-1.0, 1.0), 0.5)
    assert len(calls) == 1
    nodes = calls[0]
    # 16 panels of 24 nodes on each side of 0, and 0 itself
    assert len(nodes) == 2 * 16 * 24 + 1 and np.all(np.diff(nodes) > 0)
    assert nodes[16 * 24] == 0.0


def test_pairing_rejects_unsupported_alpha():
    # (s + i0)^(-2) paired with the Fejer kink diverges; only the exponents
    # (n - d)/2 of the pairs n - d <= 3 are supported
    for alpha in (2.0, 0.0, -0.5):
        with pytest.raises(ValidationError):
            regularized_pairing(_even_bump, (-1.0, 1.0), alpha)


def test_pairing_rejects_empty_support():
    with pytest.raises(ValidationError):
        regularized_pairing(_even_bump, (1.0, 1.0), 0.5)


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_pairing_fejer_closed_form(a, alpha):
    # P = int_{-a}^{a} (1 - |s|/a) (s + i0)^(-alpha) ds
    #   = (1 + e^{-i pi alpha}) a^(1-alpha) / ((1 - alpha)(2 - alpha)),
    # -i pi at alpha = 1.  psi_hat is linear on each side of its kink at 0,
    # so the finite part is exact up to rounding; measured <= 9e-13.
    win = make_test_function("fejer", a)
    got = regularized_pairing(win.psi_hat, win.support, alpha)
    if alpha == 1.0:
        exact = -1j * PI
    else:
        exact = ((1.0 + np.exp(-1j * PI * alpha)) * a ** (1.0 - alpha)
                 / ((1.0 - alpha) * (2.0 - alpha)))
    assert abs(got - exact) <= 1e-11


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_pairing_bumpsquare_matches_xspace_integral(alpha):
    # e^{i pi alpha/2} P = (2pi/Gamma(alpha)) int_0^inf psi(t) t^(alpha-1) dt
    # for psi >= 0 even; measured <= 3.4e-11 over these a and alpha.
    # Tolerance 3e-10: over 8x the largest.
    for a in (0.5, 1.0, 2.5):
        psi = make_test_function("bumpsquare", a)
        got = regularized_pairing(psi.psi_hat, psi.support, alpha)
        rotated = np.exp(0.5j * PI * alpha) * got
        assert abs(rotated - pairing_xspace_mpmath(psi, alpha)) <= 3e-10, a


def test_halfline_gamma_identity_single():
    # int_0^inf e^{i t sigma} t^beta dt = i e^{i beta pi/2} Gamma(beta+1)
    # (sigma + i0)^{-beta-1}, checked by damped quadrature at beta=0.25, sigma=3
    lhs = fourier_halfline_power(0.25, 3.0)
    rhs = halfline_power_gamma_rhs(0.25, 3.0)
    assert abs(lhs - rhs) < 1e-6



_CRITERION_9_POINTS = [(b, s) for b in (0.25, 0.5, 1.5) for s in (1.0, 3.0, 10.0)]


def _halfline_rel_err(value, beta, sigma):
    rhs = halfline_power_gamma_rhs(beta, sigma)
    return abs(value - rhs) / abs(rhs)


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(min_value=-0.75, max_value=3.0),
       sigma=st.floats(min_value=0.3, max_value=10.0))
def test_halfline_rotation_gamma_identity_property(beta, sigma):
    value = fourier_halfline_power(beta, sigma)
    assert _halfline_rel_err(value, beta, sigma) <= 1e-12


@pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0, 3.0, 10.0, 100.0])
def test_halfline_near_minus_one(sigma):
    # t = v^4 on [0, 1] would leave the factor v^(4 beta + 3) singular for
    # beta < -3/4 (2-3 % off at beta = -0.9); t = v^q keeps it polynomial
    value = fourier_halfline_power(-0.9, sigma)
    assert _halfline_rel_err(value, -0.9, sigma) <= 1e-12


@pytest.mark.parametrize("sigma", [0.05, 100.0])
@pytest.mark.parametrize("beta", [0.25, 0.5, 1.5])
def test_halfline_rotation_beats_damped_ladder_at_extremes(beta, sigma):
    # at sigma = 100 the default ladder would build 2.6e7 nodes per step;
    # stopping it at eps = 2^-7 keeps its largest rule at the size of the
    # default ladder at sigma = 10
    schedule = tuple(2.0 ** (-k) for k in range(4, 8 if sigma > 10 else 11))
    damped = fourier_halfline_power_damped(beta, sigma, schedule=schedule)
    rotated = fourier_halfline_power(beta, sigma)
    assert (_halfline_rel_err(rotated, beta, sigma)
            <= _halfline_rel_err(damped, beta, sigma))


def test_halfline_rotation_matches_damped_ladder():
    for beta, sigma in _CRITERION_9_POINTS:
        damped = fourier_halfline_power_damped(beta, sigma)
        assert abs(fourier_halfline_power(beta, sigma) - damped) <= 1e-6


def test_halfline_validation():
    for beta, sigma in ((-1.0, 1.0), (-1.5, 1.0), (0.5, 0.0), (0.5, -2.0)):
        with pytest.raises(ValidationError):
            fourier_halfline_power(beta, sigma)


def test_sphere_volume_values():
    assert sphere_volume(0) == pytest.approx(2.0)
    assert sphere_volume(1) == pytest.approx(2 * PI)
    assert sphere_volume(2) == pytest.approx(4 * PI)
    assert sphere_volume(3) == pytest.approx(2 * PI ** 2)
