import math

import numpy as np
import pytest

from kuzweyl.asymptotics import (
    fit_growth,
    flat_leading_coefficient,
    jump_bound_check,
    predicted_exponent,
    sphere_leading_coefficient,
    subcritical_coefficient,
)
from kuzweyl.errors import ValidationError
from kuzweyl.kuznecov import (
    FourierWindow,
    SumTable,
    make_test_function,
    shifted_bump_window,
)
from kuzweyl.special_functions import composite_gauss_legendre

PI = math.pi


def _table(grid, values):
    return SumTable(pair={}, c=1.0, test={}, rho=None,
                    lambda_grid=np.asarray(grid, dtype=float),
                    values=np.asarray(values, dtype=float), variant="test")


# ----------------------------------------------------------------- fitting

def test_fit_exact_power_law():
    grid = np.geomspace(5, 500, 24)
    report = fit_growth(_table(grid, 3.0 * grid ** 2.5), (5, 500))
    assert report.exponent == pytest.approx(2.5, abs=1e-10)
    assert report.coefficient == pytest.approx(3.0, rel=1e-9)
    assert report.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_scale_invariance():
    grid = np.geomspace(10, 100, 16)
    vals = 2.0 * grid ** 1.7 * (1 + 0.01 * np.sin(grid))
    e1 = fit_growth(_table(grid, vals), (10, 100)).exponent
    e2 = fit_growth(_table(grid, 7.3 * vals), (10, 100)).exponent
    assert e1 == pytest.approx(e2, abs=1e-12)  # log-shift moves only the intercept


def test_fit_validation():
    grid = np.geomspace(10, 100, 16)
    with pytest.raises(ValidationError):
        fit_growth(_table(grid, grid ** 2), (200, 300))
    with pytest.raises(ValidationError):
        fit_growth(_table(grid[:5], grid[:5] ** 2), (10, 100))
    with pytest.raises(ValidationError):
        fit_growth(_table(grid, -np.ones_like(grid)), (10, 100))


# ------------------------------------------------------------ exponent law

def test_predicted_exponents():
    assert predicted_exponent(1.0, 3, 2) == 2.5
    assert predicted_exponent(0.5, 3, 2) == 2.0
    assert predicted_exponent(0.0, 5, 2) == 4.0
    # hypersurface case: edge exponent exceeds the bulk one iff d = n-1
    for n in (2, 3, 5):
        assert predicted_exponent(1.0, n, n - 1) == (2 * n - 1) / 2.0
        assert predicted_exponent(1.0, n, n - 1) > n - 1
    assert predicted_exponent(1.0, 4, 2) == 3.0  # equal orders at d = n-2
    with pytest.raises(ValidationError):
        predicted_exponent(1.2, 3, 1)


# ------------------------------------------------------- sphere coefficient

def test_sphere_coefficient_smooth_window_matches_quadrature():
    # psi_hat supported in (0.5, 1) away from 0: plain quadrature of
    # psi_hat(s) sin(s)^{-(n-d)/2}
    win = shifted_bump_window(0.5, 1.0)
    for (n, d) in [(3, 1), (3, 2)]:
        pred = sphere_leading_coefficient(n, d, win)
        x, w = composite_gauss_legendre(np.linspace(0.5, 1.0, 21), order=14)
        direct = float(np.sum(w * win.psi_hat(x)
                              * np.sin(x) ** (-(n - d) / 2.0)))
        assert pred.value.real == pytest.approx(direct, abs=1e-8)
        assert abs(pred.value.imag) < 1e-8


def test_sphere_coefficient_nd2_sign_structure():
    # n - d = 2: the negative side enters with (-i)^2 = -1, so for an even
    # window the value is p.v.-free: -i pi times the window at 0 (the even
    # factor (s/sin s)^alpha is 1 there); measured <= 1e-16
    for win in (make_test_function("bumpsquare", 1.0),
                shifted_bump_window(-2.0, 2.0)):
        pred = sphere_leading_coefficient(3, 1, win)
        expected = -1j * PI * win.psi_hat(0.0)
        assert abs(pred.value - expected) < 1e-12


def test_sphere_coefficient_positivity():
    for psi in (make_test_function("fejer", 1.0),
                make_test_function("bumpsquare", 0.8)):
        pred = sphere_leading_coefficient(2, 1, psi)
        assert pred.real >= -1e-10


@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)])
def test_edge_coefficient_real_is_rotated_pairing(n, d):
    # value keeps the raw pairing, whose phase is e^{-i pi alpha/2} for a
    # nonnegative window; real rotates it back.  Re(value) is 0 at (3,1)
    # and negative at (4,1) and (5,2).
    alpha = 0.5 * (n - d)
    for psi in (make_test_function("fejer", 1.0),
                make_test_function("bumpsquare", 1.0)):
        for coef in (flat_leading_coefficient, sphere_leading_coefficient):
            pred = coef(n, d, psi)
            rotated = np.exp(0.5j * PI * alpha) * pred.value
            assert abs(rotated.imag) < 1e-9 * abs(rotated)
            assert pred.real == pytest.approx(rotated.real, rel=1e-15)
            assert pred.real > 0.0


def test_edge_coefficients_reject_sharp_window():
    # the indicator's psi_hat 2 sin(eps s)/s has no compact support, so it
    # cannot be paired on (-eps, eps); the bulk formula reads only psi_hat(0)
    sharp = make_test_function("sharp", 0.5)
    with pytest.raises(ValidationError):
        flat_leading_coefficient(2, 1, sharp)
    with pytest.raises(ValidationError):
        sphere_leading_coefficient(2, 1, sharp)
    pred = subcritical_coefficient(3, 1, 0.5, sharp, vol_H=1.0)
    assert pred.real == pytest.approx(2 * 0.5)


def test_sphere_coefficient_support_guard():
    win = shifted_bump_window(2.0, 3.5)
    with pytest.raises(ValidationError):
        sphere_leading_coefficient(3, 1, win)


# --------------------------------------------------------- flat coefficient

def test_flat_coefficient_integrable_case_direct():
    # d = n-1: (s+i0)^{-1/2} is absolutely integrable, no regularization
    # needed; the direct path uses the substitution s = u^2 on each side
    psi = make_test_function("fejer", 1.0)
    pred = flat_leading_coefficient(2, 1, psi, vol_H=1.0)
    u, w = composite_gauss_legendre(np.linspace(0, 1, 21), order=14)
    one_sided = float(np.sum(w * psi.psi_hat(u * u) * 2.0))  # int f s^-1/2 ds
    direct = (1.0 + np.exp(-1j * PI / 2)) * one_sided * 2.0  # * Vol(S^0)
    # the triangle is linear on each side of its kink at the singular
    # point, so the finite part at s = 0 is exact up to rounding
    assert abs(pred.value - direct) < 1e-10
    assert pred.real >= 0.0


def test_flat_coefficient_fejer_closed_form():
    # int_0^a (1 - s/a) s^{-1/2} ds = (4/3) sqrt(a)
    for a in (1.0, 0.6):
        pred = flat_leading_coefficient(2, 1, make_test_function("fejer", a),
                                        vol_H=1.0)
        expected = (1.0 - 1j) * (4.0 / 3.0) * math.sqrt(a) * 2.0
        assert abs(pred.value - expected) < 1e-10


def test_flat_coefficient_window_off_zero():
    # psi_hat vanishing near 0 and supported in (0, inf): reduces to the
    # plain integral of psi_hat(s) s^{-(n-d)/2}
    win = shifted_bump_window(0.4, 0.9)
    pred = flat_leading_coefficient(3, 1, win, vol_H=1.0)
    x, w = composite_gauss_legendre(np.linspace(0.4, 0.9, 21), order=14)
    direct = float(np.sum(w * win.psi_hat(x) / x)) * 2.0  # * Vol(S^0)
    assert abs(pred.value - direct) < 1e-8


def test_flat_coefficient_scaling_in_h():
    # psi_hat(s/h) concentrating at 0+: prediction scales like h^{1-(n-d)/2}
    base = shifted_bump_window(-0.8, 0.8)
    vals = {}
    for h in (1.0, 0.5, 0.25):
        win = FourierWindow(psi_hat_fn=lambda s, h=h: base.psi_hat(s / h),
                            support=(-0.8 * h, 0.8 * h))
        vals[h] = flat_leading_coefficient(3, 1, win, vol_H=1.0).value
    alpha = 1.0  # (n-d)/2
    for h in (0.5, 0.25):
        ratio = vals[h] / vals[1.0]
        assert abs(ratio - h ** (1 - alpha)) < 5e-4


# ------------------------------------------------------------- subcritical

def test_subcritical_closed_form():
    psi = make_test_function("fejer", 0.5)
    pred = subcritical_coefficient(3, 1, 0.5, psi, vol_H=2 * PI)
    assert pred.value.real == pytest.approx(
        psi.psi_hat(0.0) * 1.0 * 1.0 * 2 * PI)


def test_subcritical_vanishes_at_edge_for_low_d():
    # (1 - c^2)^{(n-d-2)/2} -> 0 as c -> 1- when n - d - 2 > 0
    psi = make_test_function("fejer", 0.5)
    vals = [subcritical_coefficient(5, 1, c, psi).real
            for c in (0.9, 0.99, 0.9999)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-2 * vals[0]


def test_subcritical_c_dependence_nd2():
    # n - d = 2: only the c^{d-1} factor remains
    psi = make_test_function("fejer", 0.5)
    for c1, c2 in [(0.3, 0.6), (0.2, 0.9)]:
        r = (subcritical_coefficient(4, 2, c1, psi).real
             / subcritical_coefficient(4, 2, c2, psi).real)
        assert r == pytest.approx(c1 / c2, rel=1e-12)


def test_subcritical_ratio_formula():
    psi = make_test_function("fejer", 0.5)
    n, d, c1, c2 = 3, 2, 0.3, 0.6
    r = (subcritical_coefficient(n, d, c1, psi).real
         / subcritical_coefficient(n, d, c2, psi).real)
    expected = (c1 / c2) ** (d - 1) * ((1 - c1 ** 2) / (1 - c2 ** 2)) ** (
        0.5 * (n - d - 2))
    assert r == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValidationError):
        subcritical_coefficient(3, 1, 1.0, psi)


# -------------------------------------------------------------- jump bounds

def test_jump_bound_synthetic_violation_flagged():
    lam = np.linspace(10, 300, 60)
    bad = lam ** 2.5  # one power above the allowed (n+d)/2 - 1 for (3,2)
    report = jump_bound_check(lam, bad, 3, 2)
    assert not report["passed"]
    assert report["slope"] > 0


def test_jump_bound_bounded_sequence_passes():
    rng = np.random.default_rng(7)
    lam = np.linspace(10, 300, 80)
    good = lam ** 0.75 * (1.0 + 0.2 * rng.standard_normal(80))
    report = jump_bound_check(lam, good, 2, 1.5)  # normalizing power 0.75
    assert report["passed"]
    assert report["count"] == 80


def test_jump_bound_validation():
    with pytest.raises(ValidationError):
        jump_bound_check([1, 2, 3], [1, 2, 3], 2, 1)
