import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kuzweyl.errors import AccuracyError, ResourceGuardError, ValidationError
from kuzweyl.kuznecov import make_test_function, shifted_bump_window
from kuzweyl.oscillatory_models import (
    CriticalPoint,
    ModelCutoff,
    PhaseProblem,
    RadialMetric,
    SPHERE_R_MAX,
    _POLAR_RULES,
    _fourier_on_panels,
    _graded_phase_breakpoints,
    _model_integral_once,
    _plane_wave_factor_closed,
    _plane_wave_factor_quadrature,
    _poisson_rule,
    _zeta_even,
    double_bessel,
    hadamard_transport,
    model_integral,
    model_integral_leading,
    sphere_wave_kernel,
    sphere_zonal_sum,
    stationary_phase_leading,
)
from kuzweyl.special_functions import (
    composite_gauss_legendre,
    regularized_pairing,
    sphere_volume,
)

from oracles import (
    brute_oscillatory_integral,
    full_model_hessian_rank,
    gegenbauer,
    graded_phase_breakpoints_loop,
    hadamard_w1_mpmath,
    model_G_dense,
    model_integral_d1_dense,
    model_integral_d2_loop,
    model_s_half_panels,
    plane_wave_factor_polar,
    sphere_transport_miller,
    stationary_phase_error_probe,
)

PI = math.pi


# ------------------------------------------------------------- double Bessel

def test_double_bessel_two_paths_agree():
    for (n, d) in [(3, 1), (3, 2), (4, 2), (5, 3)]:
        worst, scale = 0.0, 0.0
        for z in np.geomspace(0.1, 50.0, 25):
            res = double_bessel(n, d, float(z), 1.0)
            worst = max(worst, abs(res.closed_form - res.quadrature))
            scale = max(scale, abs(res.closed_form))
        assert worst / scale < 1e-8


def test_double_bessel_d1_two_point_convention():
    # the S^0 factor degenerates to 2 cos(lambda r)
    lam, r = 7.0, 1.0
    res = double_bessel(3, 1, lam, r)
    sphere_factor = 4 * PI * math.sin(lam * r) / (lam * r)
    assert res.closed_form == pytest.approx(
        sphere_factor * 2 * math.cos(lam * r), rel=1e-12)


def test_double_bessel_small_argument_limit():
    # lambda r -> 0: no oscillation; the value tends to the product of the
    # sphere measures
    for (n, d) in [(3, 1), (4, 2)]:
        res = double_bessel(n, d, 1e-6, 1.0)
        limit = sphere_volume(n - 1) * sphere_volume(d - 1)
        assert res.closed_form.real == pytest.approx(limit, rel=1e-9)
        assert res.quadrature.real == pytest.approx(limit, rel=1e-9)


def test_double_bessel_32_full_product_quadrature_oracle():
    # pin the normalization by an independent 2-angle product quadrature
    # over S^2 x S^1 of exp(i lam <y, proj w - w~>) at y = r e_1
    n, d, lam, r = 3, 2, 5.0, 1.0
    t, wt = composite_gauss_legendre(np.linspace(0, PI, 33), order=10)
    p, wp = composite_gauss_legendre(np.linspace(0, 2 * PI, 33), order=10)
    # S^2 factor: w = (cos t, sin t cos p, sin t sin p), <y, proj w> = r cos t
    f1 = np.sum((wt[:, None] * wp[None, :])
                * np.exp(1j * lam * r * np.cos(t))[:, None]
                * np.sin(t)[:, None])
    # S^1 factor: w~ = (cos u, sin u), -<y, w~> = -r cos u
    u, wu = composite_gauss_legendre(np.linspace(0, 2 * PI, 33), order=10)
    f2 = np.sum(wu * np.exp(-1j * lam * r * np.cos(u)))
    oracle = f1 * f2
    res = double_bessel(n, d, lam, r)
    assert abs(res.closed_form - oracle) < 1e-8 * abs(oracle)
    assert abs(res.quadrature - oracle) < 1e-8 * abs(oracle)


def test_double_bessel_window_branch():
    # quadrature path with a nontrivial window; cross-check against the
    # factored 1-D integral computed here directly
    win = make_test_function("bumpsquare", 1.0)
    n, d, lam, r = 3, 2, 4.0, 0.8
    res = double_bessel(n, d, lam, r, psi_hat=win.psi_hat)
    assert res.closed_form is None
    t, wt = composite_gauss_legendre(np.linspace(0, PI, 25), order=12)
    f1 = 2 * PI * np.sum(wt * np.exp(1j * lam * r * np.cos(t)) * np.sin(t))
    u, wu = composite_gauss_legendre(np.linspace(0, 2 * PI, 25), order=12)
    f2 = np.sum(wu * win.psi_hat(r * np.cos(u)) * np.exp(-1j * lam * r * np.cos(u)))
    assert abs(res.quadrature - f1 * f2) < 1e-9 * max(1.0, abs(f1 * f2))


def test_plane_wave_factor_closed_batch_against_mpmath():
    import mpmath

    for q in range(1, 8):
        z = np.concatenate([np.linspace(0.0, 1.0, 6), np.geomspace(1.5, 400.0, 30)])
        got = _plane_wave_factor_closed(q, z.reshape(6, 6))
        assert got.shape == (6, 6)
        nu = (q - 2) / 2.0
        if q == 1:
            ref = [2.0 * math.cos(x) for x in z]
        else:
            ref = [float((2 * mpmath.pi) ** (q / 2.0)
                         * (mpmath.besselj(nu, x) / mpmath.mpf(x) ** nu if x
                            else 1 / (2 ** nu * mpmath.gamma(nu + 1))))
                   for x in z]
        assert np.max(np.abs(got.ravel() - ref)) <= 1e-12 * sphere_volume(q - 1)


def test_double_bessel_guards():
    with pytest.raises(ValidationError):
        double_bessel(3, 3, 1.0, 1.0)
    with pytest.raises(ValidationError):
        double_bessel(3, 1, 1.0, 0.0)
    with pytest.warns(UserWarning):
        double_bessel(3, 1, 800.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(q=st.integers(2, 7), z=st.floats(0.0, 500.0),
       # the model-integral windows (defined below) but the bump-square,
       # whose psi_hat costs about 12 us a point
       window=st.sampled_from(["fejer", "none", "shifted"]),
       r=st.floats(0.5, 2.0), conj=st.booleans())
@example(q=3, z=26.0, window="none", r=1.0, conj=False)  # 1.5 z an integer
def test_plane_wave_factor_cached_rule_matches_direct(q, z, window, r, conj):
    # the sphere factor on the cached polar rule, on a miss and on a hit,
    # against the polar quadrature built afresh, relative to the integral
    # of |integrand|, |S^{q-1}| max |psi_hat|
    win = _G_WINDOWS[window]
    psi_hat = None if win is None else win.psi_hat
    scale = sphere_volume(q - 1) * (1.0 if win is None else np.max(
        np.abs(win.psi_hat(np.linspace(-r, r, 2001)))))
    want = plane_wave_factor_polar(q, z, psi_hat, r, conj)
    for _ in range(2):
        got = _plane_wave_factor_quadrature(q, z, psi_hat=psi_hat, r=r,
                                            conj=conj)
        assert abs(got - want) <= 1e-13 * scale


def test_cached_rules_are_read_only():
    _plane_wave_factor_quadrature(4, 30.0)
    _plane_wave_factor_closed(4, 30.0)
    rules = list(_POLAR_RULES.values()) + [_poisson_rule(4, 48),
                                           _poisson_rule(5, 48)]
    for rule in rules:
        for row in rule:  # the rows the callers unpack
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.0


def test_rule_caches_memory_bounded():
    # a sweep of the cached rules over q in 2..7 and z in [0, 500], with and
    # without a window, asks for about 19,000 polar panels in all, over four
    # times the polar cache's bound of 4,096 panels (1.4 MB): 2.4 MB measured,
    # 7.4 MB if the polar cache were never emptied
    fejer = _G_WINDOWS["fejer"].psi_hat
    _POLAR_RULES.clear()
    _poisson_rule.cache_clear()
    tracemalloc.start()
    try:
        for q in range(2, 8):
            for z in np.linspace(0.0, 500.0, 51):
                _plane_wave_factor_quadrature(q, z)
                _plane_wave_factor_quadrature(q, z, psi_hat=fejer, r=0.8)
                _plane_wave_factor_closed(q, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
    # a rule above the bound on its own (4,502 panels at z = 3000) is neither
    # kept nor allowed to empty the cache
    held = dict(_POLAR_RULES)
    _plane_wave_factor_quadrature(2, 3000.0)
    assert held and list(_POLAR_RULES) == list(held)


# ------------------------------------------------------------ model integral

def _fit_slope(x, y):
    X = np.log(np.asarray(x, dtype=float))
    Y = np.log(np.asarray(y, dtype=float))
    A = np.vstack([X, np.ones_like(X)]).T
    (slope, _), *_ = np.linalg.lstsq(A, Y, rcond=None)
    return float(slope)


def test_model_integral_scaling_31():
    lams = np.geomspace(20, 200, 8)
    vals = [abs(model_integral(3, 1, float(l)).value) for l in lams]
    slope = _fit_slope(lams, vals)
    assert abs(slope - (-1.0)) < 0.1  # -(d-1) - (n-d)/2


def test_model_integral_scaling_32():
    lams = np.geomspace(20, 200, 8)
    vals = [abs(model_integral(3, 2, float(l)).value) for l in lams]
    slope = _fit_slope(lams, vals)
    assert abs(slope - (-1.5)) < 0.1


def test_model_integral_window_ratio_matches_pairing():
    # ratio across two windows approaches the ratio of the regularized
    # pairings int psi_hat (s + i0)^{-(n-d)/2} ds (the universal constant
    # cancels); real ratios for even nonnegative windows
    n, d = 3, 1
    w1 = make_test_function("fejer", 0.3)
    w2 = make_test_function("bumpsquare", 0.3)
    lam = 180.0
    v1 = model_integral(n, d, lam, window=w1).value
    v2 = model_integral(n, d, lam, window=w2).value
    got = (v1 / v2).real
    p1 = regularized_pairing(w1.psi_hat, (-0.3, 0.3), 1.0)
    p2 = regularized_pairing(w2.psi_hat, (-0.3, 0.3), 1.0)
    expected = (p1 / p2).real
    assert abs(v1 / v2 - expected) / abs(expected) < 0.05


_SP_CASES = {
    # criterion 8's cutoffs and shifted-bump windows
    (3, 1): (ModelCutoff(d=1, width=0.98, plateau=0.75),
             shifted_bump_window(0.3, 0.6)),
    (3, 2): (ModelCutoff(d=2, width=0.69, taper="bump", width_tangent=0.25),
             shifted_bump_window(0.35, 0.65)),
    (4, 2): (ModelCutoff(d=2, width=0.69, taper="bump", width_tangent=0.25),
             shifted_bump_window(0.35, 0.65)),
}


def test_model_integral_sp_agreement_31():
    # psi_hat supported away from 0 inside the cutoff plateau: the phase is
    # exactly quadratic in the remaining variables, so the model integral
    # agrees with the stationary-phase prediction up to boundary terms that
    # decay faster than any relevant power
    cutoff, win = _SP_CASES[(3, 1)]
    errs = []
    for lam in (60.0, 100.0, 200.0):
        got = model_integral(3, 1, lam, cutoff=cutoff, window=win).value
        pred = model_integral_leading(3, 1, lam, cutoff=cutoff, window=win)
        errs.append(abs(got - pred) / abs(pred))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.03


def test_model_integral_sp_agreement_42_order():
    # with a curved (non-plateau) cutoff the first stationary-phase
    # correction is alive; agreement with the leading prediction is
    # O(1/lambda) relative: lambda * err stays bounded across the ladder
    co, win = _SP_CASES[(4, 2)]
    lams = np.geomspace(20, 200, 8)
    errs = []
    for lam in lams:
        got = model_integral(4, 2, float(lam), cutoff=co, window=win,
                             rel_tol=1e-5).value
        pred = model_integral_leading(4, 2, float(lam), cutoff=co, window=win)
        errs.append(abs(got - pred) / abs(pred))
    scaled = np.asarray(errs) * np.asarray(lams)
    assert np.max(scaled) < 40.0
    assert errs[-1] < 0.05


@pytest.mark.parametrize("n, d", sorted(_SP_CASES))
def test_model_integral_leading_error_is_order_one_over_lambda(n, d):
    # alpha <= 1: got/pred = 1 + O(1/lambda); measured max 10.9 at (4,2),
    # lambda = 100
    co, win = _SP_CASES[(n, d)]
    for lam in (100.0, 200.0, 400.0):
        got = model_integral(n, d, lam, cutoff=co, window=win,
                             rel_tol=1e-6 if d == 1 else 1e-5).value
        pred = model_integral_leading(n, d, lam, cutoff=co, window=win)
        assert lam * abs(got / pred - 1.0) <= 20.0


@pytest.mark.parametrize("n, d", [(3, 1), (4, 2)])
def test_model_integral_leading_matches_inline_moment(n, d):
    # the hand-written formula with the 16-panel, order-12 moment (the less
    # converged side: 5e-11 from a 256-panel, order-20 rule); the (3,1)
    # plateau profile is exactly 1 on the window, as the old formula took it
    co, win = _SP_CASES[(n, d)]
    lo, hi = win.support
    x, w = composite_gauss_legendre(np.linspace(lo, hi, 17), order=12)
    moment = np.sum(w * co.profile(x) * win.psi_hat(x) / x)
    for lam in (60.0, 200.0):
        pred = (2 * PI / lam) ** d * np.exp(-1j * PI / 2) * moment
        got = model_integral_leading(n, d, lam, cutoff=co, window=win)
        assert abs(got - pred) <= 1e-10 * abs(pred)


def test_model_integral_leading_needs_window_away_from_zero():
    co, _ = _SP_CASES[(4, 2)]
    with pytest.raises(ValidationError):
        model_integral_leading(4, 2, 50.0, cutoff=co)  # no window
    for bad in (make_test_function("fejer", 0.6),
                shifted_bump_window(-0.1, 0.5),
                shifted_bump_window(0.2, math.inf)):
        with pytest.raises(ValidationError):
            model_integral_leading(4, 2, 50.0, cutoff=co, window=bad)


def _no_window(s):
    return np.ones_like(np.asarray(s, dtype=float))


def test_model_integral_42_polar_matches_x1_loop():
    # the polar pass against the x_1-then-R loop at the same refine
    co = ModelCutoff(d=2, width=0.69, taper="bump", width_tangent=0.25)
    win = shifted_bump_window(0.35, 0.65)
    for lam in (20.0, 40.0, 120.0):
        got = model_integral(4, 2, lam).value
        ref = model_integral_d2_loop(4, lam)
        assert abs(got - ref) <= 1e-10 * abs(ref)
        got = model_integral(4, 2, lam, cutoff=co, window=win,
                             rel_tol=1e-5).value
        ref = model_integral_d2_loop(4, lam, cutoff=co, psi_hat=win.psi_hat,
                                     a_supp=0.65)
        assert abs(got - ref) <= 1e-10 * abs(ref)


def test_model_integral_32_polar_converged():
    # at n = 3 the x_1 loop under-resolves the sqrt(1 - x_1^2) edge of the
    # disc at refine 1.6 (relative bias ~5e-7 at lambda = 20); the polar
    # value is already converged there and the loop approaches it at refine 4
    co = ModelCutoff(d=2)
    lam = 20.0
    fine = model_integral(3, 2, lam).value
    dense, _ = _model_integral_once(3, 2, lam, co, _no_window, co.width, 4.0)
    assert abs(fine - dense) <= 1e-10 * abs(dense)
    ref = model_integral_d2_loop(3, lam, refine=4.0)
    assert abs(dense - ref) <= 1e-6 * abs(ref)


def test_model_integral_panels_of_fine_pass():
    lam = 120.0
    co = ModelCutoff(d=2)
    res = model_integral(4, 2, lam)
    # the d = 2 grid adds uniform panels for the kernel's linear phase
    _, fine_panels = _model_integral_once(4, 2, lam, co, _no_window,
                                          co.width, 1.6)
    assert res.panels == fine_panels
    assert res.panels > len(_graded_phase_breakpoints(lam, co.width, 1.6)) - 1
    assert (model_integral(3, 1, lam).panels
            == len(_graded_phase_breakpoints(lam, 0.98, 1.6)) - 1)


_G_WINDOWS = {
    "none": None,
    "fejer": make_test_function("fejer", 0.6),
    "bumpsquare": make_test_function("bumpsquare", 0.5),
    "shifted": shifted_bump_window(0.35, 0.65),
}


def _psi_hat_and_support(win, co):
    if win is None:
        return _no_window, co.width
    return win.psi_hat, max(abs(x) for x in win.support)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(min_value=2.0, max_value=2000.0),
       refine=st.sampled_from([1.0, 1.6, 4.0]),
       taper=st.sampled_from(["plateau", "bump"]),
       window=st.sampled_from(sorted(_G_WINDOWS)))
def test_fourier_on_panels_matches_dense(lam, refine, taper, window):
    # the panel-factored G against the dense transform on the same s-nodes,
    # u over [0, lam / 2] (the range the radial passes ask for)
    co = ModelCutoff(d=1, taper=taper)
    psi_hat, a_supp = _psi_hat_and_support(_G_WINDOWS[window], co)
    u = np.linspace(0.0, 0.5 * lam, 301)
    smax = min(co.width, a_supp)
    got = _fourier_on_panels(lambda s: co.profile(s) * psi_hat(s), smax,
                             model_s_half_panels(lam, smax, refine), u)
    ref = model_G_dense(lam, co, psi_hat, a_supp, refine)(u)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(min_value=0.1, max_value=5000.0),
       refine=st.sampled_from([1.0, 1.6, 4.0]),
       phase_scale=st.floats(min_value=0.25, max_value=1.0))
def test_graded_phase_breakpoints_match_loop(lam, refine, phase_scale):
    # the one-repeat breakpoints against one np.linspace per dyadic interval
    assert np.array_equal(_graded_phase_breakpoints(lam, phase_scale, refine),
                          graded_phase_breakpoints_loop(lam, phase_scale,
                                                        refine))


def test_model_integral_memory_bounded():
    # the (u, panel) exp block is formed in bounded row blocks, so the peak
    # no longer grows as lambda^2 (about 47 MB when formed whole)
    model_integral(3, 1, 20.0)
    tracemalloc.start()
    try:
        model_integral(3, 1, 2000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("lam", [20.0, 200.0])
@pytest.mark.parametrize("window", ["none", "fejer", "bumpsquare"])
def test_model_integral_d1_matches_dense(n, lam, window):
    # the d = 1 value against its recomputation with the dense transform
    co = ModelCutoff(d=1)
    res = model_integral(n, 1, lam, window=_G_WINDOWS[window])
    ref, panels = model_integral_d1_dense(
        n, lam, co, *_psi_hat_and_support(_G_WINDOWS[window], co))
    assert abs(res.value - ref) <= 1e-12 * abs(ref)
    assert res.panels == panels


def test_model_integral_accuracy_error():
    with pytest.raises(AccuracyError) as info:
        model_integral(3, 1, 150.0, rel_tol=1e-16)
    assert info.value.achieved is not None


def test_model_integral_validation():
    # the leading term shares the integral's argument checks
    win = shifted_bump_window(0.35, 0.65)
    for fn in (model_integral, model_integral_leading):
        with pytest.raises(ValidationError):
            fn(3, 3, 50.0, window=win)
        with pytest.raises(ValidationError):
            fn(5, 3, 50.0, window=win)  # d > 2 unsupported at desk scale
        with pytest.raises(ValidationError):
            fn(4, 2, 0.0, window=win)
        with pytest.raises(ValidationError):
            # the indicator's psi_hat is not compactly supported
            fn(3, 1, 50.0, window=make_test_function("sharp", 0.5))
        with pytest.raises(ValidationError):
            # a cutoff built for another dimension
            fn(4, 2, 20.0, cutoff=ModelCutoff(d=1), window=win)


@pytest.mark.parametrize("d", [0, -1, 0.5])
def test_model_cutoff_rejects_dimension_below_one(d):
    with pytest.raises(ValidationError):
        ModelCutoff(d=d)


# --------------------------------------------------------- stationary phase

def _gaussian_bump_amplitude(width):
    def amp(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = np.sum(np.atleast_2d(pts) ** 2, axis=-1) / width ** 2
        out = np.zeros_like(r2)
        m = r2 < 1.0
        out[m] = np.exp(1.0 - 1.0 / (1.0 - r2[m]))
        return out.reshape(np.asarray(pts).shape[:-1]) if np.asarray(
            pts).ndim > 1 else float(out[0])
    return amp


def test_stationary_phase_1d_quadratic():
    phase = lambda p: np.sum(np.atleast_2d(p) ** 2, axis=-1) if np.asarray(
        p).ndim > 1 else float(np.sum(np.asarray(p) ** 2))
    amp = _gaussian_bump_amplitude(0.8)
    problem = PhaseProblem(
        dimension=1, phase=phase, amplitude=amp,
        critical_points=(CriticalPoint(point=np.array([0.0]),
                                       hessian=np.array([[2.0]])),))
    lam = 50.0
    lead = stationary_phase_leading(problem, lam)
    brute = brute_oscillatory_integral(problem, lam, [(-0.8, 0.8)])
    assert abs(brute - lead) / abs(lead) < 0.02
    probe = stationary_phase_error_probe(problem, [(-0.8, 0.8)],
                                         np.geomspace(25, 200, 6))
    assert abs(probe["slope"] - (-1.0)) < 0.3


def test_stationary_phase_2d_error_slope():
    def phase(p):
        p = np.atleast_2d(p)
        return p[..., 0] ** 2 - p[..., 1] ** 2

    bump = _gaussian_bump_amplitude(0.7)

    def amp(pts):
        # asymmetry keeps the first correction term alive for the saddle
        base = bump(pts)
        x = np.atleast_2d(pts)[..., 0]
        out = base * (1.0 + 0.5 * x * x)
        return out if np.asarray(pts).ndim > 1 else float(out)

    hess = np.diag([2.0, -2.0])
    problem = PhaseProblem(
        dimension=2, phase=phase, amplitude=amp,
        critical_points=(CriticalPoint(point=np.zeros(2), hessian=hess),))
    probe = stationary_phase_error_probe(problem, [(-0.7, 0.7)] * 2,
                                         np.geomspace(30, 150, 5), panels=90)
    assert abs(probe["slope"] - (-1.0)) < 0.3


def test_stationary_phase_rejects_non_critical_listing():
    phase = lambda p: float(np.sum(np.asarray(p) ** 2) + np.sum(np.asarray(p)))
    problem = PhaseProblem(
        dimension=1, phase=phase, amplitude=lambda p: 1.0,
        critical_points=(CriticalPoint(point=np.array([0.0]),
                                       hessian=np.array([[2.0]])),))
    with pytest.raises(ValidationError):
        stationary_phase_leading(problem, 10.0)


def test_stationary_phase_single_point_values_shape_one_or_scalar():
    # batch-contract callables return shape (1,) for a (1, 2) batch
    def phase(p):
        p = np.atleast_2d(p)
        return p[..., 0] ** 2 - p[..., 1] ** 2

    def amp(p):
        p = np.atleast_2d(p)
        return np.exp(-np.sum(p * p, axis=-1)) * (2.0 + p[..., 0])

    saddle = (CriticalPoint(point=np.zeros(2), hessian=np.diag([2.0, -2.0])),)
    lam = 40.0
    want = (2.0 * np.pi / lam) * 4.0 ** -0.5 * 2.0
    batch = PhaseProblem(dimension=2, phase=phase, amplitude=amp,
                         critical_points=saddle)
    assert np.asarray(phase(np.zeros((1, 2)))).shape == (1,)
    lead = stationary_phase_leading(batch, lam)
    assert abs(lead - want) <= 1e-12 * abs(want)

    scalar = PhaseProblem(
        dimension=2, phase=lambda p: float(np.ravel(phase(p))[0]),
        amplitude=lambda p: float(np.ravel(amp(p))[0]),
        critical_points=saddle)
    assert stationary_phase_leading(scalar, lam) == lead

    shifted = PhaseProblem(
        dimension=2, phase=lambda p: phase(p) + np.atleast_2d(p)[..., 0],
        amplitude=amp, critical_points=saddle)
    with pytest.raises(ValidationError):
        stationary_phase_leading(shifted, lam)


def test_brute_oracle_guards():
    problem = PhaseProblem(dimension=4, phase=lambda p: 0.0,
                           amplitude=lambda p: 1.0, critical_points=())
    with pytest.raises(ResourceGuardError):
        brute_oscillatory_integral(problem, 10.0, [(-1, 1)] * 4)


# -------------------------------------------------------------- model Hessian

def test_full_hessian_rank_drop():
    # rank 2d-2 at y = 0 versus n+d-2 at y != 0
    for (n, d) in [(4, 2), (5, 3), (3, 2)]:
        _, r0 = full_model_hessian_rank(n, d, 0.0)
        _, r1 = full_model_hessian_rank(n, d, 0.6)
        assert r0 == 2 * d - 2
        assert r1 == n + d - 2


# ---------------------------------------------------------- Hadamard transport

def test_hadamard_flat_trivial():
    r = np.linspace(0.05, 3.0, 40)
    out = hadamard_transport(RadialMetric("flat", 3), 2, r)
    assert np.all(out.W[0] == 1.0)
    assert np.all(out.W[1] == 0.0) and np.all(out.W[2] == 0.0)
    assert out.transport_residuals == [0.0, 0.0, 0.0]


def test_hadamard_sphere_theta():
    r = np.linspace(0.05, PI - 0.1, 50)
    out = hadamard_transport(RadialMetric("sphere", 3), 0, r)
    assert np.max(np.abs(out.theta - (np.sin(r) / r) ** 2)) < 1e-12
    assert np.max(np.abs(out.W[0] - (np.sin(r) / r) ** -1.0)) < 1e-12


def test_hadamard_w0_residual():
    r = np.linspace(0.05, PI - 0.1, 80)
    out = hadamard_transport(RadialMetric("sphere", 3), 1, r)
    assert out.transport_residuals[0] < 1e-10
    assert out.transport_residuals[1] < 1e-8


def test_hadamard_sphere3_closed_forms():
    # on S^3 the transport chain closes: Delta W_0 = W_0, hence
    # W_j = W_0 / j! exactly
    r = np.linspace(0.05, PI - 0.1, 60)
    out = hadamard_transport("sphere:3", 2, r)
    assert np.max(np.abs(out.W[1] - out.W[0])) < 1e-9
    assert np.max(np.abs(out.W[2] - out.W[0] / 2.0)) < 1e-7
    # tighter away from the conjugate point
    inner = r <= 2.6
    assert np.max(np.abs((out.W[2] - out.W[0] / 2.0)[inner])) < 1e-8


def test_hadamard_higher_order_residuals_moderate_range():
    # absolute residuals scale with the amplitude (r/sin r)^{(n-1)/2}, so the
    # validated range shrinks slightly for the larger ambient dimension
    for n, rmax in ((2, 2.6), (3, 2.6), (5, 2.4)):
        r = np.linspace(0.05, rmax, 50)
        out = hadamard_transport(RadialMetric("sphere", n), 2, r)
        assert out.transport_residuals[1] < 1e-8
        assert out.transport_residuals[2] < 1e-8


def test_hadamard_residuals_near_conjugate_point():
    # every transport residual up to r = pi - 0.1, where the amplitudes grow
    # as (r / sin r)^{(n-1)/2}.  Measured on this grid: S^2 <= 2.3e-13,
    # S^3 <= 5.1e-13, S^5 2.7e-11, 7.3e-11, 4.7e-10, 9.9e-10 for j = 0..3;
    # the bounds leave about 10x headroom on S^5 (20x on S^3, 40x on S^2).
    r = np.linspace(0.05, PI - 0.1, 200)
    for n, bound in ((2, 1e-11), (3, 1e-11), (5, 1e-8)):
        out = hadamard_transport(RadialMetric("sphere", n), 3, r)
        assert max(out.transport_residuals) <= bound


def test_hadamard_w0_matches_closed_form():
    r = np.linspace(0.05, PI - 0.1, 80)
    for n in (2, 3, 4, 5, 7):
        out = hadamard_transport(RadialMetric("sphere", n), 0, r)
        want = (r / np.sin(r)) ** ((n - 1) / 2.0)
        assert np.max(np.abs(out.W[0] / want - 1.0)) <= 1e-13


def test_hadamard_sphere3_chain_to_rounding():
    # W_j = W_0 / j! on S^3, pointwise relative to W_0, up to the supported
    # radius
    for r_max in (PI - 0.1, SPHERE_R_MAX):
        r = np.linspace(0.05, r_max, 80)
        out = hadamard_transport("sphere:3", 3, r)
        for j in range(4):
            assert np.all(np.abs(out.W[j] - out.W[0] / math.factorial(j))
                          <= 1e-11 * out.W[0])


def test_hadamard_odd_spheres_shifted_series_terminates():
    # on odd S^n the Hadamard series of Delta + c, c = ((n-1)/2)^2, ends
    # before j = (n-1)/2: its coefficients
    # sum_{i<=j} (-c)^i / i! W_{j-i} vanish from there on
    r = np.linspace(0.05, PI - 0.1, 80)
    for n in (3, 5, 7):
        W = hadamard_transport(RadialMetric("sphere", n), 3, r).W
        c = ((n - 1) / 2.0) ** 2
        for j in range((n - 1) // 2, 4):
            shifted = sum((-c) ** i / math.factorial(i) * W[j - i]
                          for i in range(j + 1))
            assert np.max(np.abs(shifted)) <= 1e-10 * np.max(np.abs(W[j]))


def test_hadamard_w1_matches_mpmath_even_spheres():
    r = np.array([0.5, 1.5, 2.5, 3.0])
    for n in (2, 4):
        got = hadamard_transport(RadialMetric("sphere", n), 1, r).W[1]
        want = np.array([hadamard_w1_mpmath(n, rv) for rv in r])
        assert_allclose(got, want, rtol=1e-12, atol=0)


def test_zeta_even_matches_mpmath():
    # every zeta(2k) the transport reads up to SPHERE_R_MAX (K = 2,267 terms
    # there; q reads zeta(2K)), and a margin beyond
    K = 2282
    got = _zeta_even(K)
    with mpmath.workdps(30):
        rel = [abs(mpmath.mpf(float(g)) / mpmath.zeta(2 * k) - 1)
               for k, g in enumerate(got, start=1)]
    assert max(rel) <= 4e-16


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), j_max=st.integers(0, 3),
       r=st.lists(st.floats(0.01, SPHERE_R_MAX), min_size=1, max_size=200))
@example(n=5, j_max=1, r=[2.9645264559308107])
def test_hadamard_matches_miller_oracle(n, j_max, r):
    # the zeta(2k) series summed by baby and giant steps against the sin r / r
    # series raised by Miller's recurrence and summed by Horner; at the
    # example a float64 oracle erred by 1.9e-12, the package by 3.6e-14
    r = np.sort(r)
    got = hadamard_transport(RadialMetric("sphere", n), j_max, r).W
    want = sphere_transport_miller(n, j_max, r)
    for g, w in zip(got, want, strict=True):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_hadamard_large_grid_memory_bounded():
    # the (row, giant step, radius) table is formed in blocks of radii:
    # formed whole at 20,000 radii it would take about 125 MB
    r = np.linspace(0.05, SPHERE_R_MAX, 20_000)
    tracemalloc.start()
    try:
        hadamard_transport("sphere:5", 3, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_hadamard_guards():
    with pytest.raises(ValidationError):
        hadamard_transport("sphere:3", 1, np.linspace(0.1, 3.2, 10))
    # beyond the supported radius, short of the conjugate point
    for grid in ([1.0, 3.14], [3.135], [SPHERE_R_MAX + 1e-9]):
        with pytest.raises(ValidationError, match="conjugate point"):
            hadamard_transport("sphere:3", 2, grid)
    # the flat metric has no conjugate point
    assert hadamard_transport("flat:3", 1, [5.0]).W[0][0] == 1.0
    for metric in ("sphere:3", "flat:3"):
        with pytest.raises(ValidationError, match="nonempty"):
            hadamard_transport(metric, 1, [])
        with pytest.raises(ValidationError, match="positive"):
            hadamard_transport(metric, 1, [0.5, np.nan])
    with pytest.raises(ValidationError):
        hadamard_transport("sphere:3", 5, np.linspace(0.1, 1.0, 10))
    with pytest.raises(ValidationError):
        hadamard_transport("saddle:3", 1, np.linspace(0.1, 1.0, 10))


# ----------------------------------------------------------- sphere wave kernel

def test_wave_kernel_circle_geometric_series():
    # n = 1: explicit geometric series sum_N e^{iNt} cos(Nr)/pi + 1/(2 pi)
    t = 1.3 + 0.5j
    for r in (0.4, 2.0):
        closed = sphere_wave_kernel(1, t, r)
        series = sphere_zonal_sum(1, t, r, 10_000)
        assert abs(closed - series) < 1e-8


def test_wave_kernel_even_in_r():
    t = 0.9 + 0.4j
    r = np.array([0.7, -0.7])
    vals = sphere_wave_kernel(3, t, r)
    assert vals[0] == vals[1]


def test_wave_kernel_mode_sum_n3():
    t = 2.1 + 0.3j
    for r in (0.5, 1.8, 2.9):
        closed = sphere_wave_kernel(3, t, r)
        series = sphere_zonal_sum(3, t, r, 400)
        assert abs(closed - series) < 1e-6


def test_zonal_sum_matches_per_degree_gegenbauer():
    t = 1.7 + 0.2j
    for n in (2, 3, 5):
        a = (n - 1) / 2.0
        for r in (0.0, 1.1, PI):
            terms = [np.exp(1j * N * t) * (2 * N + n - 1)
                     / ((n - 1) * sphere_volume(n))
                     * gegenbauer(N, a, math.cos(r)) for N in range(100)]
            got = sphere_zonal_sum(n, t, r, 100)
            # rounding of a sum with cancellation: relative to sum |term|
            assert abs(got - sum(terms)) <= 1e-13 * sum(map(abs, terms))


def test_wave_kernel_domain_error():
    with pytest.raises(ValidationError):
        sphere_wave_kernel(2, 1.0, 0.5)
    with pytest.raises(ValidationError):
        sphere_wave_kernel(2, 1.0 - 0.2j, 0.5)
