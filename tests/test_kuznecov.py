import dataclasses
import functools
import math
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kuzweyl import kuznecov
from kuzweyl.errors import (
    TailBoundWarning,
    TruncationRiskError,
    ValidationError,
)
from kuzweyl.kuznecov import (
    averaged_sharp_sum,
    dominating_test_function,
    doubly_smoothed_sum,
    dual_trace,
    eigenvalue_jumps,
    jump,
    kuznecov_sum,
    make_test_function,
    sharp_sum,
    shifted_bump_window,
)
from kuzweyl.model_spectra import enumerate_spectrum, sphere_pair, torus_pair
from kuzweyl.restriction_coeffs import (
    build_table,
    load_or_build,
    sphere_coefficients,
    torus_coefficients,
)
from kuzweyl.special_functions import (
    composite_gauss_legendre,
    gauss_legendre,
)

from oracles import (
    assoc_legendre,
    averaged_sharp_sum_full_rows,
    bump_g_direct,
    bump_g_grid_loop,
    bump_psi_hat_u_convolution,
    doubly_smoothed_loop,
    dual_trace_loop,
    eigenvalue_jumps_argsort,
    entry_view,
    entry_weights,
    sharp_sum_full_rows,
)

PI = math.pi


@pytest.fixture(scope="module")
def torus21_table():
    return torus_coefficients(
        enumerate_spectrum(torus_pair(2, 1), 35.0, h_cutoff=46.0))


@pytest.fixture(scope="module")
def sphere21_table():
    return sphere_coefficients(
        enumerate_spectrum(sphere_pair(2, 1), 26.0, h_cutoff=27.0))


# ------------------------------------------------------------ test functions

def test_fejer_values():
    f = make_test_function("fejer", 1.0)
    assert f.psi(0.0) == pytest.approx(1 / (2 * PI), rel=1e-14)
    x = 1.7
    assert f.psi(x) == pytest.approx(
        (1 / (2 * PI)) * (math.sin(x / 2) / (x / 2)) ** 2, rel=1e-13)
    assert f.psi_hat(0.0) == 1.0
    assert f.psi_hat(0.25) == 0.75
    assert f.psi_hat(1.0) == 0.0
    assert f.psi_hat(3.1) == 0.0


def test_fejer_fourier_consistency():
    # psi(x) = (1/2pi) int psi_hat(s) e^{isx} ds by direct quadrature of the
    # triangle
    f = make_test_function("fejer", 1.0)
    nodes, w = composite_gauss_legendre(np.linspace(-1, 1, 9), order=16)
    tri = f.psi_hat(nodes)
    for x in (0.0, 0.9, 4.4):
        direct = float(np.sum(w * tri * np.cos(nodes * x))) / (2 * PI)
        assert f.psi(x) == pytest.approx(direct, abs=1e-13)


def test_bumpsquare_properties():
    b = make_test_function("bumpsquare", 1.0)
    grid = np.linspace(-40, 40, 4001)
    assert np.min(b.psi(grid)) >= 0.0
    assert b.psi_hat(1.0) == 0.0 and b.psi_hat(-1.0) == 0.0
    assert b.psi_hat(0.0) > 0.0
    s = np.linspace(1.0001, 5, 50)
    assert np.max(np.abs(b.psi_hat(s))) < 1e-12


@pytest.mark.parametrize("a", [0.3, 1.0, 2.0])
def test_bumpsquare_grid_matches_direct_transform(a):
    b = make_test_function("bumpsquare", a)
    nodes, w = composite_gauss_legendre(np.linspace(-a, a, 81), order=16)
    ph = b.psi_hat(nodes)
    for x in (0.0, 0.7, 3.3, 11.0, 25.0):
        direct = float(np.sum(w * ph * np.cos(nodes * x))) / (2 * PI)
        assert b.psi(x) == pytest.approx(direct, abs=1e-11)


def test_bumpsquare_fft_grid_matches_cosine_loop():
    # at a = 1, g(x) = g_1(x/2)/2 and the table step 1/1024 in y is the
    # loop's step a/512 in x
    n = 120 * 512 + 1
    loop = bump_g_grid_loop(1.0, 120.0)
    assert np.max(np.abs(0.5 * kuznecov._g1_table()[:n] - loop[:n])) <= 1e-16


def test_bumpsquare_psi_hat_matches_u_convolution():
    # the mirror-symmetric profile B = bump * bump against the convolution
    # over the whole overlap in u; measured <= 1.4e-16
    for a in (0.3, 1.0, 2.5):
        s = np.linspace(-1.1 * a, 1.1 * a, 301)
        got = make_test_function("bumpsquare", a).psi_hat(s)
        assert np.max(np.abs(got - bump_psi_hat_u_convolution(a, s))) <= 1e-15


def test_bumpsquare_psi_hat_is_even_bit_for_bit():
    # psi_hat is evaluated once per distinct |s|: -s reads the value of s,
    # in one call and across calls
    rng = np.random.default_rng(7)
    for a in (0.3, 1.0, 2.5):
        f = make_test_function("bumpsquare", a)
        s = rng.uniform(-1.1 * a, 1.1 * a, 257)
        both = f.psi_hat(np.concatenate([s, -s]))
        assert np.array_equal(both[:257], both[257:])
        assert np.array_equal(f.psi_hat(-s), f.psi_hat(s))
        assert all(f.psi_hat(-x) == f.psi_hat(x) for x in s[:9])
        # each |s| summed on its own: one call of many points reads each
        # point's value of a call of one
        assert np.array_equal(f.psi_hat(s), [f.psi_hat(x) for x in s])


@pytest.mark.parametrize("a", [0.3, 1.0, 2.0])
def test_bumpsquare_psi_matches_direct_quadrature(a):
    b = make_test_function("bumpsquare", a)
    x = np.concatenate([np.linspace(0.0, 816.0, 61) + 0.37,
                        -np.linspace(1.0, 816.0, 23)])
    got = b.psi(x)
    assert np.max(np.abs(got - bump_g_direct(a, x) ** 2)) <= 1e-13
    # the FFT's alias is largest just below the top of the kept range
    top = (len(kuznecov._g1_table()) - 2) / (512 * a)
    xt = top - np.array([1e-3, 0.3, 1.7])
    assert np.max(np.abs(b.psi(xt) - bump_g_direct(a, xt) ** 2)) <= 1e-13
    assert np.max(np.abs(b._g_eval(xt) - bump_g_direct(a, xt))) <= 1e-15



@pytest.mark.parametrize("a", [1.0, 2.0])
def test_bumpsquare_g_even_stencil_at_zero(a):
    # below the first node the stencil reaches node -1, which is node 1 by
    # the evenness of g (a clipped stencil extrapolates: 7e-15 off at x = 0)
    b = make_test_function("bumpsquare", a)
    x = np.array([0.0, 1e-4, 1e-3])
    assert np.max(np.abs(b._g_eval(x) - bump_g_direct(a, x))) <= 1e-15


def _count_ffts(monkeypatch) -> list:
    """Record the length of every irfft, starting from an empty g_1 table
    store (a fresh cache in place of the module's)."""
    calls = []
    irfft = np.fft.irfft

    def counted(values, n):
        calls.append(n)
        return irfft(values, n)

    monkeypatch.setattr(np.fft, "irfft", counted)
    monkeypatch.setattr(kuznecov, "_g1_table", functools.lru_cache(maxsize=1)(
        kuznecov._g1_table.__wrapped__))
    return calls


def test_dominating_window_then_large_sum_is_one_fft(monkeypatch):
    calls = _count_ffts(monkeypatch)
    psi = dominating_test_function(0.5)
    psi.psi(311.0)
    assert len(calls) == 1, calls


@pytest.mark.parametrize("eps", [-0.5, math.nan, math.inf])
def test_dominating_window_rejects_bad_eps(eps):
    with pytest.raises(ValidationError):
        dominating_test_function(eps)


def test_bumpsquare_grid_growth(monkeypatch):
    # the g_1 table is fixed: evaluating farther out neither grows nor
    # rebuilds it, and psi is 0 beyond its end
    calls = _count_ffts(monkeypatch)
    b = make_test_function("bumpsquare", 1.0)
    b.psi(100.0)
    first = kuznecov._g1_table()
    assert b.psi(500.0) > 0.0 and kuznecov._g1_table() is first
    # beyond y = a x / 2 = 256, |g| < 1e-16 psi(0): psi is 0 there
    assert b.psi(1e6) == 0.0 and b.psi(-3e6) == 0.0
    assert kuznecov._g1_table() is first and len(calls) == 1, calls
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.scale = 2.0


def test_bumpsquare_windows_share_one_fft_per_length(monkeypatch):
    calls = _count_ffts(monkeypatch)
    loop = bump_g_grid_loop(1.0, 120.0)
    n = 120 * 512 + 1
    x = np.linspace(-816.0, 816.0, 4001)
    for a in (0.3, 1.0, 2.5):
        b = make_test_function("bumpsquare", a)
        values = b.psi(x)
        # the table ends below y = a|x|/2 = 256, where psi < 1e-16 psi(0)
        beyond = 0.5 * a * np.abs(x) >= 256.0
        assert np.all(values[beyond] == 0.0) and np.all(values[~beyond] > 0.0)
        # g for radius a at x_k = k/(512 a) is a times g for a = 1 at k/512
        xk = np.arange(n) / (512 * a)
        assert np.max(np.abs(b._g_eval(xk) / a - loop[:n])) <= 1e-15
    # one table length, one irfft, for every window
    assert calls == [10 << 17]
    assert not kuznecov._g1_table().flags.writeable


def test_bumpsquare_grid_memory():
    b = make_test_function("bumpsquare", 1.0)
    tracemalloc.start()
    try:
        b.psi(816.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48e6


def test_sharp_indicator():
    s = make_test_function("sharp", 0.5)
    assert s.psi_hat(0.0) == 1.0  # 2*eps
    assert s.psi(0.49) == 1.0 and s.psi(0.5) == 1.0 and s.psi(0.51) == 0.0


def test_make_test_function_validation():
    with pytest.raises(ValidationError):
        make_test_function("fejer", -1.0)
    with pytest.raises(ValidationError):
        make_test_function("gauss", 1.0)
    assert make_test_function("sharp", 0.0).a == 0.0
    with pytest.raises(ValidationError):
        make_test_function("fejer", 0.0)


@pytest.mark.parametrize("kind", ["fejer", "bumpsquare", "sharp"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_test_function_rejects_non_finite_parameters(kind, bad):
    # a NaN or infinite a once passed and gave sums of NaN
    with pytest.raises(ValidationError):
        make_test_function(kind, bad)
    with pytest.raises(ValidationError):
        make_test_function(kind, 1.0, scale=bad)


def test_dominating_function_sandwich_pointwise():
    eps = 0.5
    psi = dominating_test_function(eps, a=1.0)
    grid = np.linspace(-eps, eps, 801)
    assert np.min(psi.psi(grid)) >= 1.0 - 1e-12


def test_shifted_bump_window():
    win = shifted_bump_window(0.5, 1.0)
    assert win.psi_hat(0.75) == pytest.approx(1.0)
    assert win.psi_hat(0.49) == 0.0 and win.psi_hat(1.01) == 0.0


# --------------------------------------------------------------------- sums

def test_kuznecov_sum_against_brute_lattice_loop(torus21_table):
    # independent double loop over Z^2 without the coefficient table
    psi = make_test_function("fejer", 1.0)
    grid = np.array([10.0, 20.0, 30.0])
    st = kuznecov_sum(torus21_table, 1.0, psi, grid)
    for gi, lam in enumerate(grid):
        total = 0.0
        L = int(lam) + 1
        for m1 in range(-L, L + 1):
            for m2 in range(-L, L + 1):
                norm = math.hypot(m1, m2)
                if norm <= lam:
                    total += psi.psi(norm - abs(m1)) / (2 * PI)
        assert st.values[gi] == pytest.approx(total, rel=1e-12)


def test_sharp_equals_kuznecov_with_indicator(torus21_table):
    grid = np.linspace(5, 30, 11)
    via_psi = kuznecov_sum(torus21_table, 1.0,
                           make_test_function("sharp", 0.5), grid)
    via_eps = sharp_sum(torus21_table, 1.0, 0.5, grid)
    assert np.array_equal(via_psi.values, via_eps.values)


# unequal periods with two eigenvalues 2.9e-9 apart (relative) near 5.888,
# which rounded squared-frequency keys once merged into one eigenspace
_CLOSE_PERIODS = (5.0, 5.625, 7.179515810521716, 7.781053618753076,
                  7.475515804227228)

_BAND_PAIRS = [(torus_pair(2, 1), 30.0),
               (torus_pair(3, 2, (5.0, 6.5, 7.0)), 12.0),
               (sphere_pair(3, 1, "degree"), 30.0),
               (torus_pair(5, 1, _CLOSE_PERIODS), 6.0)]


@pytest.fixture(scope="module")
def band_tables(tmp_path_factory):
    """Each pair's build_table rows and its rows read back from a cache."""
    cache = str(tmp_path_factory.mktemp("band"))
    tables = []
    for pair, lam in _BAND_PAIRS:
        load_or_build(pair, lam, cache)
        tables.append((build_table(pair, lam),
                       load_or_build(pair, lam, cache)))
    return tables


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.5, 3.0])
def test_band_sums_match_full_rows(band_tables, tmp_path, c, eps):
    # the band rows alone give the full-row running sums bit for bit, read
    # from a full table or from a band table of the largest eps sample,
    # built or read back from a cache; the grid holds integers, which are
    # eigenvalues of the equal-period torus and of the degree-normalized
    # sphere
    band, cache = (c, eps * (1 + 0.1)), str(tmp_path)
    for (pair, lam), full in zip(_BAND_PAIRS, band_tables):
        load_or_build(pair, lam, cache, band=band)
        tables = full + (build_table(pair, lam, band=band),
                         load_or_build(pair, lam, cache, band=band))
        grid = np.union1d(np.linspace(0.5, lam, 12), np.arange(1.0, lam + 0.5))
        want = sharp_sum_full_rows(full[0], c, eps, grid)
        for table in tables:
            assert np.array_equal(sharp_sum(table, c, eps, grid).values, want)
        for samples in (1, 5):
            want = averaged_sharp_sum_full_rows(full[0], c, eps, grid,
                                                samples=samples)
            for table in tables:
                got = averaged_sharp_sum(table, c, eps, grid, samples=samples)
                assert np.array_equal(got.values, want)


def test_band_table_rows_are_the_full_rows_in_band():
    # the band builders keep exactly the full table's rows |c lam - mu| <=
    # eps, in its order; unequal periods key clusters of their own rows
    for pair, lam in _BAND_PAIRS:
        full = build_table(pair, lam)
        for c, eps in ((0.0, 0.5), (0.5, 0.3), (1.0, 0.0), (1.0, 0.55)):
            table = build_table(pair, lam, band=(c, eps))
            assert table.band == (c, eps) and full.band is None
            rows = np.flatnonzero(np.abs(c * full.lam - full.mu) <= eps)
            names = ["lam", "mu", "weight"]
            if pair.kind == "sphere" or len(set(pair.torus_periods)) == 1:
                names.append("key")
            for name in names:
                assert np.array_equal(getattr(table, name),
                                      getattr(full, name)[rows])


_FEJER = make_test_function("fejer", 1.0)
_BAND_REFUSALS = {
    "smooth-window": lambda t, g: kuznecov_sum(t, 1.0, _FEJER, g),
    "other-c": lambda t, g: sharp_sum(t, 0.5, 0.5, g),
    "wider-eps": lambda t, g: sharp_sum(t, 1.0, 0.56, g),
    "averaged-wider-eps": lambda t, g: averaged_sharp_sum(t, 1.0, 0.51, g),
    "jump": lambda t, g: jump(t, 0.5, 5.0),
    "eigenvalue-jumps": lambda t, g: eigenvalue_jumps(t, 0.5),
    "doubly-smoothed": lambda t, g: doubly_smoothed_sum(t, _FEJER, _FEJER, g),
    "dual-trace": lambda t, g: dual_trace(t, _FEJER, g),
}


@pytest.mark.parametrize("call", _BAND_REFUSALS.values(), ids=_BAND_REFUSALS)
def test_band_table_refuses_what_needs_other_rows(call):
    # a band table serves sharp sums at its c and an eps within its own,
    # the averaged sum's top sample included; everything else refuses it
    table = build_table(torus_pair(2, 1), 20.0, band=(1.0, 0.55))
    grid = np.linspace(2.0, 20.0, 7)
    sharp_sum(table, 1.0, 0.55, grid)
    averaged_sharp_sum(table, 1.0, 0.5, grid)
    with pytest.raises(ValidationError, match="band table"):
        call(table, grid)


def test_sharp_count_oracle(torus21_table):
    # (1/2pi) # {m : |m| <= 30, |m| - |m_1| <= 0.5}
    st = sharp_sum(torus21_table, 1.0, 0.5, np.array([30.0]))
    m = np.arange(-31, 32)
    M1, M2 = np.meshgrid(m, m, indexing="ij")
    lam = np.hypot(M1, M2)
    count = int(np.sum((lam <= 30.0) & (np.abs(lam - np.abs(M1)) <= 0.5)))
    assert st.values[0] * 2 * PI == pytest.approx(count, abs=1e-9)


def test_zero_mode_only_below_first_eigenvalue(torus21_table):
    psi = make_test_function("fejer", 1.0)
    st = kuznecov_sum(torus21_table, 1.0, psi, np.array([0.5, 15.0]))
    assert st.values[0] == pytest.approx(psi.psi(0.0) / (2 * PI), rel=1e-12)


def test_sharp_c_zero_counts_everything(torus21_table):
    # window covering every cached H-frequency at c = 0 counts every pair:
    # sum over lambda_j <= lambda of the restricted norms
    eps = torus21_table.slice.h_cutoff - 1.0
    assert eps > float(np.max(torus21_table.mu))
    st = sharp_sum(torus21_table, 0.0, eps, np.array([20.0]))
    lam = torus21_table.lam
    expected = float(np.sum(torus21_table.weight[lam <= 20.0]))
    assert st.values[0] == pytest.approx(expected, rel=1e-12)


def test_sharp_eps_zero_degree_shift_coincidences(torus21_table):
    # with the degree normalization all differences on nonzero-coefficient
    # pairs are >= (n-d)/2 > 0, so eps = 0 counts exactly zero coincidences;
    # verified by exact rational comparison over the labels
    slc = enumerate_spectrum(sphere_pair(3, 1, "degree"), 12.0, h_cutoff=13.0)
    table = sphere_coefficients(slc)
    twice_diff = (2 * slc.m_labels[table.j_idx, 0].astype(np.int64)
                  + (3 - 1)) - (2 * slc.h_labels[table.k_idx, 0].astype(np.int64))
    assert np.all(twice_diff != 0)
    st = sharp_sum(table, 1.0, 0.0, np.array([11.0]))
    assert st.values[0] == 0.0
    # on T^1 in T^2, |m| - |m_1| vanishes exactly when m_2 = 0: the 61
    # modes with |m_1| <= 30, each of weight 1/(2 pi)
    st = sharp_sum(torus21_table, 1.0, 0.0, np.array([30.0]))
    assert st.values[0] == pytest.approx(61 / (2 * PI), abs=1e-9)


def test_monotonicity(torus21_table, sphere21_table):
    grid = np.linspace(2, 30, 40)
    for table in (torus21_table,):
        st1 = kuznecov_sum(table, 1.0, make_test_function("fejer", 1.0), grid)
        st2 = sharp_sum(table, 1.0, 0.5, grid)
        assert np.all(np.diff(st1.values) >= 0)
        assert np.all(np.diff(st2.values) >= 0)
    grid_s = np.linspace(2, 25, 30)
    st3 = sharp_sum(sphere21_table, 1.0, 0.6, grid_s)
    assert np.all(np.diff(st3.values) >= 0)


def test_sandwich_inequality(torus21_table):
    eps = 0.5
    psi = dominating_test_function(eps, a=1.0)
    grid = np.linspace(5, 30, 26)
    smooth = kuznecov_sum(torus21_table, 1.0, psi, grid)
    sharp = sharp_sum(torus21_table, 1.0, eps, grid)
    assert np.all(smooth.values >= sharp.values - 1e-12)


def test_truncation_risk_errors(torus21_table):
    psi = make_test_function("fejer", 1.0)
    with pytest.raises(TruncationRiskError):
        kuznecov_sum(torus21_table, 1.0, psi, np.array([40.0]))
    with pytest.raises(TruncationRiskError):
        averaged_sharp_sum(torus21_table, 1.0, 0.5, np.array([40.0]))
    # the one truncation in mu, an H cutoff below the M cutoff, is refused
    # when the table is built
    with pytest.raises(ValidationError):
        torus_coefficients(enumerate_spectrum(torus_pair(2, 1), 30.0,
                                              h_cutoff=0.5 * 30.0 + 10.0))
    with pytest.raises(ValidationError):
        kuznecov_sum(torus21_table, 1.4, psi, np.array([10.0]))
    with pytest.raises(ValidationError):
        kuznecov_sum(torus21_table, 1.0, psi, np.array([10.0, 5.0]))


def test_sharp_sum_on_complete_row_table():
    # a window reaching past lambda_max needs no H-mode beyond it: the
    # row table up to 100 holds every term of the sum
    grid = np.geomspace(10.0, 100.0, 12)
    rows = sharp_sum(build_table(torus_pair(2, 1), 100.0), 1.0, 0.5, grid)
    modes = sharp_sum(torus_coefficients(enumerate_spectrum(
        torus_pair(2, 1), 100.0, h_cutoff=100.0)), 1.0, 0.5, grid)
    _assert_rel(rows.values, modes.values)
    assert "mu_max" not in rows.metadata


def test_tail_fraction_zero_for_single_entry_tables(torus21_table):
    psi = make_test_function("fejer", 1.0)
    st = kuznecov_sum(torus21_table, 1.0, psi, np.array([20.0]))
    assert st.metadata["tail_fraction"] == 0.0


# --------------------------------------------------------------------- jumps

def test_jump_identity_matches_sum_increment(torus21_table):
    lam_j = 5.0
    J = jump(torus21_table, 0.5, lam_j)
    st = sharp_sum(torus21_table, 1.0, 0.5, np.array([lam_j - 1e-9, lam_j]))
    assert st.values[1] - st.values[0] == pytest.approx(J, abs=1e-12)


def test_jump_torus_hand_count(torus21_table):
    # the 12 lattice points with |m| = 5: (+-3,+-4), (+-4,+-3), (0,+-5), (+-5,0);
    # the eps=0.5 window keeps only those with |m| - |m_1| <= 0.5, i.e. (+-5, 0)
    members = [(3, 4), (3, -4), (-3, 4), (-3, -4), (4, 3), (4, -3), (-4, 3),
               (-4, -3), (0, 5), (0, -5), (5, 0), (-5, 0)]
    assert len(members) == 12
    qualifying = [m for m in members if 5.0 - abs(m[0]) <= 0.5]
    J = jump(torus21_table, 0.5, 5.0)
    assert J == pytest.approx(len(qualifying) / (2 * PI), rel=1e-14)


def test_jump_sphere_highest_weight(sphere21_table):
    # once eps exceeds the edge gap, the degree-N jump picks up both
    # highest-weight modes, each with its full restricted norm
    N = 12
    lam_N = math.sqrt(N * (N + 1))
    J = jump(sphere21_table, 0.6, lam_N)
    rule = gauss_legendre(2 * N + 8)
    p = assoc_legendre(N, N, rule.nodes)
    norm = float(np.sum(rule.weights * p * p))
    restricted = assoc_legendre(N, N, 0.0) ** 2 / norm
    assert J == pytest.approx(2 * restricted, rel=1e-10)


def test_jump_rejects_non_eigenvalue(torus21_table):
    with pytest.raises(ValidationError):
        jump(torus21_table, 0.5, 5.3)


def test_eigenvalue_jumps_grouping(torus21_table):
    lams, jumps = eigenvalue_jumps(torus21_table, 0.5, 1.0, 20.0)
    assert np.all(np.diff(lams) > 0)
    i = int(np.argmin(np.abs(lams - 5.0)))
    assert jumps[i] == pytest.approx(jump(torus21_table, 0.5, 5.0), abs=1e-14)


# ------------------------------------------------------------ doubly smoothed

def test_doubly_smoothed_zero_table(torus21_table):
    table = dataclasses.replace(torus21_table,
                                weight=np.zeros_like(torus21_table.weight))
    st = doubly_smoothed_sum(table, make_test_function("fejer", 1.0),
                             make_test_function("fejer", 2.0),
                             np.linspace(5, 20, 8))
    assert np.all(st.values == 0.0)


def test_doubly_smoothed_recovers_jump_profile(torus21_table):
    # rho delta-like (wide-support Fejer, narrow in x): (2pi/a) N(lambda_j)
    # approaches the jump as the window narrows
    lam_j = 5.0
    J = jump(torus21_table, make_test_function("fejer", 1.0), lam_j)
    psi = make_test_function("fejer", 1.0)
    approx = []
    for a_rho in (20.0, 60.0):
        rho = make_test_function("fejer", a_rho)
        # the wide Fejer rho's tail reaches past the table's cutoff
        with pytest.warns(TailBoundWarning):
            st = doubly_smoothed_sum(torus21_table, psi, rho, np.array([lam_j]))
        approx.append(st.values[0] * 2 * PI / a_rho)
    assert abs(approx[1] - J) < abs(approx[0] - J)
    assert approx[1] == pytest.approx(J, rel=0.15)


@pytest.mark.filterwarnings("ignore::kuzweyl.errors.TailBoundWarning")
def test_doubly_smoothed_nearest_cluster_dominates(sphere21_table):
    # between sphere eigenvalue clusters the value is dominated by the two
    # neighbors; the hand cluster sum accounts for ~all of the value
    psi = make_test_function("fejer", 1.0)
    rho = make_test_function("fejer", 8.0)
    lam_mid = 0.5 * (math.sqrt(10 * 11) + math.sqrt(11 * 12))
    st = doubly_smoothed_sum(sphere21_table, psi, rho, np.array([lam_mid]))
    nearest = sum(rho.psi(lam_mid - math.sqrt(N * (N + 1)))
                  * jump(sphere21_table, psi, math.sqrt(N * (N + 1)))
                  for N in (10, 11))
    assert nearest > 0.75 * st.values[0]
    hand = sum(rho.psi(lam_mid - math.sqrt(N * (N + 1)))
               * jump(sphere21_table, psi, math.sqrt(N * (N + 1)))
               for N in range(2, 21))
    assert hand == pytest.approx(st.values[0], rel=0.01)


def test_doubly_smoothed_requires_smooth_rho(torus21_table):
    with pytest.raises(ValidationError):
        doubly_smoothed_sum(torus21_table, make_test_function("fejer", 1.0),
                            make_test_function("sharp", 0.5), np.array([5.0]))


# ---------------------------------------------------------------- dual trace

def test_dual_trace_at_zero_is_total(torus21_table):
    psi = make_test_function("fejer", 1.0)
    tr = dual_trace(torus21_table, psi, np.array([0.0]))
    lam = torus21_table.lam
    mu = torus21_table.mu
    total = float(np.sum(psi.psi(lam - mu) * torus21_table.weight))
    assert tr.values[0].real == pytest.approx(total, rel=1e-13)
    assert abs(tr.values[0].imag) < 1e-12


def test_dual_trace_triangle_inequality(torus21_table):
    psi = make_test_function("fejer", 1.0)
    t = np.linspace(0, 8, 81)
    tr = dual_trace(torus21_table, psi, t)
    assert np.all(np.abs(tr.values) <= np.abs(tr.values[0]) + 1e-12)


def test_dual_trace_torus_period_peak(torus21_table):
    # |S(t)| has a local maximum near t = 2 pi, the period of the
    # sub-torus geodesics
    psi = make_test_function("fejer", 1.0)
    t = np.linspace(0.5, 8.0, 301)
    tr = dual_trace(torus21_table, psi, t)
    mag = np.abs(tr.values)
    interior = (t > 1.0) & (t < 7.5)
    peak_t = t[interior][np.argmax(mag[interior])]
    assert abs(peak_t - 2 * PI) < 0.3


# ----------------------------------------------- per-eigenspace reduction

# small pairs: ambient dimension -> lambda_max keeping the tables a few
# thousand entries (n = 5: up to about 6e5, for the row tables' n - d >= 3)
_LAMBDA_TOP = {2: 20.0, 3: 9.0, 4: 5.0, 5: 8.0}


@st.composite
def _small_pairs(draw, n_max=4):
    n = draw(st.integers(2, n_max))
    d = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(["torus-uniform", "torus-periods", "sphere"]))
    if kind == "sphere":
        pair = sphere_pair(n, d, draw(st.sampled_from(["laplace", "degree"])))
    elif kind == "torus-uniform":
        pair = torus_pair(n, d, (draw(st.floats(5.0, 8.0)),) * n)
    else:
        pair = torus_pair(n, d, tuple(draw(st.lists(
            st.floats(5.0, 8.0), min_size=n, max_size=n, unique=True))))
    return pair, draw(st.floats(2.0, _LAMBDA_TOP[n]))


_windows = st.one_of(
    st.builds(make_test_function, st.sampled_from(["fejer", "bumpsquare"]),
              st.floats(0.3, 2.0)),
    st.floats(0.0, 1.0))  # a float eps is the sharp window


def _per_mode_table(pair, lambda_max, mu_max):
    slc = enumerate_spectrum(pair, lambda_max, h_cutoff=mu_max)
    if pair.kind == "torus":
        return torus_coefficients(slc)
    return sphere_coefficients(slc)


def _assert_keys_run(table):
    """The reduction's precondition: eigenkeys non-decreasing over the
    rows."""
    assert np.all(np.diff(table.key) >= 0)


@settings(max_examples=30, deadline=None)
@given(case=_small_pairs(), window=_windows)
def test_eigenspace_reduction_matches_per_mode_oracles(case, window):
    pair, lam_top = case
    table = _per_mode_table(pair, lam_top, lam_top + 3.0)
    _assert_keys_run(table)
    with tempfile.TemporaryDirectory() as cache:
        for _ in range(2):  # a build, then a cache hit
            _assert_keys_run(load_or_build(pair, lam_top, cache))
    lams, jumps = eigenvalue_jumps(table, window)
    want_lams, want_jumps = eigenvalue_jumps_argsort(table, window)
    assert np.array_equal(lams, want_lams)
    assert np.array_equal(jumps, want_jumps)
    # the rows sum the entries' terms in another order, and their
    # eigenvalues, the row builders', match the modes' to rounding
    want_lams, want_jumps = eigenvalue_jumps_argsort(entry_view(table), window)
    assert np.allclose(lams, want_lams, rtol=1e-14, atol=0)
    _assert_rel(jumps, want_jumps, 1e-12)
    for i in np.linspace(0, len(lams) - 1, 4).astype(int):
        assert jump(table, window, float(lams[i])) == jumps[i]

    psi = window if not isinstance(window, float) else make_test_function(
        "sharp", window)
    rho = make_test_function("fejer", 3.0)
    grid = np.linspace(1.0, lam_top, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = doubly_smoothed_sum(table, psi, rho, grid).values
    lam, mu, w = entry_weights(table, 1.0, psi)
    scale = np.array([np.sum(np.abs(w * rho.psi(g - lam))) for g in grid])
    assert np.all(np.abs(got - doubly_smoothed_loop(table, psi, rho, grid))
                  <= 1e-12 * scale)
    t = np.linspace(0.0, 10.0, 9)
    got = dual_trace(table, psi, t).values
    assert np.all(np.abs(got - dual_trace_loop(table, psi, t))
                  <= 1e-12 * np.sum(np.abs(w)))


# ------------------------------------------------- row tables vs per-mode

def _assert_rel(got, want, rel=1e-10):
    assert np.all(np.abs(got - want) <= rel * np.abs(want))


# c in {0, 1} or interior; eps = 0 only with c in {0, 1}, where a
# coincidence c lambda_j = mu_k is exact in floating point for both tables
# (B = 0, or A = 0), while at interior c its float value rides on rounding
_c_eps = st.one_of(
    st.tuples(st.sampled_from([0.0, 1.0]), st.just(0.0)),
    st.tuples(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95)),
              st.floats(0.05, 1.0)))


@settings(max_examples=40, deadline=None)
@given(case=_small_pairs(n_max=5), c_eps=_c_eps, window=_windows)
@example(case=(torus_pair(5, 1, _CLOSE_PERIODS), 6.0), c_eps=(1.0, 0.0),
         window=0.5)
def test_row_table_matches_per_mode_table(case, c_eps, window):
    pair, lam_top = case
    c, eps = c_eps
    rows = build_table(pair, lam_top)
    modes = _per_mode_table(pair, lam_top, lam_top + 3.0)
    # the per-mode table's rows are build_table's; its entries, one row
    # each, are the independent view the row sums are checked against
    for name in ("lam", "mu", "weight", "key"):
        assert np.array_equal(getattr(modes, name), getattr(rows, name))
    entries = entry_view(modes)
    assert rows.entry_count <= modes.entry_count
    assert np.isclose(rows.weight.sum(), entries.weight.sum(), rtol=1e-12)
    grid = np.linspace(1.0, lam_top, 7)
    psi = window if not isinstance(window, float) else make_test_function(
        "sharp", window)
    for fn, args in ((kuznecov_sum, (c, psi, grid)),
                     (sharp_sum, (c, eps, grid)),
                     (averaged_sharp_sum, (c, eps, grid))):
        _assert_rel(fn(rows, *args).values, fn(entries, *args).values)

    # the same eigenspaces: eigenvalues to rounding (their float value
    # depends on which mode of the eigenspace computed it), equal jumps
    lams, jumps = eigenvalue_jumps(rows, window)
    want_lams, want_jumps = eigenvalue_jumps(entries, window)
    assert len(lams) == len(want_lams)
    assert np.allclose(lams, want_lams, rtol=1e-14, atol=0)
    _assert_rel(jumps, want_jumps)

    rho = make_test_function("fejer", 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _assert_rel(doubly_smoothed_sum(rows, psi, rho, grid).values,
                    doubly_smoothed_sum(entries, psi, rho, grid).values)
    t = np.linspace(0.0, 10.0, 9)
    scale = np.sum(np.abs(entry_weights(entries, 1.0, psi)[2]))
    assert np.all(np.abs(dual_trace(rows, psi, t).values
                         - dual_trace(entries, psi, t).values) <= 1e-10 * scale)


def test_close_eigenvalues_keep_their_own_eigenspaces():
    pair = torus_pair(5, 1, _CLOSE_PERIODS)
    for table in (build_table(pair, 6.0), _per_mode_table(pair, 6.0, 9.0)):
        lams, _ = eigenvalue_jumps(table, 0.5)
        assert len(lams) == 3070
        for want in (5.888178874660716, 5.888178891638398):
            assert np.min(np.abs(lams - want)) <= 1e-15 * want


# ------------------------------------------- per-mode table rows vs entries

# the enumeration tests' period sets: 2 pi, a uniform non-2 pi set (5, where
# one eigenspace carries frequencies 1 ulp apart), mixed and irrational
# periods, and the cache tests' set
_PERIOD_SETS = {"2pi": None, "5": (5.0,) * 4, "mixed": (6.0, 7.5, 5.0, 4.3),
                "irrational": (1.0, math.sqrt(2), math.e, 0.7),
                "cache": (5.0, 6.5, 7.0, 7.0)}


@st.composite
def _per_mode_cases(draw):
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(sorted(_PERIOD_SETS) + ["laplace", "degree"]))
    if kind in ("laplace", "degree"):
        pair = sphere_pair(n, d, kind)
    else:
        periods = _PERIOD_SETS[kind]
        pair = torus_pair(n, d, periods and periods[:n])
    return pair, draw(st.floats(2.0, _LAMBDA_TOP[n]))


def _mass_by_key(view):
    starts = np.flatnonzero(np.r_[True, view.key[1:] != view.key[:-1]])
    return view.key[starts], np.add.reduceat(view.weight, starts)


@settings(max_examples=40, deadline=None)
@given(case=_per_mode_cases(), c_eps=_c_eps, window=_windows)
def test_per_mode_rows_match_entries(case, c_eps, window):
    # the rows carry the entries' mass on each eigenspace
    pair, lam_top = case
    table = _per_mode_table(pair, lam_top, lam_top + 3.0)
    entries = entry_view(table)
    keys, mass = _mass_by_key(table)
    want_keys, want_mass = _mass_by_key(entries)
    assert np.array_equal(keys, want_keys)
    _assert_rel(mass, want_mass, 1e-14)

    # the sums see the same terms in another order
    c, eps = c_eps
    psi = window if not isinstance(window, float) else make_test_function(
        "sharp", window)
    grid = np.linspace(1.0, lam_top, 7)
    for fn, args in ((kuznecov_sum, (c, psi, grid)),
                     (sharp_sum, (c, eps, grid)),
                     (averaged_sharp_sum, (c, eps, grid))):
        _assert_rel(fn(table, *args).values, fn(entries, *args).values, 1e-12)
    lams, jumps = eigenvalue_jumps(table, window)
    want_lams, want_jumps = eigenvalue_jumps(entries, window)
    assert np.allclose(lams, want_lams, rtol=1e-14, atol=0)
    _assert_rel(jumps, want_jumps, 1e-12)
    rho = make_test_function("fejer", 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _assert_rel(doubly_smoothed_sum(table, psi, rho, grid).values,
                    doubly_smoothed_sum(entries, psi, rho, grid).values, 1e-12)
    t = np.linspace(0.0, 10.0, 9)
    scale = np.sum(np.abs(entry_weights(entries, 1.0, psi)[2]))
    assert np.all(np.abs(dual_trace(table, psi, t).values
                         - dual_trace(entries, psi, t).values) <= 1e-12 * scale)


# ------------------------------------------------------------------- tables

def test_sum_table_csv_roundtrip(tmp_path, torus21_table):
    st = sharp_sum(torus21_table, 1.0, 0.5, np.linspace(5, 30, 9))
    path = str(tmp_path / "sums.csv")
    st.write(path)
    rows = open(path).read().strip().splitlines()
    assert rows[0] == "lambda,value"
    lam0, val0 = (float(v) for v in rows[1].split(","))
    assert lam0 == st.lambda_grid[0] and val0 == st.values[0]
    import json

    sidecar = json.load(open(path + ".json"))
    assert sidecar["variant"] == "sharp-sharp"
    assert sidecar["c"] == 1.0


def test_averaged_sharp_sum(torus21_table):
    grid = np.linspace(5, 30, 11)
    plain = sharp_sum(torus21_table, 1.0, 0.5, grid)
    avg = averaged_sharp_sum(torus21_table, 1.0, 0.5, grid, jitter=0.1,
                             samples=5)
    lo = sharp_sum(torus21_table, 1.0, 0.45, grid)
    hi = sharp_sum(torus21_table, 1.0, 0.55, grid)
    assert np.all(avg.values >= lo.values - 1e-12)
    assert np.all(avg.values <= hi.values + 1e-12)
    assert avg.test["kind"] == "sharp-averaged"
    assert len(avg.metadata["eps_values"]) == 5
    single = averaged_sharp_sum(torus21_table, 1.0, 0.5, grid, jitter=0.0,
                                samples=1)
    assert np.array_equal(single.values, plain.values)


@pytest.mark.parametrize("c, eps", [(1.0, 0.5), (0.5, 0.3), (0.0, 2.0)])
def test_averaged_sharp_sum_is_mean_of_sharp_sums(torus21_table, c, eps):
    # one gather for every eps sample, bit-identical to the mean of the
    # per-sample sharp sums
    grid = np.linspace(5, 30, 11)
    for table in (torus21_table, build_table(torus_pair(2, 1), 35.0)):
        avg = averaged_sharp_sum(table, c, eps, grid, jitter=0.2, samples=5)
        acc = None
        for e in avg.metadata["eps_values"]:
            v = sharp_sum(table, c, e, grid).values
            acc = v if acc is None else acc + v
        assert np.array_equal(avg.values, acc / 5)
        assert avg.metadata["tail_fraction"] == 0.0
    with pytest.raises(ValidationError):
        averaged_sharp_sum(torus21_table, 1.0, 0.5, grid, jitter=1.5)
    with pytest.raises(ValidationError):
        averaged_sharp_sum(torus21_table, 1.2, 0.5, grid)
