import math

import numpy as np
import pytest

from kuzweyl.errors import TruncationRiskError, ValidationError
from kuzweyl.kuznecov import (
    DualTrace,
    FourierWindow,
    SumTable,
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
from kuzweyl.restriction_coeffs import sphere_coefficients, torus_coefficients
from kuzweyl.special_functions import (
    assoc_legendre,
    composite_gauss_legendre,
    gauss_legendre,
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


def test_bumpsquare_grid_matches_direct_transform():
    b = make_test_function("bumpsquare", 1.0)
    nodes, w = composite_gauss_legendre(np.linspace(-1, 1, 81), order=16)
    ph = b.psi_hat(nodes)
    for x in (0.0, 0.7, 3.3, 11.0, 25.0):
        direct = float(np.sum(w * ph * np.cos(nodes * x))) / (2 * PI)
        assert b.psi(x) == pytest.approx(direct, abs=1e-11)


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
    eps = torus21_table.mu_max - 1.0
    assert eps > float(np.max(torus21_table.entry_h_freqs()))
    st = sharp_sum(torus21_table, 0.0, eps, np.array([20.0]))
    lam = torus21_table.entry_m_freqs()
    expected = float(np.sum(torus21_table.values[lam <= 20.0]))
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
        sharp_sum(torus21_table, 1.0, 20.0, np.array([30.0]))
    with pytest.raises(ValidationError):
        kuznecov_sum(torus21_table, 1.4, psi, np.array([10.0]))
    with pytest.raises(ValidationError):
        kuznecov_sum(torus21_table, 1.0, psi, np.array([10.0, 5.0]))


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
    import copy

    table = copy.copy(torus21_table)
    table.values = np.zeros_like(table.values)
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
    lam = torus21_table.entry_m_freqs()
    mu = torus21_table.entry_h_freqs()
    total = float(np.sum(psi.psi(lam - mu) * torus21_table.values))
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
