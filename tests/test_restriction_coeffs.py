import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kuzweyl.errors import CacheCorruptionWarning, ValidationError
from kuzweyl.model_spectra import enumerate_spectrum, sphere_pair, torus_pair
from kuzweyl.restriction_coeffs import (
    CoefficientTable,
    build_table,
    load_or_build,
    sphere_coefficient_value,
    sphere_coefficients,
    torus_coefficients,
)
from kuzweyl.special_functions import (
    assoc_legendre,
    assoc_legendre_normalized,
    gauss_legendre,
    gegenbauer,
    sphere_volume,
)

PI = math.pi


def _entry_map(table):
    out = {}
    for j, k, v in zip(table.j_idx, table.k_idx, table.values):
        m_label = tuple(int(x) for x in table.slice.m_labels[j])
        k_label = tuple(int(x) for x in table.slice.h_labels[k])
        out[(m_label, k_label)] = float(v)
    return out


# --------------------------------------------------------------------- torus

def test_torus_constant_mode():
    table = torus_coefficients(enumerate_spectrum(torus_pair(2, 1), 2.0))
    entries = _entry_map(table)
    assert entries[((0, 0), (0,))] == pytest.approx(1 / (2 * PI), rel=1e-15)


def test_torus_projection_rule_with_quadrature_oracle():
    # m = (3, 4): only k = 3 survives; value from direct 1-D quadrature of
    # int e^{i3x} e^{-ikx} dx at order 64 with the basis normalizations
    table = torus_coefficients(enumerate_spectrum(torus_pair(2, 1), 6.0))
    entries = _entry_map(table)
    assert ((3, 4), (3,)) in entries
    for k in (-3, 0, 2, 4):
        assert ((3, 4), (k,)) not in entries
    rule = gauss_legendre(64)
    x = (rule.nodes + 1) * PI  # [0, 2pi]
    w = rule.weights * PI
    for k in (3, 2):
        inner = np.sum(w * np.exp(1j * 3 * x) * np.exp(-1j * k * x))
        coeff_sq = abs(inner) ** 2 / ((2 * PI) ** 2 * (2 * PI))
        if k == 3:
            assert entries[((3, 4), (3,))] == pytest.approx(coeff_sq, rel=1e-12)
        else:
            assert coeff_sq < 1e-20


def test_torus_3d_product_quadrature_oracle():
    # n=3, d=2: m = (1, 2, 5) pairs only with k = (1, 2), value (2 pi)^{-1}
    table = torus_coefficients(
        enumerate_spectrum(torus_pair(3, 2), 5.6, h_cutoff=5.6))
    entries = _entry_map(table)
    assert entries[((1, 2, 5), (1, 2))] == pytest.approx(1 / (2 * PI), rel=1e-15)
    rule = gauss_legendre(32)
    x = (rule.nodes + 1) * PI
    w = rule.weights * PI
    inner1 = np.sum(w * np.exp(1j * 1 * x) * np.exp(-1j * 1 * x))
    inner2 = np.sum(w * np.exp(1j * 2 * x) * np.exp(-1j * 2 * x))
    coeff_sq = abs(inner1 * inner2) ** 2 / ((2 * PI) ** 3 * (2 * PI) ** 2)
    assert entries[((1, 2, 5), (1, 2))] == pytest.approx(coeff_sq, rel=1e-12)
    # exactly one nonzero k per m
    counts = np.bincount(table.j_idx, minlength=table.slice.m_count)
    assert np.all(counts == 1)


def test_torus_single_entry_and_value_independence():
    table = torus_coefficients(enumerate_spectrum(torus_pair(2, 1), 10.0))
    counts = np.bincount(table.j_idx, minlength=table.slice.m_count)
    assert np.all(counts == 1)
    assert np.all(table.values == table.values[0])


def test_torus_sign_flip_symmetry():
    table = torus_coefficients(enumerate_spectrum(torus_pair(2, 1), 6.0))
    entries = _entry_map(table)
    for ((m, k), v) in list(entries.items()):
        flipped = entries[(tuple(-x for x in m), tuple(-x for x in k))]
        assert flipped == v


# -------------------------------------------------------------------- sphere

def test_sphere_21_selection_rule():
    slc = enumerate_spectrum(sphere_pair(2, 1), 12.0)
    table = sphere_coefficients(slc)
    for j, k in zip(table.j_idx, table.k_idx):
        N, l, m_trans = (int(v) for v in table.slice.m_labels[j][:3])
        l_h = int(table.slice.h_labels[k][0])
        assert m_trans == 0
        assert (N - l) % 2 == 0
        assert l_h == l
    # modes with N - l odd never appear
    paired = set(table.j_idx.tolist())
    for i in range(slc.m_count):
        N, l, m_trans = (int(v) for v in slc.m_labels[i][:3])
        if m_trans != 0:
            assert i not in paired


def test_sphere_21_highest_weight_norm_oracle():
    # the edge coefficient equals the full restricted norm of the
    # highest-weight harmonic: squared normalized-Legendre value at 0,
    # independently via quadrature of the sin^{2N} normalization
    slc = enumerate_spectrum(sphere_pair(2, 1), 12.0)
    table = sphere_coefficients(slc)
    entries = _entry_map(table)
    for N in (4, 9, 11):
        rule = gauss_legendre(2 * N + 8)
        p = assoc_legendre(N, N, rule.nodes)
        norm = float(np.sum(rule.weights * p * p))
        expected = assoc_legendre(N, N, 0.0) ** 2 / norm
        got = entries[((N, N, 0, 0, 0), (N, 0))]
        assert got == pytest.approx(expected, rel=1e-11)


def test_sphere_21_closed_form_matches_equator_legendre():
    # every (2,1) entry up to N = 199 equals the squared theta-normalized
    # associated Legendre value at the equator, P-bar_N^l(0)^2
    slc = enumerate_spectrum(sphere_pair(2, 1), 200.0, h_cutoff=205.0)
    table = sphere_coefficients(slc)
    blocks = slc.m_labels[table.j_idx, :2]
    assert int(blocks[:, 0].max()) == 199
    oracle = {}
    for N, l in set(map(tuple, blocks.tolist())):
        oracle[(N, l)] = float(assoc_legendre_normalized(N, l, 0.0)) ** 2
    expected = np.array([oracle[(N, l)] for N, l in blocks.tolist()])
    assert_allclose(table.values, expected, rtol=1e-12, atol=0)


def test_sphere_constant_mode_volume_ratio():
    for (n, d) in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
        val = sphere_coefficient_value(n, d, 0, 0)
        assert val == pytest.approx(sphere_volume(d) / sphere_volume(n),
                                    rel=1e-13)


def test_sphere_21_parseval_against_quadrature():
    # row sums vs restricted L2 norms by independent dense quadrature, N <= 40
    slc = enumerate_spectrum(sphere_pair(2, 1), 41.0)
    table = sphere_coefficients(slc)
    rows = table.parseval_row_sums()
    worst = 0.0
    for i in range(slc.m_count):
        N, l, m_trans = (int(v) for v in slc.m_labels[i][:3])
        if m_trans != 0:
            assert rows[i] == 0.0
            continue
        rule = gauss_legendre(2 * N + 8)
        p = assoc_legendre_normalized(N, l, rule.nodes)
        # independent route: unnormalized recurrence value over its own norm
        q = assoc_legendre(N, l, rule.nodes) if N <= 40 else None
        if q is not None and np.max(np.abs(q)) < 1e300:
            norm = float(np.sum(rule.weights * q * q))
            restricted = assoc_legendre(N, l, 0.0) ** 2 / norm
        else:
            restricted = float(assoc_legendre_normalized(N, l, 0.0)) ** 2
        worst = max(worst, abs(rows[i] - restricted))
    assert worst < 1e-8


def test_sphere_32_zonal_aggregate_oracle():
    # eigenspace-level aggregate via reproducing kernels:
    # sum over the degree-N eigenspace and the degree-l H-eigenspace of the
    # squared coefficients equals
    # Vol(S^2) Vol(S^1) int_0^pi Z3_N(cos r) Z2_l(cos r) sin r dr,
    # which must match dim_l * coefficient (one ambient mode per (l, alpha))
    from kuzweyl.model_spectra import harmonic_dim

    n, d = 3, 2
    rule = gauss_legendre(400)
    r = (rule.nodes + 1) * PI / 2
    w = rule.weights * PI / 2
    x = np.cos(r)
    for (N, l) in [(6, 2), (5, 3), (8, 0)]:
        z3 = (2 * N + 2) / (2 * sphere_volume(3)) * gegenbauer(N, 1.0, x)
        z2 = (2 * l + 1) / sphere_volume(2) * assoc_legendre(l, 0, x)
        aggregate = sphere_volume(2) * sphere_volume(1) * float(
            np.sum(w * np.sin(r) * z3 * z2))
        expected = harmonic_dim(d, l) * sphere_coefficient_value(n, d, N, l)
        assert aggregate == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_sphere_azimuthal_reflection_symmetry():
    # all alpha within one (N, l) share the same squared coefficient
    slc = enumerate_spectrum(sphere_pair(3, 2), 8.0)
    table = sphere_coefficients(slc)
    seen = {}
    for j, v in zip(table.j_idx, table.values):
        N, l = (int(x) for x in table.slice.m_labels[j][:2])
        seen.setdefault((N, l), set()).add(round(float(v), 15))
    assert all(len(vals) == 1 for vals in seen.values())


def test_kind_dispatch_errors():
    slc = enumerate_spectrum(torus_pair(2, 1), 2.0)
    with pytest.raises(ValidationError):
        sphere_coefficients(slc)
    slc2 = enumerate_spectrum(sphere_pair(2, 1), 2.0)
    with pytest.raises(ValidationError):
        torus_coefficients(slc2)


# --------------------------------------------------------------------- cache

def test_cache_hit_is_identical(tmp_path):
    pair = torus_pair(2, 1)
    first = load_or_build(pair, 8.0, str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    mtime = files[0].stat().st_mtime_ns
    second = load_or_build(pair, 8.0, str(tmp_path))
    assert files[0].stat().st_mtime_ns == mtime  # no rewrite on hit
    assert first.build_hash() == second.build_hash()
    assert np.array_equal(first.j_idx, second.j_idx)
    assert np.array_equal(first.values, second.values)


def test_cache_key_miss_rebuilds(tmp_path):
    pair = torus_pair(2, 1)
    load_or_build(pair, 6.0, str(tmp_path))
    load_or_build(pair, 9.0, str(tmp_path))
    assert len(list(tmp_path.iterdir())) == 2


def test_cache_corruption_rebuilds(tmp_path):
    pair = torus_pair(2, 1)
    fresh = load_or_build(pair, 6.0, str(tmp_path))
    path = next(tmp_path.iterdir())
    path.write_bytes(b"garbage" * 100)
    with pytest.warns(CacheCorruptionWarning):
        rebuilt = load_or_build(pair, 6.0, str(tmp_path))
    assert rebuilt.build_hash() == fresh.build_hash()
    assert np.array_equal(rebuilt.values, fresh.values)


def test_build_table_sphere_dispatch():
    table = build_table(sphere_pair(2, 1), 6.0, mu_max=7.0)
    assert table.pair.kind == "sphere"
    assert table.mu_max == 7.0
    assert table.entry_count > 0
