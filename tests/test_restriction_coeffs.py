import hashlib
import json
import math
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kuzweyl.errors import (
    CacheCorruptionWarning,
    ResourceGuardError,
    ValidationError,
)
from kuzweyl.model_spectra import enumerate_spectrum, sphere_pair, torus_pair
from kuzweyl.restriction_coeffs import (
    SCHEMA_VERSION,
    _sphere_blocks,
    build_table,
    load_or_build,
    sphere_coefficients,
    torus_coefficients,
)
from kuzweyl.special_functions import (
    gauss_legendre,
    sphere_volume,
)

from oracles import (
    assoc_legendre,
    assoc_legendre_normalized,
    gegenbauer,
    lattice_shell_counts,
    parseval_row_sums,
    sphere_coefficient_value,
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


@pytest.mark.parametrize("periods", [None, (6.0, 7.5, 5.0),
                                     (1.0, math.sqrt(2), math.e)])
@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (3, 2)])
def test_torus_every_mode_projects_to_an_h_mode(n, d, periods):
    # h_cutoff >= cutoff, so every M-mode has exactly one entry, against the
    # H-mode with the labels of its first d coordinates
    per = None if periods is None else periods[:n]
    for lam, h_cut in ((math.sqrt(50), None), (7.3, 7.3 * (1 + 1e-15)),
                       (9.0, 11.0)):
        slc = enumerate_spectrum(torus_pair(n, d, per), lam, h_cutoff=h_cut)
        table = torus_coefficients(slc)
        assert np.array_equal(table.j_idx, np.arange(slc.m_count))
        assert np.array_equal(slc.h_labels[table.k_idx], slc.m_labels[:, :d])


def test_torus_sign_flip_symmetry():
    table = torus_coefficients(enumerate_spectrum(torus_pair(2, 1), 6.0))
    entries = _entry_map(table)
    for ((m, k), v) in list(entries.items()):
        flipped = entries[(tuple(-x for x in m), tuple(-x for x in k))]
        assert flipped == v


def test_torus_coefficients_memory_bounded():
    # the entries are filtered before build_table makes the rows, so no
    # unfiltered copy outlives the filter: torus(2,1) at lambda = 300,
    # 282,697 entries and 70,975 rows, peaks at about 14 MB above the slice
    slc = enumerate_spectrum(torus_pair(2, 1), 300.0, h_cutoff=311.0)
    tracemalloc.start()
    try:
        table = torus_coefficients(slc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (table.entry_count, len(table.lam)) == (282_697, 70_975)
    assert peak <= 17e6


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


@pytest.mark.parametrize("normalization", ["laplace", "degree"])
@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
def test_sphere_entries_match_per_entry_closed_form(n, d, normalization):
    # one entry per m = 0 mode with a nonzero value, each equal to the
    # closed form of its own (N, l) block (the blocks' own oracle is
    # test_sphere_blocks_match_per_block_closed_form)
    slc = enumerate_spectrum(sphere_pair(n, d, normalization), 14.0)
    table = sphere_coefficients(slc)
    labels = slc.m_labels
    start, _, _, c = _sphere_blocks(n, d, int(labels[:, 0].max()))
    # an m = 0 mode has N - l even, so this is its own block
    want = c[start[labels[:, 0]] + labels[:, 1] // 2]
    kept = (labels[:, 2] == 0) & (want > 1e-14)
    assert np.array_equal(table.j_idx, np.nonzero(kept)[0])
    assert np.array_equal(table.values, want[kept])
    assert np.array_equal(slc.h_labels[table.k_idx],
                          labels[table.j_idx][:, [1, 3]])


@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3),
                                  (5, 2)])
def test_sphere_blocks_match_per_block_closed_form(n, d):
    # the tabulated-lgamma blocks against the per-block closed form: every
    # block up to N = 40, every 97th block and all 501 blocks of N = 1000
    start, N, l, c = _sphere_blocks(n, d, 1000)
    assert np.all((N - l) % 2 == 0) and np.all((0 <= l) & (l <= N))
    assert np.array_equal(start[N] + l // 2, np.arange(len(N)))
    pick = np.unique(np.concatenate([np.nonzero(N <= 40)[0],
                                     np.arange(0, len(N), 97),
                                     np.nonzero(N == 1000)[0]]))
    want = np.array([sphere_coefficient_value(n, d, int(N[i]), int(l[i]))
                     for i in pick])
    assert np.all(want > 0.0)
    assert_allclose(c[pick], want, rtol=1e-14, atol=0)


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
    rows = parseval_row_sums(table)
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


@pytest.mark.parametrize("pair, build", [
    (torus_pair(3, 1), torus_coefficients),
    (sphere_pair(3, 2), sphere_coefficients),
])
def test_per_mode_builders_reject_h_cutoff_below_cutoff(pair, build):
    # a table cut in mu below lambda_max would silently drop coefficients;
    # from lambda_max up, a higher H cutoff adds H-modes but no entry, since
    # every restricted M-mode meets one H-mode with mu <= lambda
    with pytest.raises(ValidationError, match="H cutoff"):
        build(enumerate_spectrum(pair, 12.0, h_cutoff=11.0))
    tight = build(enumerate_spectrum(pair, 12.0))
    wide = build(enumerate_spectrum(pair, 12.0, h_cutoff=24.0))
    assert tight.slice.h_cutoff == 12.0
    assert wide.slice.h_count > tight.slice.h_count
    for name in ("lam", "mu", "weight", "key"):
        assert np.array_equal(getattr(tight, name), getattr(wide, name))
    assert np.all(tight.mu <= tight.lam * (1 + 1e-15))


# --------------------------------------------------------------------- cache

def _assert_same_rows(a, b):
    for name in ("lam", "mu", "weight", "key"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
        assert getattr(a, name).dtype == getattr(b, name).dtype


def test_cache_hit_is_identical(tmp_path):
    pair = torus_pair(2, 1)
    first = load_or_build(pair, 8.0, str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    mtime = files[0].stat().st_mtime_ns
    second = load_or_build(pair, 8.0, str(tmp_path))
    assert files[0].stat().st_mtime_ns == mtime  # no rewrite on hit
    _assert_same_rows(first, second)


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
    _assert_same_rows(rebuilt, fresh)


_CACHE_PAIRS = [torus_pair(2, 1), torus_pair(3, 2, (5.0, 6.5, 7.0)),
                sphere_pair(3, 1, "degree")]


def _damaged_rebuild(tmp_path, pair, damage):
    fresh = load_or_build(pair, 7.0, str(tmp_path))
    path = next(tmp_path.iterdir())
    path.write_bytes(damage(path.read_bytes()))
    with pytest.warns(CacheCorruptionWarning):
        rebuilt = load_or_build(pair, 7.0, str(tmp_path))
    _assert_same_rows(rebuilt, fresh)
    _assert_same_rows(load_or_build(pair, 7.0, str(tmp_path)), fresh)


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(_CACHE_PAIRS), cut=st.floats(0.0, 1.0,
                                                         exclude_max=True))
def test_cache_truncated_rebuilds(tmp_path_factory, pair, cut):
    _damaged_rebuild(tmp_path_factory.mktemp("cache"), pair,
                     lambda raw: raw[:int(cut * len(raw))])


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(_CACHE_PAIRS), at=st.floats(0.0, 1.0,
                                                        exclude_max=True),
       flip=st.integers(1, 255))
def test_cache_flipped_byte_rebuilds(tmp_path_factory, pair, at, flip):
    def damage(raw):
        i = int(at * len(raw))
        return raw[:i] + bytes([raw[i] ^ flip]) + raw[i + 1:]

    _damaged_rebuild(tmp_path_factory.mktemp("cache"), pair, damage)


@pytest.mark.parametrize("pair", _CACHE_PAIRS)
def test_cache_band_table_has_its_own_key(tmp_path, pair):
    # the band is part of the key and the header: a band table and the
    # full table of one pair and lambda_max are two files, and a band hit
    # returns the band rows bit for bit
    full = load_or_build(pair, 7.0, str(tmp_path))
    band = load_or_build(pair, 7.0, str(tmp_path), band=(1.0, 1.5))
    files = sorted(tmp_path.iterdir())
    assert len(files) == 2
    assert full.band is None and band.band == (1.0, 1.5)
    assert 0 < band.entry_count < full.entry_count
    _assert_same_rows(band, build_table(pair, 7.0, band=(1.0, 1.5)))
    mtimes = [f.stat().st_mtime_ns for f in files]
    hit = load_or_build(pair, 7.0, str(tmp_path), band=(1, 1.5))
    _assert_same_rows(hit, band)
    assert hit.band == band.band and hit.need == band.need
    _assert_same_rows(load_or_build(pair, 7.0, str(tmp_path)), full)
    assert [f.stat().st_mtime_ns for f in files] == mtimes
    load_or_build(pair, 7.0, str(tmp_path), band=(1.0, 1.25))
    assert len(list(tmp_path.iterdir())) == 3


@pytest.mark.parametrize("band", [(1.5, 0.5), (-0.1, 0.5), (1.0, -0.5),
                                  (1.0, math.inf), (math.nan, 0.5)])
def test_build_table_rejects_bad_band(tmp_path, band):
    for pair in (torus_pair(2, 1), sphere_pair(2, 1)):
        with pytest.raises(ValidationError):
            build_table(pair, 6.0, band=band)
        with pytest.raises(ValidationError):
            load_or_build(pair, 6.0, str(tmp_path / "cache"), band=band)
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("pair", _CACHE_PAIRS)
def test_cache_hit_arrays_are_aligned(tmp_path, pair):
    # the header line is padded so the arrays start at a multiple of 8
    load_or_build(pair, 7.0, str(tmp_path))
    raw = next(tmp_path.iterdir()).read_bytes()
    assert (raw.index(b"\n", len(b"kuzweyl rows\n")) + 1) % 8 == 0
    hit = load_or_build(pair, 7.0, str(tmp_path))
    for name in ("lam", "mu", "weight", "key"):
        assert getattr(hit, name).flags.aligned


def test_cache_unpadded_header_still_hits(tmp_path):
    # a current-schema file written before the header padding loads as is
    pair = torus_pair(2, 1)
    fresh = load_or_build(pair, 7.0, str(tmp_path))
    path = next(tmp_path.iterdir())
    raw = path.read_bytes()
    end = raw.index(b"\n", len(b"kuzweyl rows\n"))
    assert raw[end - 1:end] == b" "
    body = raw[:end].rstrip(b" ") + raw[end:-32]
    path.write_bytes(body + hashlib.sha256(body).digest())
    mtime = path.stat().st_mtime_ns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_rows(load_or_build(pair, 7.0, str(tmp_path)), fresh)
    assert path.stat().st_mtime_ns == mtime


def test_cache_schema2_file_rebuilds_silently(tmp_path):
    # a per-mode table in the schema-2 npz layout, under the current key
    pair = torus_pair(2, 1)
    fresh = load_or_build(pair, 6.0, str(tmp_path))
    path = next(tmp_path.iterdir())
    old = torus_coefficients(enumerate_spectrum(pair, 6.0))
    header = json.dumps({"schema_version": 2, "pair": pair.to_dict(),
                         "lambda_max": 6.0, "mu_max": 6.0})
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(header.encode(), dtype=np.uint8),
                 m_labels=old.slice.m_labels, m_freqs=old.slice.m_freqs,
                 j_idx=old.j_idx, k_idx=old.k_idx, values=old.values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rebuilt = load_or_build(pair, 6.0, str(tmp_path))
    _assert_same_rows(rebuilt, fresh)
    mtime = path.stat().st_mtime_ns  # replaced by current rows: a hit
    _assert_same_rows(load_or_build(pair, 6.0, str(tmp_path)), fresh)
    assert path.stat().st_mtime_ns == mtime


def test_cache_schema3_file_rebuilds_silently(tmp_path):
    # a well-formed row file under the current key is stale, not damaged,
    # when it is of schema 3 (mu_max in its header, no budget need) or of
    # schema 4 (its need counted lattice candidates, not shell pairs; here
    # one above the budget, which a stale file must not enforce) or of
    # schema 5 (unequal periods keyed by rounded squared frequencies) or of
    # schema 6 (no band in its key)
    pair = torus_pair(2, 1)
    fresh = load_or_build(pair, 6.0, str(tmp_path))
    path = next(tmp_path.iterdir())
    for old_fields in ({"schema_version": 3, "mu_max": 6.0},
                       {"schema_version": 4, "need": 10**9},
                       {"schema_version": 5, "need": fresh.need},
                       {"schema_version": 6, "need": fresh.need}):
        header = json.dumps({"pair": pair.to_dict(), "lambda_max": 6.0,
                             **old_fields})
        body = b"".join(
            [b"kuzweyl rows\n", header.encode(), b"\n"]
            + [np.ascontiguousarray(a, dtype=dt).tobytes() for a, dt in
               zip((fresh.lam, fresh.mu, fresh.weight, fresh.key),
                   ("<f8", "<f8", "<f8", "<i8"))])
        path.write_bytes(body + hashlib.sha256(body).digest())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_same_rows(load_or_build(pair, 6.0, str(tmp_path)), fresh)
        header = json.loads(path.read_bytes().split(b"\n")[1])
        assert header["schema_version"] == SCHEMA_VERSION == 7


@pytest.mark.parametrize("pair", [torus_pair(2, 1), sphere_pair(3, 1)])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_build_table_rejects_non_finite_lambda_max(tmp_path, pair, bad):
    with pytest.raises(ValidationError):
        build_table(pair, bad)
    with pytest.raises(ValidationError):
        load_or_build(pair, bad, str(tmp_path / "cache"))
    assert not (tmp_path / "cache").exists()  # a failed build writes nothing


@pytest.mark.parametrize("pair, lam", [
    (torus_pair(2, 1), 320.0), (torus_pair(3, 1), 64.0),
    (torus_pair(3, 2), 64.0), (torus_pair(4, 2), 30.0),
    (torus_pair(3, 2, (5.0,) * 3), 64.0)])
def test_equal_period_rows_are_in_lexsort_order(pair, lam):
    # lam is a function of the integer key for equal periods, so the rows'
    # stable key order is the (key, lam) order unequal periods sort by
    table = build_table(pair, lam)
    order = np.lexsort((table.lam, table.key))
    assert np.array_equal(order, np.arange(len(order)))


def test_build_table_sphere_dispatch():
    table = build_table(sphere_pair(2, 1), 6.0)
    assert table.pair.kind == "sphere"
    assert table.lambda_max == 6.0
    assert table.entry_count > 0


@pytest.mark.parametrize("pair", [torus_pair(2, 1), torus_pair(3, 2),
                                  sphere_pair(2, 1)])
def test_cache_hit_keeps_the_budget(tmp_path, pair):
    # a warm cache raises ResourceGuardError exactly when a cold build
    # does: the build's largest guarded count is kept in the cache header
    # (the rows here: torus(3,2) has 329, and the shell pairs of its 2-D
    # factor lattice's steps are at most 90; a band table's count is its
    # shell pairs near the band, or for the sphere every block)
    for band in (None, (1.0, 0.5)):
        root = tmp_path / str(band)
        warm = str(root / "warm")
        need = load_or_build(pair, 10.0, warm, band=band).need
        outcomes = {}
        for budget in range(need - 2, need + 3):
            for state, cache in (("cold", str(root / f"cold{budget}")),
                                 ("warm", warm)):
                try:
                    load_or_build(pair, 10.0, cache, budget=budget, band=band)
                    outcomes[state, budget] = True
                except ResourceGuardError:
                    outcomes[state, budget] = False
        assert outcomes == {(state, b): b >= need
                            for state in ("cold", "warm")
                            for b in range(need - 2, need + 3)}
        assert len(os.listdir(warm)) == 1


def test_row_budget_edge():
    # the budget counts each coordinate's range, the shell pairs of each
    # step and the rows; at the row count, the largest here, the build
    # fits, one below it raises
    pair = torus_pair(2, 1)
    rows = build_table(pair, 40.0).entry_count
    assert rows > 81  # more rows than points of either factor lattice
    assert build_table(pair, 40.0, budget=rows).entry_count == rows
    with pytest.raises(ResourceGuardError):
        build_table(pair, 40.0, budget=rows - 1)
    sphere = build_table(sphere_pair(2, 1), 40.0).entry_count
    assert build_table(sphere_pair(2, 1), 40.0,
                       budget=sphere).entry_count == sphere
    with pytest.raises(ResourceGuardError):
        build_table(sphere_pair(2, 1), 40.0, budget=sphere - 1)


@pytest.mark.parametrize("pair, lam", [
    (torus_pair(3, 1), 1e5),  # the 2-D factor lattice: ~8e9 shell pairs
    (torus_pair(2, 1), 1e4),  # factor lattices fit, ~8e7 rows do not
    (sphere_pair(2, 1), 1e4),  # ~2.5e7 (N, l) rows
    (torus_pair(2, 1), 1e7),  # its 80 MB range itself would break the peak
    (sphere_pair(2, 1), 1e9),  # the top degree is found without a loop
])
def test_row_budget_guard_before_allocating(pair, lam):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceGuardError):
            build_table(pair, lam, budget=1_000_000)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6
    assert elapsed <= 1.0


@pytest.mark.parametrize("n, d, lam", [(4, 1, 120.0), (5, 1, 100.0),
                                       (6, 1, 60.0), (6, 2, 40.0)])
def test_torus_rows_match_lattice_shell_counts(n, d, lam):
    # tori with n - d >= 3 inside the default budget and 200 MB: over each
    # key K = |m|^2, the rows' weight times Vol(T^(n-d)) counts the points
    # of Z^n on the shell K, r_n(K), from the independent int64 oracle
    tracemalloc.start()
    try:
        table = build_table(torus_pair(n, d), lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200e6
    B_max = int(lam * lam)
    got = np.bincount(table.key, weights=table.weight, minlength=B_max + 1)
    want = lattice_shell_counts(n, B_max)
    assert_allclose(got * (2 * PI) ** (n - d), want, rtol=1e-12, atol=0)
