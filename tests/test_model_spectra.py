import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuzweyl.errors import ResourceGuardError, ValidationError
from kuzweyl.model_spectra import (
    ManifoldPair,
    difference_spectrum,
    enumerate_spectrum,
    harmonic_dim,
    sphere_pair,
    torus_pair,
)


def test_pair_validation():
    with pytest.raises(ValidationError):
        ManifoldPair(kind="torus", n=2, d=2)
    with pytest.raises(ValidationError):
        ManifoldPair(kind="klein", n=2, d=1)
    with pytest.raises(ValidationError):
        ManifoldPair(kind="torus", n=3, d=1, torus_periods=(1.0, 2.0))
    with pytest.raises(ValidationError):
        sphere_pair(3, 1, normalization="weird")


def test_torus_enumeration_small():
    # brute-force lattice scan |m| <= 1.5 gives the 9 points of the 3x3 block
    slc = enumerate_spectrum(torus_pair(2, 1), 1.5)
    assert slc.m_count == 9
    labels = {tuple(row) for row in slc.m_labels.tolist()}
    assert labels == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}
    assert slc.h_count == 3  # k in {-1, 0, 1}


def test_sphere_enumeration_counts():
    # lambda = 0.5 keeps only the constant; lambda = 2.9 keeps N <= 2:
    # sqrt(2*3) = 2.449 <= 2.9 < sqrt(3*4) = 3.464, so 1 + 3 + 5 = 9 modes
    assert enumerate_spectrum(sphere_pair(2, 1), 0.5).m_count == 1
    assert enumerate_spectrum(sphere_pair(2, 1), 2.9).m_count == 9


def test_sphere_frequencies():
    slc = enumerate_spectrum(sphere_pair(2, 1), 5.0)
    for i in range(slc.m_count):
        N = slc.m_labels[i, 0]
        assert slc.m_freqs[i] == pytest.approx(math.sqrt(N * (N + 1)))
    slc2 = enumerate_spectrum(sphere_pair(2, 1, "degree"), 5.0)
    degrees = slc2.m_labels[:, 0]
    assert np.allclose(slc2.m_freqs, degrees + 0.5)


def test_sphere_per_degree_multiplicities():
    # per-degree counts match the closed-form harmonic dimension
    for n in (2, 3, 4):
        pair = sphere_pair(n, 1)
        slc = enumerate_spectrum(pair, 32.0, budget=10_000_000)
        degrees, counts = np.unique(slc.m_labels[:, 0], return_counts=True)
        assert degrees.max() >= 30
        for N, cnt in zip(degrees, counts):
            assert cnt == harmonic_dim(n, int(N))


def test_harmonic_dim_formula():
    assert [harmonic_dim(2, l) for l in range(5)] == [1, 3, 5, 7, 9]
    assert [harmonic_dim(1, l) for l in range(4)] == [1, 2, 2, 2]
    assert [harmonic_dim(0, l) for l in range(4)] == [1, 1, 0, 0]
    # S^3: (N+1)^2
    assert all(harmonic_dim(3, N) == (N + 1) ** 2 for N in range(12))


def test_difference_spectrum_torus_examples():
    slc = enumerate_spectrum(torus_pair(2, 1), 1.5)
    diffs = difference_spectrum(slc, 1.0)
    assert len(diffs) == slc.m_count * slc.h_count
    # brute-force over the 9 x 3 pairs: contains 0 (m=(1,0) vs k=1) and
    # 1 (m=(0,1) vs k=0)
    assert np.any(np.abs(diffs) < 1e-14)
    assert np.any(np.abs(diffs - 1.0) < 1e-14)
    brute = sorted(c * lam - mu for lam in slc.m_freqs for mu in slc.h_freqs
                   for c in (1.0,))
    assert np.allclose(diffs, brute)


def test_difference_spectrum_c_zero():
    # c = 0 kills lambda_j: the negated H-spectrum with M-multiplicities
    slc = enumerate_spectrum(torus_pair(2, 1), 2.5)
    diffs = difference_spectrum(slc, 0.0)
    expected = np.sort(np.repeat(-slc.h_freqs, slc.m_count))
    assert np.allclose(diffs, expected)


def test_difference_spectrum_degree_shift_half_integers():
    slc = enumerate_spectrum(sphere_pair(2, 1, "degree"), 8.0)
    diffs = difference_spectrum(slc, 1.0)
    assert np.max(np.abs(2 * diffs - np.round(2 * diffs))) < 1e-12


def test_weyl_law_density():
    # torus mode count / lambda^n near the unit-ball volume, 10% at lambda=50
    for n in (2, 3):
        pair = torus_pair(n, 1)
        slc = enumerate_spectrum(pair, 50.0, budget=2_000_000)
        ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
        assert slc.m_count / 50.0 ** n == pytest.approx(ball, rel=0.10)


def test_enumeration_deterministic():
    a = enumerate_spectrum(torus_pair(2, 1), 12.0)
    b = enumerate_spectrum(torus_pair(2, 1), 12.0)
    assert np.array_equal(a.m_labels, b.m_labels)
    assert np.array_equal(a.m_freqs, b.m_freqs)
    s = enumerate_spectrum(sphere_pair(3, 2), 9.0)
    t = enumerate_spectrum(sphere_pair(3, 2), 9.0)
    assert np.array_equal(s.m_labels, t.m_labels)


def test_frequencies_sorted_and_nonnegative():
    for pair in (torus_pair(3, 2), sphere_pair(3, 1)):
        slc = enumerate_spectrum(pair, 6.5)
        assert np.all(np.diff(slc.m_freqs) >= -1e-12)
        assert np.all(slc.m_freqs >= 0)
        assert np.all(slc.m_freqs <= 6.5 + 1e-12)


def test_budget_guard():
    with pytest.raises(ResourceGuardError):
        enumerate_spectrum(torus_pair(3, 1), 500.0, budget=10_000)
    with pytest.raises(ResourceGuardError):
        enumerate_spectrum(sphere_pair(2, 1), 400.0, budget=1_000)


def test_lambda_max_validation():
    with pytest.raises(ValidationError):
        enumerate_spectrum(torus_pair(2, 1), -1.0)
    with pytest.raises(ValidationError):
        difference_spectrum(enumerate_spectrum(torus_pair(2, 1), 2.0), 1.5)


def test_json_roundtrip():
    slc = enumerate_spectrum(sphere_pair(3, 1), 4.0)
    doc = json.loads(slc.to_json())
    assert doc["pair"] == slc.pair.to_dict()
    for side, labels, freqs, keys in (
            ("m_modes", slc.m_labels, slc.m_freqs, slc.m_eigenkeys),
            ("h_modes", slc.h_labels, slc.h_freqs, slc.h_eigenkeys)):
        assert np.array_equal(np.asarray(doc[side]["labels"]), labels)
        assert np.array_equal(np.asarray(doc[side]["frequencies"]), freqs)
        assert np.array_equal(np.asarray(doc[side]["eigenkeys"]), keys)


def test_custom_periods():
    # doubling the periods halves every frequency
    base = enumerate_spectrum(torus_pair(2, 1), 3.0)
    big = enumerate_spectrum(torus_pair(2, 1, periods=(4 * math.pi, 4 * math.pi)), 1.5)
    assert big.m_count == base.m_count
    assert np.allclose(np.sort(big.m_freqs) * 2, np.sort(base.m_freqs))


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=0.0, max_value=1.0),
       lmax=st.floats(min_value=1.0, max_value=6.0))
def test_difference_spectrum_properties(c, lmax):
    slc = enumerate_spectrum(torus_pair(2, 1), lmax)
    diffs = difference_spectrum(slc, c)
    assert len(diffs) == slc.m_count * slc.h_count
    assert np.all(np.diff(diffs) >= 0)
    assert diffs[0] >= -np.max(slc.h_freqs) - 1e-12
    assert diffs[-1] <= c * np.max(slc.m_freqs) + 1e-12
