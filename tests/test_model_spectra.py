import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuzweyl.errors import ResourceGuardError, ValidationError
from kuzweyl.model_spectra import (
    ManifoldPair,
    _enumerate_sphere_ambient,
    _enumerate_sphere_sub,
    _enumerate_torus_lattice,
    _harmonic_count,
    _harmonic_dims,
    _key_order,
    _lattice_points,
    _sphere_degree_max,
    _sphere_frequency,
    enumerate_spectrum,
    harmonic_dim,
    sphere_pair,
    torus_pair,
)
from kuzweyl.restriction_coeffs import _lattice_shells

from oracles import (
    difference_spectrum,
    enumerate_sphere_ambient_loop,
    enumerate_torus_lattice_lexsort,
    sphere_degree_max_loop,
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


@pytest.mark.parametrize("normalization", ["laplace", "degree"])
@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2),
                                 (5, 2), (5, 3)])
def test_sphere_enumeration_matches_loops(n, d, normalization):
    # cutoffs midway between consecutive degrees, so n_max = 0, 1, 2, 7
    for n_max in (0, 1, 2, 7):
        cutoff = 0.5 * float(_sphere_frequency(n_max, n, normalization)
                             + _sphere_frequency(n_max + 1, n, normalization))
        got = _enumerate_sphere_ambient(n, d, normalization, cutoff, 10**6)
        want = enumerate_sphere_ambient_loop(n, d, normalization, cutoff,
                                             10**6)
        assert int(got[2].max()) == n_max
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
        # the submanifold S^d: (l, alpha) rows, degree-major
        labels, freqs, degrees = _enumerate_sphere_sub(d, normalization,
                                                       cutoff, 10**6)
        want = [(l, a) for l in range(int(degrees.max()) + 1)
                for a in range(harmonic_dim(d, l))]
        assert labels.dtype == np.int32 and degrees.dtype == np.int64
        assert np.array_equal(labels, np.array(want))
        assert np.array_equal(degrees, labels[:, 0])
        assert np.array_equal(freqs, _sphere_frequency(degrees, d,
                                                       normalization))


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


TORUS_PERIODS = {
    "2pi": lambda dim: (2 * math.pi,) * dim,
    "5": lambda dim: (5.0,) * dim,
    "mixed": lambda dim: (6.0, 7.5, 5.0, 4.3)[:dim],
    "irrational": lambda dim: (1.0, math.sqrt(2), math.e, 0.7)[:dim],
}


TORUS_CUTOFFS = [
    (1, (0.3, 1.0, 12.5, 40.0, 200.0)),
    (2, (0.3, 1.0, 12.5, 40.0, 120.0)),
    (3, (0.3, 1.0, 12.5, 20.0, 35.0)),
    (4, (0.3, 1.0, 8.0, 11.0, 14.0)),
]


@pytest.mark.parametrize("periods", sorted(TORUS_PERIODS))
@pytest.mark.parametrize("dim, cutoffs", TORUS_CUTOFFS)
def test_torus_enumeration_matches_lexsort_oracle(dim, cutoffs, periods):
    # bit for bit, dtypes included; sqrt(50) is an exact shell radius
    # (1 + 49 = 25 + 25) for 2 pi periods, and its multiple by 2 pi / 5 the
    # same shell for periods 5
    per = TORUS_PERIODS[periods](dim)
    for cutoff in cutoffs + (math.sqrt(50), math.sqrt(50) * 2 * math.pi / 5):
        got = _enumerate_torus_lattice(per, cutoff, 10**8)
        want = enumerate_torus_lattice_lexsort(per, cutoff, 10**8)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


@pytest.mark.parametrize("periods", sorted(TORUS_PERIODS) + ["cache"])
@pytest.mark.parametrize("dim, cutoffs", TORUS_CUTOFFS + [
    (1, (162.0, 800.0)), (2, (162.0,))])
def test_lattice_shells_match_enumerated_norms(dim, cutoffs, periods):
    # bit for bit, dtypes included: the shells and multiplicities built
    # from shells are np.unique of the enumerated points' norms, for every
    # run of coordinates a factor lattice of the tests' pairs can take
    per = ((5.0, 6.5, 7.0, 7.0) if periods == "cache"
           else TORUS_PERIODS[periods](4))
    for start in range(4 - dim + 1):
        scale = 2 * math.pi / np.array(per[start:start + dim])
        for cutoff in cutoffs + (math.sqrt(50), math.sqrt(50) * 2 * math.pi / 5):
            q, r, need = _lattice_shells(scale, cutoff, 10**8)
            want = np.unique(_lattice_points(scale, cutoff, 10**8)[1],
                             return_counts=True)
            for g, w in zip((q, r), want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)
            assert need >= len(q)


@pytest.mark.parametrize("normalization", ["laplace", "degree"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sphere_degree_max_matches_loop(n, normalization):
    # the closed-form root equals the degree-by-degree search at every
    # exact frequency, one ulp either side, and cutoffs below the first
    degrees = np.concatenate([np.arange(60), [97, 250, 1000]])
    freqs = _sphere_frequency(degrees, n, normalization)
    for f in np.concatenate([freqs, [0.0, 0.2, 0.7, 1.3, 1e3 + 0.5]]):
        for cutoff in (np.nextafter(f, -np.inf), f, np.nextafter(f, np.inf)):
            cutoff = float(cutoff)
            assert (_sphere_degree_max(n, normalization, cutoff)
                    == sphere_degree_max_loop(n, normalization, cutoff))


@pytest.mark.parametrize("n, N", [(4, 134806211), (5, 95865105),
                                  (6, 143786873)])
def test_sphere_degree_max_corrects_its_root(n, N):
    # far beyond the loop's reach, degrees where the rounded closed-form
    # root of a laplace frequency lands one below (n = 4, 5) or one above
    # (n = 6) the answer: the degree whose frequency brackets the cutoff
    f = _sphere_frequency(N, n, "laplace")
    for cutoff in (np.nextafter(f, -np.inf), f, np.nextafter(f, np.inf)):
        top = _sphere_degree_max(n, "laplace", float(cutoff))
        assert top in (N - 1, N)
        assert (_sphere_frequency(top, n, "laplace") <= cutoff
                < _sphere_frequency(top + 1, n, "laplace"))


def _candidate_count(periods, cutoff):
    """Largest count of (kept prefix point, next coordinate) candidates
    when the lattice is built one coordinate at a time, from the oracle's
    prefix lattices."""
    counts = []
    for i, L in enumerate(periods):
        top = math.floor(cutoff * L / (2 * math.pi) + 1e-12)
        prefix = (len(enumerate_torus_lattice_lexsort(periods[:i], cutoff,
                                                      10**8)[0])
                  if i else 1)
        counts.append(prefix * (2 * top + 1))
    return max(counts)


@pytest.mark.parametrize("pair, lam, h_cut", [
    (torus_pair(2, 1), 30.0, None),
    (torus_pair(3, 1), 12.0, None),
    (torus_pair(3, 2), 12.0, 60.0),  # the H lattice holds the most candidates
    (torus_pair(3, 2, periods=(6.0, 7.5, 5.0)), 9.5, None),
])
def test_torus_budget_edge(pair, lam, h_cut):
    # the budget counts lattice candidates (prefix points times the next
    # coordinate's range), the largest of the M and H lattices: at that
    # count the slice fits, one below it raises
    h = lam if h_cut is None else h_cut
    need = max(_candidate_count(pair.torus_periods, lam),
               _candidate_count(pair.h_periods, h))
    slc = enumerate_spectrum(pair, lam, h_cutoff=h_cut, budget=need)
    assert max(slc.m_count, slc.h_count) < need
    with pytest.raises(ResourceGuardError, match="candidate count"):
        enumerate_spectrum(pair, lam, h_cutoff=h_cut, budget=need - 1)


@pytest.mark.parametrize("pair, lam", [
    (torus_pair(3, 1), 2000.0),  # 4001^2 candidates at the second coordinate
    (torus_pair(2, 1), 1e6),  # 2e6 + 1 candidates at the first
    (torus_pair(2, 1), 1e7),  # its 80 MB range itself would break the peak
])
def test_torus_budget_guard_before_allocating(pair, lam):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError):
            enumerate_spectrum(pair, lam, budget=1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_harmonic_count_matches_dims_sum():
    for q in range(7):
        for top in range(60):
            assert _harmonic_count(q, top) == int(_harmonic_dims(q, top).sum())


@pytest.mark.parametrize("enumerate_sphere", [
    lambda: _enumerate_sphere_ambient(2, 1, "laplace", 1e6, 1_000_000),
    lambda: _enumerate_sphere_sub(1, "laplace", 1e6, 1_000_000),
], ids=["ambient", "sub"])
def test_sphere_budget_guard_before_allocating(enumerate_sphere):
    # the mode count comes from its closed form: no per-degree list of
    # 1e6 dims is built before the guard raises
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match="mode count"):
            enumerate_sphere()
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.02
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError):
            enumerate_sphere()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_lambda_max_validation():
    with pytest.raises(ValidationError):
        enumerate_spectrum(torus_pair(2, 1), -1.0)
    with pytest.raises(ValidationError):
        difference_spectrum(enumerate_spectrum(torus_pair(2, 1), 2.0), 1.5)


@pytest.mark.parametrize("pair", [torus_pair(2, 1), sphere_pair(2, 1)])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_enumerate_spectrum_rejects_non_finite_cutoffs(pair, bad):
    # an infinite cutoff once overflowed in int(), a NaN one raised from
    # numpy; both are validation errors now, for either cutoff
    with pytest.raises(ValidationError):
        enumerate_spectrum(pair, bad)
    with pytest.raises(ValidationError):
        enumerate_spectrum(pair, 3.0, h_cutoff=bad)


@pytest.mark.parametrize("keys", [
    np.zeros(0, dtype=np.int64),
    np.array([7], dtype=np.int64),
    np.random.default_rng(1).integers(0, 5, 5000),
    np.random.default_rng(2).integers(0, 2**40, 3000),
], ids=["empty", "one", "ties", "spread"])
def test_key_order_is_the_stable_argsort(keys):
    got, want = _key_order(keys), np.argsort(keys, kind="stable")
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 1000, 1025])
@pytest.mark.parametrize("past_top", [0, 1], ids=["packs", "fallback"])
def test_key_order_at_the_packing_limit(n, past_top):
    # n keys pack above a (n - 1).bit_length()-bit index while the largest
    # key fits in the 63 - shift bits left; one more takes the stable
    # argsort, where packing would overflow into the sign bit
    top = (1 << (63 - (n - 1).bit_length())) - 1 + past_top
    keys = np.random.default_rng(n).integers(0, 4, n)
    keys[::3] = top
    got, want = _key_order(keys), np.argsort(keys, kind="stable")
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("periods, cutoff", [
    ((2 * math.pi,) * 2, 60.0), ((2 * math.pi,) * 3, 15.0),
    ((5.0, 6.5, 7.0), 15.0)], ids=["2-1", "3-2", "unequal"])
def test_enumeration_keys_match_einsum(periods, cutoff):
    # equal periods: the keys, squared column by column, are the einsum's
    # integer |m|^2 of the labels; unequal periods keep the oracle's keys
    labels, _, keys = _enumerate_torus_lattice(periods, cutoff, 10**7)
    if len(set(periods)) == 1:
        want = np.einsum("ij,ij->i", labels, labels, dtype=np.int64)
    else:
        want = enumerate_torus_lattice_lexsort(periods, cutoff, 10**7)[2]
    assert keys.dtype == np.int64 and np.array_equal(keys, want)


def test_torus_enumeration_memory_bounded():
    # torus(2,1) at lambda = 300: 282,697 modes, one int64 packed-key array
    # beside the keys while they sort; peaks at about 15.8 MB
    tracemalloc.start()
    try:
        slc = enumerate_spectrum(torus_pair(2, 1), 300.0, h_cutoff=311.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slc.m_count == 282_697
    assert peak <= 17e6


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
