"""Exact spectra and mode enumeration for the two model pairs.

Torus pair: coordinate sub-torus T^d inside T^n, eigenmodes are integer
lattice vectors with frequency |2 pi m / period| per coordinate.

Sphere pair: equatorial S^d inside S^n.  Ambient eigenspaces are enumerated
in the basis adapted to the equator via the orthogonal split
R^{n+1} = R^{d+1} x R^{n-d}: a mode is labeled (N, l, m, alpha, beta) with
ambient degree N, equatorial degree l on S^d (basis index alpha), transverse
degree m on S^{n-d-1} (basis index beta), and N - l - m even and >= 0.
This is an orthonormal basis choice within each eigenspace; the spectral
sums downstream are basis-independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import pi
import numpy as np

from .errors import ResourceGuardError, ValidationError

__all__ = [
    "MODE_BUDGET_DEFAULT",
    "ManifoldPair",
    "SpectrumSlice",
    "torus_pair",
    "sphere_pair",
    "harmonic_dim",
    "enumerate_spectrum",
]

MODE_BUDGET_DEFAULT = 5_000_000

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ManifoldPair:
    """Which model geometry: kind 'torus' or 'sphere', ambient n, submanifold d.

    For spheres, `normalization` selects the frequency convention:
    'laplace' gives sqrt(N(N+n-1)); 'degree' gives N + (n-1)/2.
    For tori, `torus_periods` are the n periods of M; the sub-torus H uses
    the first d of them (coordinate embedding, totally geodesic).
    """

    kind: str
    n: int
    d: int
    normalization: str = "laplace"
    torus_periods: tuple = None

    def __post_init__(self):
        if self.kind not in ("torus", "sphere"):
            raise ValidationError(f"unknown pair kind {self.kind!r}")
        if self.n < 2:
            raise ValidationError("ambient dimension must be >= 2")
        if not 1 <= self.d <= self.n - 1:
            raise ValidationError("need 1 <= d <= n-1")
        if self.kind == "sphere":
            if self.normalization not in ("laplace", "degree"):
                raise ValidationError(f"unknown normalization {self.normalization!r}")
            if self.torus_periods is not None:
                raise ValidationError("torus_periods only applies to torus pairs")
        else:
            periods = self.torus_periods
            if periods is None:
                periods = tuple(2.0 * pi for _ in range(self.n))
            else:
                periods = tuple(float(p) for p in periods)
                if len(periods) != self.n:
                    raise ValidationError("need one period per ambient coordinate")
                if any(p <= 0 for p in periods):
                    raise ValidationError("periods must be positive")
            object.__setattr__(self, "torus_periods", periods)

    @property
    def h_periods(self) -> tuple:
        return self.torus_periods[: self.d]

    @property
    def label(self) -> str:
        return f"{self.kind}({self.n},{self.d})"

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "d": self.d}
        if self.kind == "sphere":
            out["normalization"] = self.normalization
        else:
            out["torus_periods"] = list(self.torus_periods)
        return out


def torus_pair(n: int, d: int, periods=None) -> ManifoldPair:
    return ManifoldPair(kind="torus", n=n, d=d, torus_periods=periods)


def sphere_pair(n: int, d: int, normalization: str = "laplace") -> ManifoldPair:
    return ManifoldPair(kind="sphere", n=n, d=d, normalization=normalization)


def harmonic_dim(q: int, l: int) -> int:
    """Dimension of degree-l spherical harmonics on S^q (S^0 = two points)."""
    if q < 0 or l < 0:
        raise ValidationError("need q >= 0 and l >= 0")
    if q == 0:
        return 1 if l in (0, 1) else 0
    if l == 0:
        return 1
    if l == 1:
        return q + 1
    return math.comb(l + q, q) - math.comb(l - 2 + q, q)


def _sphere_frequency(degree, n: int, normalization: str):
    degree = np.asarray(degree, dtype=float)
    if normalization == "laplace":
        return np.sqrt(degree * (degree + n - 1.0))
    return degree + (n - 1.0) / 2.0


def _sphere_degree_max(pair_n: int, normalization: str, cutoff: float) -> int:
    """Largest degree N >= 0 with frequency <= cutoff (0 if none has): the
    closed-form root, then one correction step each way for rounding."""
    h = 0.5 * (pair_n - 1)
    root = math.hypot(h, cutoff) - h if normalization == "laplace" else cutoff - h
    N = max(int(root), 0)
    N += float(_sphere_frequency(N + 1, pair_n, normalization)) <= cutoff
    N -= N > 0 and float(_sphere_frequency(N, pair_n, normalization)) > cutoff
    return N


@dataclass
class SpectrumSlice:
    """All modes of a pair up to frequency cutoffs, deterministically ordered.

    m_* arrays describe the ambient modes (labels as rows of an int array),
    h_* the submanifold modes.  eigenkeys are exact integer eigenspace keys
    (squared scaled norm for default tori, degree for spheres) used for
    label-exact eigenvalue matching.
    """

    pair: ManifoldPair
    cutoff: float
    h_cutoff: float
    m_labels: np.ndarray
    m_freqs: np.ndarray
    m_eigenkeys: np.ndarray
    h_labels: np.ndarray
    h_freqs: np.ndarray
    h_eigenkeys: np.ndarray

    @property
    def m_count(self) -> int:
        return len(self.m_freqs)

    @property
    def h_count(self) -> int:
        return len(self.h_freqs)

    def to_json(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "pair": self.pair.to_dict(),
            "cutoff": self.cutoff,
            "h_cutoff": self.h_cutoff,
            "m_modes": {
                "labels": self.m_labels.tolist(),
                "frequencies": self.m_freqs.tolist(),
                "eigenkeys": self.m_eigenkeys.tolist(),
            },
            "h_modes": {
                "labels": self.h_labels.tolist(),
                "frequencies": self.h_freqs.tolist(),
                "eigenkeys": self.h_eigenkeys.tolist(),
            },
        }
        return json.dumps(doc)


def _guard(count: int, budget: int, what: str) -> int:
    """count, or ResourceGuardError when it exceeds the budget.  Every
    resource limit is checked here, before the allocation it counts."""
    if count > budget:
        raise ResourceGuardError(f"{what} {count} exceeds budget {budget}")
    return count


# --------------------------------------------------------------------------
# torus enumeration
# --------------------------------------------------------------------------

def _lattice_points(scale, cutoff: float, budget: int):
    """All m in Z^dim with sum (scale_i m_i)^2 <= cutoff^2.

    Built one coordinate at a time: each step pairs the points kept so far
    with the candidates of the next coordinate, and keeps the pairs inside
    (a row gather by np.take along axis 0, much faster than fancy indexing
    of a 2-D array).  The budget guards each step's candidate count before
    the step allocates anything.  Returns the int32 labels in lexicographic
    order and their squared norms summed in coordinate order.
    """
    cut2 = cutoff * cutoff * (1 + 1e-15)
    points = np.zeros((1, 0), dtype=np.int32)
    q = np.zeros(1)
    for s in scale:
        top = int(cutoff / s + 1e-12)
        _guard(len(q) * (2 * top + 1), budget, "lattice candidate count")
        m = np.arange(-top, top + 1, dtype=np.int32)
        q = q[:, None] + (s * m) ** 2
        inside = q <= cut2
        row, col = np.nonzero(inside)
        points = np.hstack((np.take(points, row, axis=0), m[col, None]))
        q = q[inside]  # row-major, the order of np.nonzero
    return points, q


def _key_order(keys) -> np.ndarray:
    """np.argsort(keys, kind="stable") of non-negative int64 keys, bit for
    bit, by one value sort.

    Each key is packed above its index, key << shift | i with shift =
    (n - 1).bit_length(); the packed values are distinct and sort as
    (key, i) pairs, so masking the index back out of the sorted array gives
    the stable order.  Every step is in place, so the sort holds one int64
    array of n beside the keys.  Keys that do not fit in 63 - shift bits
    (a 1-D lattice of more than about 3e6 points) take the stable argsort.
    """
    n = len(keys)
    shift = (n - 1).bit_length()
    if n < 2 or int(keys.max()) >> (63 - shift):
        return np.argsort(keys, kind="stable")
    order = keys << shift
    order |= np.arange(n)
    order.sort()
    order &= (1 << shift) - 1
    return order


def _float_eigenkeys(q) -> np.ndarray:
    """Eigenspace keys where no exact integer key exists (unequal scales):
    the index of q's cluster in the sorted squared frequencies, a new
    cluster starting wherever the gap exceeds 2^-40 q.  Sums of the same
    squares in another order differ by a few ulps, far below that gap;
    distinct eigenvalues within it of each other would share a key."""
    order = np.argsort(q, kind="stable")
    qs = q[order]
    keys = np.empty(len(q), dtype=np.int64)
    keys[order] = np.cumsum(np.diff(qs, prepend=qs[:1]) > np.ldexp(qs, -40))
    return keys


def _enumerate_torus_lattice(periods, cutoff: float, budget: int):
    """All m in Z^dim with sum (2 pi m_i / L_i)^2 <= cutoff^2, ordered by
    eigenkey (|m|^2 for equal periods), then lexicographically: the stable
    order of the keys, by _key_order's packed sort (its stable argsort
    where a key does not pack), with the rows gathered by np.take."""
    scale = np.array([2.0 * pi / L for L in periods])
    labels, q = _lattice_points(scale, cutoff, budget)
    if np.all(scale == scale[0]):
        keys = sum(np.square(m, dtype=np.int64) for m in labels.T)  # |m|^2
    else:
        keys = _float_eigenkeys(q)
    order = _key_order(keys)
    return (np.take(labels, order, axis=0), np.sqrt(q)[order],
            keys[order])


# --------------------------------------------------------------------------
# sphere enumeration
# --------------------------------------------------------------------------

def _harmonic_dims(q: int, top: int) -> np.ndarray:
    return np.array([harmonic_dim(q, l) for l in range(top + 1)], dtype=np.int64)


def _harmonic_count(q: int, top: int) -> int:
    """Harmonics of degree <= top on S^q in closed form, no per-degree list."""
    return math.comb(top + q, q) + (math.comb(top + q - 1, q) if top + q else 0)


def _run_positions(counts) -> np.ndarray:
    """0, 1, ..., c - 1 for each c in counts, concatenated, as int32."""
    pos = np.arange(int(counts.sum()), dtype=np.int32)
    pos -= np.repeat((np.cumsum(counts) - counts).astype(np.int32), counts)
    return pos


def _enumerate_sphere_ambient(n: int, d: int, normalization: str,
                              cutoff: float, budget: int):
    """Adapted-basis labels (N, l, m, alpha, beta) for degrees up to cutoff.

    Blocks (N, l, m) with N - l - m even and >= 0 run in lexicographic
    order; block (N, l, m) holds dim_d(l) * dim_{n-d-1}(m) modes, alpha
    major, beta minor.
    """
    n_max = _sphere_degree_max(n, normalization, cutoff)
    total = _guard(_harmonic_count(n, n_max), budget, "mode count")
    q = n - d - 1
    da, db = _harmonic_dims(d, n_max), _harmonic_dims(q, n_max)
    # (N, l) with l <= N, then m = N - l - 2k >= 0 ascending; S^q has
    # harmonics of every degree for q >= 1, of degrees 0 and 1 only for q = 0
    per_N = np.arange(1, n_max + 2)
    N = np.repeat(np.arange(n_max + 1, dtype=np.int32), per_N)
    l = _run_positions(per_N)
    s = N - l
    per_Nl = s // 2 + 1 if q else np.ones_like(s)
    N, l, s = np.repeat(N, per_Nl), np.repeat(l, per_Nl), np.repeat(s, per_Nl)
    m = s % 2 + 2 * _run_positions(per_Nl)
    del s
    cnt = da[l] * db[m]
    if int(cnt.sum()) != total:
        raise RuntimeError("adapted-basis enumeration does not fill the eigenspace")
    labels = np.empty((total, 5), dtype=np.int32)
    for col, per_block in enumerate((N, l, m)):
        labels[:, col] = np.repeat(per_block, cnt)
    np.divmod(_run_positions(cnt), np.repeat(db[m].astype(np.int32), cnt),
              out=(labels[:, 3], labels[:, 4]))
    degrees = np.repeat(N.astype(np.int64), cnt)
    freqs = np.repeat(_sphere_frequency(N, n, normalization), cnt)
    return labels, freqs, degrees


def _enumerate_sphere_sub(d: int, normalization: str, cutoff: float, budget: int):
    l_max = _sphere_degree_max(d, normalization, cutoff)
    _guard(_harmonic_count(d, l_max), budget, "mode count")
    dims = _harmonic_dims(d, l_max)
    degrees = np.repeat(np.arange(l_max + 1, dtype=np.int64), dims)
    labels = np.stack([degrees.astype(np.int32), _run_positions(dims)], axis=1)
    return labels, _sphere_frequency(degrees, d, normalization), degrees


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def enumerate_spectrum(pair: ManifoldPair, lambda_max: float, *,
                       h_cutoff: float = None,
                       budget: int = MODE_BUDGET_DEFAULT) -> SpectrumSlice:
    """All modes of M with frequency <= lambda_max and of H up to h_cutoff.

    h_cutoff defaults to lambda_max; both must be finite.  Raises
    ResourceGuardError, before allocating, when the mode count (spheres) or
    a step's lattice candidates (tori, see _lattice_points) would exceed
    the budget.
    """
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise ValidationError("lambda_max must be finite and > 0")
    h_cut = float(h_cutoff) if h_cutoff is not None else float(lambda_max)
    if not math.isfinite(h_cut):
        raise ValidationError("h_cutoff must be finite")
    if pair.kind == "torus":
        m_lab, m_fr, m_key = _enumerate_torus_lattice(pair.torus_periods,
                                                      lambda_max, budget)
        h_lab, h_fr, h_key = _enumerate_torus_lattice(pair.h_periods,
                                                      h_cut, budget)
    else:
        m_lab, m_fr, m_key = _enumerate_sphere_ambient(
            pair.n, pair.d, pair.normalization, lambda_max, budget)
        h_lab, h_fr, h_key = _enumerate_sphere_sub(
            pair.d, pair.normalization, h_cut, budget)
    return SpectrumSlice(pair=pair, cutoff=float(lambda_max), h_cutoff=h_cut,
                         m_labels=m_lab, m_freqs=m_fr, m_eigenkeys=m_key,
                         h_labels=h_lab, h_freqs=h_fr, h_eigenkeys=h_key)
