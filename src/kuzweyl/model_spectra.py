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
    "difference_spectrum",
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
    N = 0
    while float(_sphere_frequency(N + 1, pair_n, normalization)) <= cutoff:
        N += 1
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


# --------------------------------------------------------------------------
# torus enumeration
# --------------------------------------------------------------------------

def _torus_count_estimate(periods, cutoff: float) -> float:
    # volume of the frequency ellipsoid |2 pi m / L| <= cutoff
    dim = len(periods)
    ball = pi ** (dim / 2.0) / math.exp(math.lgamma(dim / 2.0 + 1.0))
    vol = ball
    for L in periods:
        vol *= cutoff * L / (2.0 * pi)
    return vol


def _enumerate_torus_lattice(periods, cutoff: float, budget: int):
    """All m in Z^dim with sum (2 pi m_i / L_i)^2 <= cutoff^2, lex-sorted."""
    dim = len(periods)
    est = _torus_count_estimate(periods, cutoff)
    if est > 1.2 * budget + 1000:
        raise ResourceGuardError(
            f"estimated mode count {est:.3g} exceeds budget {budget}")
    scale = np.array([2.0 * pi / L for L in periods])
    bounds = np.floor(cutoff / scale + 1e-12).astype(np.int64)
    uniform = np.allclose(scale, scale[0], rtol=0, atol=0)
    cut2 = cutoff * cutoff
    chunks_lab = []
    chunks_key = []
    if dim == 1:
        m = np.arange(-bounds[0], bounds[0] + 1, dtype=np.int64)
        keep = (scale[0] * m) ** 2 <= cut2 * (1 + 1e-15)
        chunks_lab.append(m[keep].reshape(-1, 1))
        chunks_key.append((m[keep] ** 2))
    else:
        tail = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds[1:]]
        grids = np.meshgrid(*tail, indexing="ij")
        tail_labels = np.stack([g.ravel() for g in grids], axis=1)
        tail_q = np.zeros(len(tail_labels))
        for i in range(1, dim):
            tail_q += (scale[i] * tail_labels[:, i - 1]) ** 2
        for m1 in range(-int(bounds[0]), int(bounds[0]) + 1):
            q = tail_q + (scale[0] * m1) ** 2
            keep = q <= cut2 * (1 + 1e-15)
            if not np.any(keep):
                continue
            lab = np.empty((int(keep.sum()), dim), dtype=np.int64)
            lab[:, 0] = m1
            lab[:, 1:] = tail_labels[keep]
            chunks_lab.append(lab)
            if uniform:
                chunks_key.append((lab.astype(np.int64) ** 2).sum(axis=1))
            else:
                chunks_key.append(np.zeros(len(lab), dtype=np.int64))
    labels = np.concatenate(chunks_lab, axis=0)
    keys = np.concatenate(chunks_key)
    if len(labels) > budget:
        raise ResourceGuardError(
            f"mode count {len(labels)} exceeds budget {budget}")
    freqs2 = np.zeros(len(labels))
    for i in range(dim):
        freqs2 += (scale[i] * labels[:, i]) ** 2
    freqs = np.sqrt(freqs2)
    if not uniform:
        # no exact integer key available: group by rounded squared frequency
        keys = np.round(freqs2 / (np.min(scale) ** 2) * (1 << 20)).astype(np.int64)
    # deterministic order: frequency group, then lexicographic label
    sort_keys = tuple(labels[:, i] for i in range(dim - 1, -1, -1)) + (keys,)
    order = np.lexsort(sort_keys)
    return (labels[order].astype(np.int32), freqs[order], keys[order])


# --------------------------------------------------------------------------
# sphere enumeration
# --------------------------------------------------------------------------

def _enumerate_sphere_ambient(n: int, d: int, normalization: str,
                              cutoff: float, budget: int):
    """Adapted-basis labels (N, l, m, alpha, beta) for degrees up to cutoff."""
    n_max = _sphere_degree_max(n, normalization, cutoff)
    q_trans = n - d - 1
    total = sum(harmonic_dim(n, N) for N in range(n_max + 1))
    if total > budget:
        raise ResourceGuardError(f"mode count {total} exceeds budget {budget}")
    labels = np.empty((total, 5), dtype=np.int32)
    degrees = np.empty(total, dtype=np.int64)
    pos = 0
    for N in range(n_max + 1):
        block = []
        for l in range(N, -1, -1):
            for m in range(N - l, -1, -1):
                if (N - l - m) % 2:
                    continue
                da = harmonic_dim(d, l)
                db = harmonic_dim(q_trans, m)
                if da == 0 or db == 0:
                    continue
                block.append((l, m, da, db))
        # lexicographic in (l, m, alpha, beta)
        block.sort()
        for (l, m, da, db) in block:
            cnt = da * db
            seg = labels[pos:pos + cnt]
            seg[:, 0] = N
            seg[:, 1] = l
            seg[:, 2] = m
            seg[:, 3] = np.repeat(np.arange(da, dtype=np.int32), db)
            seg[:, 4] = np.tile(np.arange(db, dtype=np.int32), da)
            degrees[pos:pos + cnt] = N
            pos += cnt
    if pos != total:
        raise RuntimeError("adapted-basis enumeration does not fill the eigenspace")
    freqs = _sphere_frequency(degrees, n, normalization)
    return labels, freqs, degrees


def _enumerate_sphere_sub(d: int, normalization: str, cutoff: float, budget: int):
    l_max = _sphere_degree_max(d, normalization, cutoff)
    total = sum(harmonic_dim(d, l) for l in range(l_max + 1))
    if total > budget:
        raise ResourceGuardError(f"mode count {total} exceeds budget {budget}")
    labels = np.empty((total, 2), dtype=np.int32)
    degrees = np.empty(total, dtype=np.int64)
    pos = 0
    for l in range(l_max + 1):
        cnt = harmonic_dim(d, l)
        labels[pos:pos + cnt, 0] = l
        labels[pos:pos + cnt, 1] = np.arange(cnt, dtype=np.int32)
        degrees[pos:pos + cnt] = l
        pos += cnt
    freqs = _sphere_frequency(degrees, d, normalization)
    return labels, freqs, degrees


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def enumerate_spectrum(pair: ManifoldPair, lambda_max: float, *,
                       h_cutoff: float = None,
                       budget: int = MODE_BUDGET_DEFAULT) -> SpectrumSlice:
    """All modes of M with frequency <= lambda_max and of H up to h_cutoff.

    h_cutoff defaults to lambda_max.  Raises ResourceGuardError when the
    mode count would exceed the budget.
    """
    if lambda_max <= 0:
        raise ValidationError("lambda_max must be > 0")
    h_cut = float(h_cutoff) if h_cutoff is not None else float(lambda_max)
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


def difference_spectrum(slice_: SpectrumSlice, c: float,
                        max_pairs: int = 50_000_000) -> np.ndarray:
    """The ordered multiset {c*lambda_j - mu_k} over all mode pairs, ascending."""
    if not 0.0 <= c <= 1.0:
        raise ValidationError("need 0 <= c <= 1")
    n_pairs = slice_.m_count * slice_.h_count
    if n_pairs > max_pairs:
        raise ResourceGuardError(
            f"difference spectrum would hold {n_pairs} entries")
    diffs = (c * slice_.m_freqs[:, None] - slice_.h_freqs[None, :]).ravel()
    diffs.sort()
    return diffs
