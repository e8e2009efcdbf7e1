"""Squared restriction Fourier coefficients |<restricted M-mode, H-mode>|^2.

Torus: with the complex exponential bases, each M-mode m has exactly one
nonzero coefficient, against the H-mode k = (m_1, ..., m_d); its squared
value is the inverse volume of the transverse torus (so (2 pi)^{-(n-d)} with
default periods).

Sphere: in the equator-adapted basis (see model_spectra), each ambient mode
(N, l, m, alpha, beta) restricts to zero unless m = 0, in which case the
restriction is a multiple of the single H-mode (l, alpha).  The squared
coefficient depends only on the block (N, l) and has, for every (n, d), the
closed form

    |c(N, l)|^2 = P_k^{(A,B)}(1)^2 / (c0 * h_k * Vol(S^{n-d-1})),

with k = (N-l)/2, A = (n-d-2)/2, B = l + (d-1)/2, h_k the Jacobi norm and
c0 the measure constant of the split.  For (n, d) = (2, 1) it equals the
squared theta-normalized associated Legendre value at the equator, which
the tests use as an independent oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from math import lgamma
from typing import Optional

import numpy as np

from .errors import CacheCorruptionWarning, ValidationError
from .model_spectra import (
    MODE_BUDGET_DEFAULT,
    ManifoldPair,
    SpectrumSlice,
    enumerate_spectrum,
)
from .special_functions import sphere_volume

__all__ = [
    "SCHEMA_VERSION",
    "CoefficientTable",
    "torus_coefficients",
    "sphere_coefficients",
    "sphere_coefficient_value",
    "build_table",
    "load_or_build",
]

SCHEMA_VERSION = 2


@dataclass
class CoefficientTable:
    """Sparse table of squared restriction coefficients over a SpectrumSlice.

    Entries are triplets (j_idx, k_idx, value) indexing the slice's M- and
    H-mode arrays, sorted by j_idx (hence by M-frequency).  The slice's
    modes are sorted by eigenkey, so slice.m_eigenkeys[j_idx] is
    non-decreasing and each exact eigenspace is one run of entries; the
    per-eigenspace sums rely on this.  Values below 1e-14 are dropped as
    exact zeros.
    """

    pair: ManifoldPair
    lambda_max: float
    mu_max: float
    schema_version: int
    slice: SpectrumSlice
    j_idx: np.ndarray
    k_idx: np.ndarray
    values: np.ndarray

    @property
    def entry_count(self) -> int:
        return len(self.values)

    def entry_m_freqs(self) -> np.ndarray:
        return self.slice.m_freqs[self.j_idx]

    def entry_h_freqs(self) -> np.ndarray:
        return self.slice.h_freqs[self.k_idx]

    def build_hash(self) -> str:
        h = hashlib.sha256()
        for arr in (self.j_idx, self.k_idx, self.values):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def _drop_tiny(j, k, v):
    keep = v > 1e-14
    return j[keep], k[keep], v[keep]


# --------------------------------------------------------------------------
# torus
# --------------------------------------------------------------------------

def torus_coefficients(slice_: SpectrumSlice) -> CoefficientTable:
    """Exact torus table: one entry per M-mode, value = 1 / Vol(transverse torus)."""
    pair = slice_.pair
    if pair.kind != "torus":
        raise ValidationError("torus_coefficients needs a torus pair")
    d = pair.d
    h_lab = slice_.h_labels
    if slice_.h_count == 0:
        raise ValidationError("empty H spectrum")
    # dense lookup (k_1, ..., k_d) -> H index
    mins = h_lab.min(axis=0).astype(np.int64)
    maxs = h_lab.max(axis=0).astype(np.int64)
    dims = (maxs - mins + 1).astype(np.int64)
    lookup = np.full(int(np.prod(dims)), -1, dtype=np.int64)
    lin = np.ravel_multi_index((h_lab.astype(np.int64) - mins).T, dims)
    lookup[lin] = np.arange(slice_.h_count)
    proj = slice_.m_labels[:, :d].astype(np.int64)
    inside = np.all((proj >= mins) & (proj <= maxs), axis=1)
    j = np.nonzero(inside)[0]
    lin_m = np.ravel_multi_index((proj[inside] - mins).T, dims)
    k = lookup[lin_m]
    ok = k >= 0
    j, k = j[ok], k[ok]
    value = 1.0
    for L in pair.torus_periods[d:]:
        value /= L
    v = np.full(len(j), value)
    j, k, v = _drop_tiny(j.astype(np.int64), k.astype(np.int64), v)
    order = np.argsort(j, kind="stable")
    return CoefficientTable(pair=pair, lambda_max=slice_.cutoff,
                            mu_max=slice_.h_cutoff,
                            schema_version=SCHEMA_VERSION, slice=slice_,
                            j_idx=j[order], k_idx=k[order], values=v[order])


# --------------------------------------------------------------------------
# sphere
# --------------------------------------------------------------------------

def sphere_coefficient_value(n: int, d: int, N: int, l: int) -> float:
    """Closed-form squared coefficient of the adapted mode (N, l, m=0).

    Zero when N - l is odd; otherwise the Jacobi-polynomial value at the
    equator, normalized in the split measure.
    """
    if not (0 <= l <= N):
        raise ValidationError("need 0 <= l <= N")
    if (N - l) % 2:
        return 0.0
    k = (N - l) // 2
    A = 0.5 * (n - d - 2)
    B = l + 0.5 * (d - 1)
    log_p1 = lgamma(k + A + 1.0) - lgamma(k + 1.0) - lgamma(A + 1.0)
    log_h = ((A + B + 1.0) * math.log(2.0) - math.log(2.0 * k + A + B + 1.0)
             + lgamma(k + A + 1.0) + lgamma(k + B + 1.0)
             - lgamma(k + 1.0) - lgamma(k + A + B + 1.0))
    log_c0 = -(l + 0.5 * (n + 1)) * math.log(2.0)
    return math.exp(2.0 * log_p1 - log_h - log_c0) / sphere_volume(n - d - 1)


def sphere_coefficients(slice_: SpectrumSlice) -> CoefficientTable:
    """Sphere table in the equator-adapted basis.

    The surviving modes (m = 0, l within the H cutoff) are grouped by their
    (N, l) block and the closed form is evaluated once per block.
    """
    pair = slice_.pair
    if pair.kind != "sphere":
        raise ValidationError("sphere_coefficients needs a sphere pair")
    labels = slice_.m_labels
    h_lab = slice_.h_labels
    l_max_h = int(h_lab[:, 0].max()) if len(h_lab) else -1
    j = np.nonzero((labels[:, 2] == 0) & (labels[:, 1] <= l_max_h))[0]
    # H-modes run (l, alpha) with alpha fastest: degree l starts at first[l]
    first = np.searchsorted(h_lab[:, 0], np.arange(l_max_h + 1))
    k = first[labels[j, 1]] + labels[j, 3].astype(np.int64)
    blocks, inverse = np.unique(labels[j, :2], axis=0, return_inverse=True)
    block_vals = np.array([sphere_coefficient_value(pair.n, pair.d, N, l)
                           for N, l in blocks.tolist()], dtype=float)
    j, k, vals = _drop_tiny(j, k, block_vals[inverse.reshape(-1)])
    return CoefficientTable(pair=pair, lambda_max=slice_.cutoff,
                            mu_max=slice_.h_cutoff,
                            schema_version=SCHEMA_VERSION, slice=slice_,
                            j_idx=j, k_idx=k, values=vals)


# --------------------------------------------------------------------------
# build + cache
# --------------------------------------------------------------------------

def build_table(pair: ManifoldPair, lambda_max: float, *,
                mu_max: float = None,
                budget: int = MODE_BUDGET_DEFAULT) -> CoefficientTable:
    mu = float(mu_max) if mu_max is not None else float(lambda_max)
    mu = max(mu, float(lambda_max))
    slice_ = enumerate_spectrum(pair, lambda_max, h_cutoff=mu, budget=budget)
    if pair.kind == "torus":
        return torus_coefficients(slice_)
    return sphere_coefficients(slice_)


def _cache_key(pair: ManifoldPair, lambda_max: float, mu_max) -> str:
    key = json.dumps({"pair": pair.to_dict(), "lambda_max": lambda_max,
                      "mu_max": mu_max, "schema": SCHEMA_VERSION},
                     sort_keys=True)
    return hashlib.sha256(key.encode()).hexdigest()[:24]


def _save_table(table: CoefficientTable, path: str) -> None:
    header = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "pair": table.pair.to_dict(),
        "lambda_max": table.lambda_max,
        "mu_max": table.mu_max,
        "build_hash": table.build_hash(),
    })
    tmp_fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                        suffix=".tmp")
    try:
        with os.fdopen(tmp_fd, "wb") as fh:
            np.savez(fh,
                     header=np.frombuffer(header.encode(), dtype=np.uint8),
                     m_labels=table.slice.m_labels,
                     m_freqs=table.slice.m_freqs,
                     m_eigenkeys=table.slice.m_eigenkeys,
                     h_labels=table.slice.h_labels,
                     h_freqs=table.slice.h_freqs,
                     h_eigenkeys=table.slice.h_eigenkeys,
                     j_idx=table.j_idx, k_idx=table.k_idx, values=table.values)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def _load_table(path: str, pair: ManifoldPair, lambda_max: float,
                mu_max: float) -> Optional[CoefficientTable]:
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("schema_version") != SCHEMA_VERSION:
            return None
        if header["pair"] != pair.to_dict():
            return None
        if header["lambda_max"] != lambda_max or header["mu_max"] != mu_max:
            return None
        slice_ = SpectrumSlice(
            pair=pair, cutoff=lambda_max, h_cutoff=mu_max,
            m_labels=data["m_labels"], m_freqs=data["m_freqs"],
            m_eigenkeys=data["m_eigenkeys"], h_labels=data["h_labels"],
            h_freqs=data["h_freqs"], h_eigenkeys=data["h_eigenkeys"])
        table = CoefficientTable(
            pair=pair, lambda_max=lambda_max, mu_max=mu_max,
            schema_version=SCHEMA_VERSION, slice=slice_,
            j_idx=data["j_idx"], k_idx=data["k_idx"], values=data["values"])
        if table.build_hash() != header["build_hash"]:
            raise ValueError("payload hash mismatch")
        return table


def load_or_build(pair: ManifoldPair, lambda_max: float, cache_dir: str, *,
                  mu_max: float = None,
                  budget: int = MODE_BUDGET_DEFAULT) -> CoefficientTable:
    """Cached table fetch: returns the cached build when the key matches,
    rebuilds (and replaces the file) on miss, version mismatch, or corruption."""
    os.makedirs(cache_dir, exist_ok=True)
    mu = float(mu_max) if mu_max is not None else float(lambda_max)
    mu = max(mu, float(lambda_max))
    key = _cache_key(pair, float(lambda_max), mu)
    path = os.path.join(cache_dir, f"coeffs-{key}.npz")
    if os.path.exists(path):
        try:
            cached = _load_table(path, pair, float(lambda_max), mu)
            if cached is not None:
                return cached
        except Exception as exc:
            warnings.warn(f"cache file {path} unusable ({exc}); rebuilding",
                          CacheCorruptionWarning)
    table = build_table(pair, lambda_max, mu_max=mu, budget=budget)
    _save_table(table, path)
    return table
