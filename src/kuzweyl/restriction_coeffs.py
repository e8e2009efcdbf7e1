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

Tables are complete in mu: the one H-mode a restricted M-mode meets has
mu_k <= lambda_j, so the M-modes up to lambda_max need no H-mode beyond it
(the per-mode builders refuse a slice whose H cutoff is lower).

So the sums need only eigenvalue pairs and the coefficient mass on each:
build_table and load_or_build return a RowTable, one (lam, mu, weight, key)
row per torus shell pair or sphere (N, l) block, and the row builders are
the only code that makes rows.  Given band=(c, eps) they keep only the
rows |c lam - mu| <= eps that sharp sums read: the torus builder forms only
the shell pairs near that band, the sphere builder filters its blocks.
torus_coefficients and sphere_coefficients return a CoefficientTable, the
RowTable of the slice's pair and cutoff that also keeps the per-mode
entries of an enumerated SpectrumSlice.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from math import lgamma, pi
from typing import Optional

import numpy as np

from .errors import CacheCorruptionWarning, ValidationError
from .model_spectra import (
    MODE_BUDGET_DEFAULT,
    ManifoldPair,
    SpectrumSlice,
    _float_eigenkeys,
    _guard,
    _harmonic_dims,
    _key_order,
    _run_positions,
    _sphere_degree_max,
    _sphere_frequency,
)
from .special_functions import sphere_volume

__all__ = [
    "SCHEMA_VERSION",
    "CoefficientTable",
    "RowTable",
    "torus_coefficients",
    "sphere_coefficients",
    "build_table",
    "load_or_build",
]

SCHEMA_VERSION = 7


@dataclass(frozen=True)
class RowTable:
    """Squared restriction coefficients summed over eigenvalue pairs.

    Row i stands for a set of (M-mode, H-mode) entries that share the
    M-frequency lam[i] and the H-frequency mu[i]; weight[i] is the sum of
    their squared coefficients.  Rows are sorted by the exact integer
    M-eigenkey `key` (the same keys as SpectrumSlice.m_eigenkeys), so each
    eigenspace is one run of rows.  Torus rows are the shell pairs (A, B)
    of the factor lattices, sphere rows the blocks (N, l).  `need` is the
    largest count the build checked against its budget (a coordinate's
    range, shell pairs or rows); a cache hit checks it again.

    `band` is None for a full table.  A band table, band = (c, eps), holds
    only the rows with |c lam - mu| <= eps, in the full table's order, and
    serves only sharp sums at that c and an eps no larger (kuznecov checks
    this).  With unequal periods its keys are clusters of its own rows:
    they order the rows but name no eigenspace of the full table.
    """

    pair: ManifoldPair
    lambda_max: float
    lam: np.ndarray
    mu: np.ndarray
    weight: np.ndarray
    key: np.ndarray
    need: int
    band: Optional[tuple] = field(default=None, kw_only=True)

    @property
    def entry_count(self) -> int:
        return len(self.weight)


@dataclass(frozen=True)
class CoefficientTable(RowTable):
    """A RowTable that also keeps the per-mode entries of its slice.

    Entries are triplets (j_idx, k_idx, value) indexing the slice's M- and
    H-mode arrays, sorted by j_idx (hence by M-frequency).  The slice's
    modes are sorted by eigenkey, so the entry keys are non-decreasing and
    each exact eigenspace is one run of entries.  Values below 1e-14 are
    dropped as exact zeros.  The rows are build_table's for the slice's
    pair and cutoff: their mass per eigenspace is the entries' to rounding.
    """

    slice: SpectrumSlice
    j_idx: np.ndarray
    k_idx: np.ndarray
    values: np.ndarray

    @property
    def entry_count(self) -> int:
        return len(self.values)


def _with_rows(slice_: SpectrumSlice, j, k, v) -> CoefficientTable:
    """The slice's entries (j, k, v) with build_table's rows; each count the
    row builders guard (a coordinate's range, shell pairs, sphere blocks) is
    at most the mode count, so m_count is budget enough."""
    rows = build_table(slice_.pair, slice_.cutoff, budget=slice_.m_count)
    return CoefficientTable(**vars(rows), slice=slice_, j_idx=j, k_idx=k,
                            values=v)


def _check_slice(slice_: SpectrumSlice, kind: str) -> None:
    if slice_.pair.kind != kind:
        raise ValidationError(f"{kind}_coefficients needs a {kind} pair")
    if slice_.h_cutoff < slice_.cutoff:
        raise ValidationError("H cutoff below the M cutoff misses H-modes")


# --------------------------------------------------------------------------
# torus
# --------------------------------------------------------------------------

def _inverse_transverse_volume(pair: ManifoldPair) -> float:
    """1 / Vol(T^(n-d)), the squared coefficient of every torus entry."""
    value = 1.0
    for L in pair.torus_periods[pair.d:]:
        value /= L
    return value


def torus_coefficients(slice_: SpectrumSlice) -> CoefficientTable:
    """Exact torus table: one entry per M-mode, value = 1 / Vol(transverse torus).

    Every M-mode's projection (m_1, ..., m_d) is an H-mode: its squared
    frequency is a partial sum of the M-mode's, and h_cutoff >= cutoff.
    """
    _check_slice(slice_, "torus")
    pair = slice_.pair
    h_lab = slice_.h_labels
    # dense lookup (k_1, ..., k_d) -> H index
    mins = h_lab.min(axis=0).astype(np.int64)
    dims = h_lab.max(axis=0).astype(np.int64) - mins + 1
    lookup = np.full(int(np.prod(dims)), -1, dtype=np.int64)
    lin = np.ravel_multi_index((h_lab.astype(np.int64) - mins).T, dims)
    lookup[lin] = np.arange(slice_.h_count)
    proj = slice_.m_labels[:, :pair.d] - mins
    k = lookup[np.ravel_multi_index(proj.T, dims)]
    del proj
    j = np.arange(slice_.m_count, dtype=np.int64)
    value = _inverse_transverse_volume(pair)
    if not value > 1e-14:  # the exact-zero rule, decided once for every entry
        j, k = j[:0], k[:0]
    return _with_rows(slice_, j, k, np.full(len(j), value))


# --------------------------------------------------------------------------
# sphere
# --------------------------------------------------------------------------

def _sphere_blocks(n: int, d: int, n_max: int):
    """start, N, l and the closed-form squared coefficient |c(N, l)|^2 of
    every block (N, l) with N <= n_max, l <= N and N - l even; (N, l) is
    block start[N] + l // 2."""
    per_N = np.arange(n_max + 1) // 2 + 1
    N = np.repeat(np.arange(n_max + 1), per_N)
    l = N % 2 + 2 * _run_positions(per_N)
    k = (N - l) // 2
    A, B = 0.5 * (n - d - 2), l + 0.5 * (d - 1)
    # every Gamma argument is a half-integer m / 2, 1 <= m <= 2 n_max + n:
    # lg[m] = lgamma(m / 2), and the pole at m = 0 is never read
    lg = np.array([math.inf] + [lgamma(0.5 * m)
                                for m in range(1, 2 * n_max + n + 1)])
    lg_kA, lg_k = lg[2 * k + n - d], lg[2 * k + 2]
    log_p1 = lg_kA - lg_k - lg[n - d]
    log_h = ((A + B + 1.0) * math.log(2.0) - np.log(2.0 * k + A + B + 1.0)
             + lg_kA + lg[2 * k + 2 * l + d + 1]
             - lg_k - lg[2 * k + 2 * l + n - 1])
    log_c0 = -(l + 0.5 * (n + 1)) * math.log(2.0)
    c = np.exp(2.0 * log_p1 - log_h - log_c0) / sphere_volume(n - d - 1)
    return np.cumsum(per_N) - per_N, N, l, c


def sphere_coefficients(slice_: SpectrumSlice) -> CoefficientTable:
    """Sphere table in the equator-adapted basis.

    A surviving mode (m = 0, so N - l even) takes the closed form of its
    (N, l) block, evaluated once per block.
    """
    _check_slice(slice_, "sphere")
    pair = slice_.pair
    labels = slice_.m_labels
    j = np.nonzero(labels[:, 2] == 0)[0]
    # H-modes run (l, alpha), alpha fastest: degree l starts at its first row
    k = (np.searchsorted(slice_.h_labels[:, 0], labels[j, 1])
         + labels[j, 3].astype(np.int64))
    start, _, _, c = _sphere_blocks(pair.n, pair.d, int(labels[:, 0].max()))
    vals = c[start[labels[j, 0]] + labels[j, 1] // 2]
    keep = vals > 1e-14  # values below are dropped as exact zeros
    j, k, vals = j[keep], k[keep], vals[keep]
    return _with_rows(slice_, j, k, vals)


# --------------------------------------------------------------------------
# row tables
# --------------------------------------------------------------------------

def _band_rows(lam, mu, c: float, eps: float) -> np.ndarray:
    """Indices of the rows in the sharp window's band |c lam - mu| <= eps."""
    return np.flatnonzero(np.abs(c * lam - mu) <= eps)


def _check_band(band) -> Optional[tuple]:
    """band as a (c, eps) pair of floats, 0 <= c <= 1 and finite eps >= 0,
    or None."""
    if band is None:
        return None
    c, eps = (float(v) for v in band)
    if not (0.0 <= c <= 1.0 and 0.0 <= eps < math.inf):
        raise ValidationError(f"band needs 0 <= c <= 1 and finite eps >= 0, "
                              f"got {band}")
    return c, eps


def _shell_pairs(b, hi, budget: int, lo=None):
    """Index pairs (i, j), i major, of the shells lo[i] <= b[j] <= hi[i]
    (b ascending; lo None for no lower bound) and their count, guarded
    before they are allocated."""
    stop = np.searchsorted(b, hi, side="right")
    start = 0 if lo is None else np.minimum(
        np.searchsorted(b, lo, side="left"), stop)
    per_a = stop - start
    count = _guard(int(per_a.sum()), budget, "shell pair count")
    j = _run_positions(per_a)
    if lo is not None:
        j = j + np.repeat(start, per_a)
    return np.repeat(np.arange(len(hi)), per_a), j, count


def _band_interval(a, hi, c: float, e: float, cut2: float):
    """Per shell A, the B bounds (lo, hi) outside which every B <= hi has
    |c sqrt(A + B) - sqrt(A)| > e.  They are widened, by 1e-12 cutoff in the
    root and 1e-9 cutoff^2 in B, past any rounding of the predicate on the
    rows' float lam and mu: the exact filter, not these bounds, decides."""
    e = e + 1e-12 * (1.0 + math.sqrt(cut2))
    tol = 1e-9 * (1.0 + cut2)
    root = np.sqrt(a)
    if c == 0.0:  # |0 - sqrt(A)| <= e: every B or none
        return np.where(root <= e, -np.inf, np.inf), hi
    lo = np.where(root > e, ((root - e) / c) ** 2 - a - tol, -np.inf)
    return lo, np.minimum(hi, ((root + e) / c) ** 2 - a + tol)


def _lattice_shells(scale, cutoff: float, budget: int):
    """Shells of the lattice points m with sum (scale_i m_i)^2 <= cutoff^2:
    the squared norms (summed in coordinate order, as the mode enumeration
    sums them; exact integers for unit scales), ascending, their
    multiplicities and the largest count guarded.  Built from shells, one
    coordinate at a time: the shells so far pair with the squares (s m)^2,
    m >= 0, of the next coordinate (m != 0 twice), and equal sums merge."""
    cut2 = cutoff * cutoff * (1 + 1e-15)
    q, r, need = np.zeros(1), np.ones(1, dtype=np.int64), 0
    for s in scale:
        top = _guard(int(cutoff / s + 1e-12) + 1, budget, "lattice range")
        sq = (s * np.arange(top)) ** 2
        ia, im, count = _shell_pairs(sq, cut2 - q, budget)
        need = max(need, top, count)
        q, inv = np.unique(q[ia] + sq[im], return_inverse=True)
        r = np.bincount(inv, weights=r[ia] * ((im > 0) + 1)).astype(np.int64)
    return q, r, need


def _torus_rows(pair: ManifoldPair, lambda_max: float, budget: int, band):
    """One row per shell pair (A, B) of the factor lattices Z^d x Z^(n-d)
    with A + B <= lambda_max^2, weight r_H(A) r_T(B) / Vol(T^(n-d)); for a
    band, only the pairs in it, found per A by one interval of B.

    Equal periods give integer keys A + B (as the mode enumeration's keys),
    and lam is a function of the key, so the rows take the stable key order
    of _key_order's packed sort.  Other periods give the enumeration's
    clustered squared-frequency keys, and the rows sort by key, then lam.
    Either order is a stable sort by lam, so a band's rows keep the full
    table's order.
    """
    d = pair.d
    scale = 2.0 * pi / np.array(pair.torus_periods)
    uniform = bool(np.all(scale == scale[0]))
    unit = float(scale[0]) if uniform else 1.0
    factor = np.ones(pair.n) if uniform else scale
    cutoff = lambda_max / unit
    (a, r_h, need_h), (b, r_t, need_t) = (
        _lattice_shells(part, cutoff, budget) for part in (factor[:d], factor[d:]))
    if uniform:  # unit scales: exact integer norms, and their sums the keys
        a, b = a.astype(np.int64), b.astype(np.int64)
    cut2 = cutoff * cutoff * (1 + 1e-15)
    lo, hi = None, cut2 - a
    if band is not None:
        lo, hi = _band_interval(a, hi, band[0], band[1] / unit, cut2)
    ia, ib, pairs = _shell_pairs(b, hi, budget, lo)
    q = a[ia] + b[ib]
    if band is not None:  # the exact predicate on the rows' own lam and mu
        keep = _band_rows(unit * np.sqrt(q), unit * np.sqrt(a[ia]), *band)
        ia, ib, q = ia[keep], ib[keep], q[keep]
    key = q if uniform else _float_eigenkeys(q)
    order = _key_order(q) if uniform else np.lexsort((np.sqrt(q), key))
    ia, ib, q = ia[order], ib[order], q[order]  # the rows formed in order
    key = q if uniform else key[order]
    weight = (r_h[ia] * r_t[ib]) * _inverse_transverse_volume(pair)
    return (unit * np.sqrt(q), unit * np.sqrt(a[ia]), weight, key,
            max(need_h, need_t, pairs))


def _sphere_rows(pair: ManifoldPair, lambda_max: float, budget: int, band):
    """One row per block (N, l), l <= N with N - l even, weight
    dim H_l(S^d) |c(N, l)|^2; for a band, every block is built, then
    filtered."""
    n, d, norm = pair.n, pair.d, pair.normalization
    n_max = _sphere_degree_max(n, norm, lambda_max)
    # the blocks: N // 2 + 1 of each degree N <= n_max
    need = _guard((n_max // 2 + 1) * ((n_max + 1) // 2 + 1), budget, "row count")
    _, N, l, c = _sphere_blocks(n, d, n_max)
    keep = c > 1e-14  # the per-mode tables' exact-zero rule
    N, l = N[keep], l[keep]
    rows = (_sphere_frequency(N, n, norm), _sphere_frequency(l, d, norm),
            _harmonic_dims(d, n_max)[l] * c[keep], N.astype(np.int64))
    if band is not None:
        kept = _band_rows(rows[0], rows[1], *band)
        rows = tuple(r[kept] for r in rows)
    return (*rows, need)


def build_table(pair: ManifoldPair, lambda_max: float, *,
                budget: int = MODE_BUDGET_DEFAULT, band=None) -> RowTable:
    """Row table of every M-mode up to lambda_max (complete in mu), or with
    band=(c, eps) only its rows |c lam - mu| <= eps, bit for bit and in
    the same order.

    Raises ResourceGuardError, before allocating, when a coordinate's range,
    the shell pairs of a step or the rows would exceed the budget.
    """
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise ValidationError("lambda_max must be finite and > 0")
    lam_max, band = float(lambda_max), _check_band(band)
    rows = _torus_rows if pair.kind == "torus" else _sphere_rows
    return RowTable(pair, lam_max, *rows(pair, lam_max, budget, band),
                    band=band)


# --------------------------------------------------------------------------
# cache
# --------------------------------------------------------------------------

# A cache file is _MAGIC, a one-line JSON header (the key fields, the band
# among them, plus the build's budget need, padded with spaces so that the
# arrays start at a multiple of 8 bytes and load aligned), the four row
# arrays (lam, mu, weight as little-endian float64, key as int64) and the
# sha256 of everything before it, so any truncation or flipped byte is
# caught.
_MAGIC = b"kuzweyl rows\n"
_ROW_DTYPES = ("<f8", "<f8", "<f8", "<i8")


def _header(pair: ManifoldPair, lambda_max: float, band) -> dict:
    return {"schema_version": SCHEMA_VERSION, "pair": pair.to_dict(),
            "lambda_max": lambda_max, "band": list(band) if band else None}


def _cache_key(pair: ManifoldPair, lambda_max: float, band) -> str:
    key = json.dumps(_header(pair, lambda_max, band), sort_keys=True)
    return hashlib.sha256(key.encode()).hexdigest()[:24]


def _save_rows(table: RowTable, path: str) -> None:
    header = dict(_header(table.pair, table.lambda_max, table.band),
                  need=table.need)
    head = _MAGIC + json.dumps(header).encode()
    parts = [head + b" " * (-(len(head) + 1) % 8) + b"\n"] + [
        np.ascontiguousarray(arr, dtype=dt) for arr, dt in
        zip((table.lam, table.mu, table.weight, table.key), _ROW_DTYPES)]
    digest = hashlib.sha256()
    tmp_fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                        suffix=".tmp")
    try:
        with os.fdopen(tmp_fd, "wb") as fh:
            for part in parts:  # no joined copy: each part hashed, written
                digest.update(part)
                fh.write(part)
            fh.write(digest.digest())
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def _load_rows(path: str, pair: ManifoldPair, lambda_max: float, band,
               budget: int) -> Optional[RowTable]:
    """The cached rows; None for a stale file (another schema or key),
    ValueError for a damaged one, ResourceGuardError when the build would
    have raised."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(b"PK"):  # an npz table of schema <= 2
        return None
    body = memoryview(raw)[:-32]
    digest = hashlib.sha256(body).digest()
    if not raw.startswith(_MAGIC) or digest != raw[-32:]:
        raise ValueError("checksum mismatch")
    end = raw.index(b"\n", len(_MAGIC))
    header = json.loads(raw[len(_MAGIC):end])
    need = header.pop("need", None)
    if header != _header(pair, lambda_max, band) or need is None:
        return None
    _guard(need, budget, "the cached build's count")
    payload = body[end + 1:]
    rows, rest = divmod(len(payload), 32)
    if rest:
        raise ValueError("row payload is not four whole arrays")
    arrays = [np.frombuffer(payload, dtype=dt, count=rows, offset=8 * rows * i)
              for i, dt in enumerate(_ROW_DTYPES)]
    return RowTable(pair, lambda_max, *arrays, need, band=band)


def load_or_build(pair: ManifoldPair, lambda_max: float, cache_dir: str, *,
                  budget: int = MODE_BUDGET_DEFAULT, band=None) -> RowTable:
    """Cached build_table: returns the cached rows when the key (band
    included) matches, rebuilds (and replaces the file) on a miss or a
    stale file, and warns CacheCorruptionWarning before rebuilding over a
    damaged one.  A hit raises ResourceGuardError exactly when the build
    would."""
    lam_max, band = float(lambda_max), _check_band(band)
    path = os.path.join(cache_dir,
                        f"rows-{_cache_key(pair, lam_max, band)}.bin")
    if os.path.exists(path):
        try:
            cached = _load_rows(path, pair, lam_max, band, budget)
            if cached is not None:
                return cached
        except (OSError, ValueError) as exc:
            warnings.warn(f"cache file {path} unusable ({exc}); rebuilding",
                          CacheCorruptionWarning)
    table = build_table(pair, lam_max, budget=budget, band=band)
    os.makedirs(cache_dir, exist_ok=True)
    _save_rows(table, path)
    return table
