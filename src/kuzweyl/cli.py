"""Command-line interface and experiment orchestration.

Subcommands: spectrum, coeffs, sums, fit, coefficient, model-integral,
double-bessel, hadamard, trace, run.  Exit codes: 0 success, 1 validation,
2 numerical-tolerance failure, 3 resource guard.  Environment variables
KUZWEYL_CACHE_DIR and KUZWEYL_OUTPUT_DIR override the cache/output
directories; nothing else is configurable through the environment.

`run` consumes a flat key = value config (configparser sections) and writes
CSV artifacts plus a JSON comparison report and a plain-text summary.
All floating-point emission uses 17 significant digits.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import (
    fit_growth,
    flat_leading_coefficient,
    predicted_exponent,
    sphere_leading_coefficient,
    subcritical_coefficient,
)
from .errors import ResourceGuardError, ToleranceError, ValidationError
from .kuznecov import (
    SumTable,
    _write_csv,
    averaged_sharp_sum,
    dual_trace,
    kuznecov_sum,
    make_test_function,
)
from .model_spectra import (
    MODE_BUDGET_DEFAULT,
    ManifoldPair,
    enumerate_spectrum,
    sphere_pair,
    torus_pair,
)
from .oscillatory_models import (
    RadialMetric,
    double_bessel,
    hadamard_transport,
    model_integral,
)
from .restriction_coeffs import load_or_build


def _cache_dir(override=None):
    return override or os.environ.get("KUZWEYL_CACHE_DIR", ".kuzweyl-cache")


def _out_dir(override=None):
    return override or os.environ.get("KUZWEYL_OUTPUT_DIR", ".")


def _parse_pair(text: str) -> ManifoldPair:
    """Parse 'torus:2,1' or 'sphere:3,1[:degree]'."""
    parts = text.split(":")
    if len(parts) < 2:
        raise ValidationError(f"bad pair spec {text!r} (want kind:n,d)")
    kind = parts[0]
    try:
        n, d = (int(v) for v in parts[1].split(","))
    except Exception as exc:
        raise ValidationError(f"bad pair dimensions in {text!r}") from exc
    if kind not in ("torus", "sphere"):
        raise ValidationError(f"unknown pair kind {kind!r}")
    if len(parts) > (2 if kind == "torus" else 3):
        raise ValidationError(f"extra fields in pair spec {text!r}")
    if kind == "torus":
        return torus_pair(n, d)
    norm = parts[2] if len(parts) > 2 else "laplace"
    return sphere_pair(n, d, normalization=norm)


def _number(cast, text: str, spec: str):
    try:
        return cast(text)
    except ValueError as exc:
        raise ValidationError(f"bad number {text!r} in {spec!r}") from exc


def _parse_psi(text: str):
    """Parse 'fejer:a=1', 'bumpsquare:a=0.5,scale=2', 'sharp:eps=0.5'."""
    kind, _, rest = text.partition(":")
    keys = ("eps", "a") if kind == "sharp" else ("a", "scale")
    params = {}
    for item in filter(None, rest.split(",")):
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValidationError(f"unknown parameter {key!r} in {text!r} "
                                  f"(want {' or '.join(keys)})")
        params[key] = _number(float, val, text)
    if kind == "sharp":
        return make_test_function("sharp", params.get("eps", params.get("a", 0.5)))
    return make_test_function(kind, params.get("a", 1.0),
                              scale=params.get("scale", 1.0))


def _parse_grid(text: str) -> np.ndarray:
    """Parse 'lo:hi:count' (geometric) or 'lo:hi:count:lin'."""
    parts = text.split(":")
    if len(parts) < 3 or parts[3:] not in ([], ["lin"]):
        raise ValidationError(
            f"bad grid spec {text!r} (want lo:hi:count or lo:hi:count:lin)")
    lo, hi = _number(float, parts[0], text), _number(float, parts[1], text)
    count = _number(int, parts[2], text)
    if not (0 < lo < hi < math.inf and count >= 2):
        raise ValidationError(f"bad grid spec {text!r}")
    if parts[3:]:
        return np.linspace(lo, hi, count)
    return np.geomspace(lo, hi, count)


def _parse_window(text: str) -> tuple:
    """Parse a fit window 'lo:hi'."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValidationError(f"bad window spec {text!r} (want lo:hi)")
    return tuple(_number(float, v, text) for v in parts)


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    pair = _parse_pair(args.pair)
    slc = enumerate_spectrum(pair, args.lmax, budget=args.budget)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(slc.to_json())
    print(f"{pair.label}: {slc.m_count} ambient modes, {slc.h_count} "
          f"submanifold modes up to {args.lmax}")
    return 0


def _cmd_coeffs(args) -> int:
    pair = _parse_pair(args.pair)
    table = load_or_build(pair, args.lmax, _cache_dir(args.cache_dir),
                          budget=args.budget)
    print(f"{pair.label}: {table.entry_count} coefficient rows "
          f"(lambda_max={table.lambda_max})")
    if args.out:
        rows = zip(table.lam.tolist(), table.mu.tolist(),
                   table.weight.tolist())
        _write_csv(args.out, ["lambda", "mu", "weight"], rows)
    return 0


def _window_sum(pair, c, psi, grid, jitter, cache_dir, budget):
    """The table a window's sum reads, the sum on the grid, and the seconds
    the table took to build or load.  A sharp window reads only its band,
    of eps (1 + jitter): the top sample when jitter > 0 averages the sum."""
    sharp = psi.kind == "sharp"
    t0 = time.time()
    table = load_or_build(pair, float(grid[-1]), cache_dir, budget=budget,
                          band=(c, psi.a * (1 + jitter)) if sharp else None)
    build_s = time.time() - t0
    if sharp and jitter > 0:
        st = averaged_sharp_sum(table, c, psi.a, grid, jitter=jitter)
    else:
        st = kuznecov_sum(table, c, psi, grid)
    return table, st, build_s


def _cmd_sums(args) -> int:
    _, st, _ = _window_sum(_parse_pair(args.pair), args.c,
                           _parse_psi(args.psi), _parse_grid(args.lgrid), 0.0,
                           _cache_dir(args.cache_dir), args.budget)
    out = args.out or os.path.join(_out_dir(), "sums.csv")
    st.write(out)
    print(f"wrote {out} ({st.variant}, c={args.c})")
    return 0


def _cmd_fit(args) -> int:
    window = _parse_window(args.window)
    try:
        lams, vals = np.loadtxt(args.infile, delimiter=",", skiprows=1,
                                usecols=(0, 1), ndmin=2).T
    except OSError as exc:
        raise ValidationError(f"cannot read {args.infile!r}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(
            f"malformed sums CSV {args.infile!r}: {exc}") from exc
    st = SumTable(pair={}, c=0.0, test={}, rho=None, lambda_grid=lams,
                  values=vals, variant="loaded")
    report = fit_growth(st, window)
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _cmd_coefficient(args) -> int:
    psi = _parse_psi(args.psi)
    if args.formula == "sphere":
        pred = sphere_leading_coefficient(args.n, args.d, psi)
    elif args.formula == "flat":
        pred = flat_leading_coefficient(args.n, args.d, psi)
    else:  # argparse's choices leave "subcritical"
        pred = subcritical_coefficient(args.n, args.d, args.c, psi)
    print(json.dumps(pred.to_json(), indent=2))
    return 0


def _cmd_model_integral(args) -> int:
    psi = _parse_psi(args.psi) if args.psi else None
    lams = _parse_grid(args.lgrid)
    rows = []
    for lam in lams:
        res = model_integral(args.n, args.d, float(lam), window=psi)
        rows.append((float(lam), res.value.real, res.value.imag,
                     abs(res.value), res.achieved, res.panels))
    out = args.out or os.path.join(_out_dir(), "model-integral.csv")
    _write_csv(out, ["lambda", "re", "im", "abs", "achieved", "panels"], rows)
    print(f"wrote {out}")
    return 0


def _cmd_double_bessel(args) -> int:
    grid = _parse_grid(args.grid)
    rows = []
    for z in grid:
        res = double_bessel(args.n, args.d, float(z), 1.0)
        rows.append((float(z), res.closed_form.real, res.quadrature.real,
                     abs(res.closed_form - res.quadrature)))
    out = args.out or os.path.join(_out_dir(), "double-bessel.csv")
    _write_csv(out, ["lambda_r", "closed", "quadrature", "abs_diff"], rows)
    print(f"wrote {out}")
    return 0


def _cmd_hadamard(args) -> int:
    metric = RadialMetric.parse(args.metric)
    if args.points < 1:
        raise ValidationError(f"need --points >= 1, got {args.points}")
    hi = math.pi - 0.1 if metric.kind == "sphere" else 3.0
    r_grid = np.linspace(0.05, hi, args.points)
    coeffs = hadamard_transport(metric, args.jmax, r_grid)
    rows = []
    for i, r in enumerate(r_grid):
        rows.append((float(r),) + tuple(float(W[i]) for W in coeffs.W))
    out = args.out or os.path.join(_out_dir(), "hadamard.csv")
    _write_csv(out, ["r"] + [f"W{j}" for j in range(args.jmax + 1)], rows)
    print(f"wrote {out}; transport residuals: "
          + ", ".join("%.3g" % r for r in coeffs.transport_residuals))
    return 0


def _cmd_trace(args) -> int:
    pair = _parse_pair(args.pair)
    psi = _parse_psi(args.psi)
    grid = _parse_grid(args.tgrid)
    table = load_or_build(pair, args.lmax, _cache_dir(args.cache_dir),
                          budget=args.budget)
    tr = dual_trace(table, psi, grid)
    out = args.out or os.path.join(_out_dir(), "trace.csv")
    tr.to_csv(out)
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------
# experiment runner
# --------------------------------------------------------------------------

def _load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise ValidationError(f"config file {path!r} not found")
    return cfg


def _cfg_get(cfg, section, key, cast=str, default=None, required=False):
    try:
        raw = cfg.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        if required:
            raise ValidationError(f"config missing [{section}] {key}")
        return default
    try:
        return cast(raw)
    except Exception as exc:
        raise ValidationError(
            f"config [{section}] {key} = {raw!r}: {exc}") from exc


def run_experiment(config_path: str, cache_dir=None, out_dir=None) -> dict:
    """Execute spectrum -> coefficients -> sums -> fit -> prediction for one
    config file and write the artifacts; returns the comparison report."""
    cfg = _load_config(config_path)
    name = _cfg_get(cfg, "experiment", "name", default="experiment")
    pair = _parse_pair(_cfg_get(cfg, "pair", "spec", required=True))
    c = _cfg_get(cfg, "sums", "c", float, required=True)
    if not 0.0 <= c <= 1.0:
        raise ValidationError(f"c = {c} outside the supported range [0, 1]")
    grid = _parse_grid(_cfg_get(cfg, "sums", "lambda_grid", required=True))
    window = _cfg_get(cfg, "fit", "window", default=None)
    window = _parse_window(window) if window else (grid[0], grid[-1])
    budget = _cfg_get(cfg, "spectrum", "budget", int,
                      default=MODE_BUDGET_DEFAULT)
    # the variant only says how the window is spelled
    if _cfg_get(cfg, "sums", "variant", default="smooth") == "sharp":
        psi = make_test_function(
            "sharp", _cfg_get(cfg, "sums", "epsilon", float, required=True))
    else:
        psi = _parse_psi(_cfg_get(cfg, "sums", "psi", required=True))
    jitter = _cfg_get(cfg, "sums", "jitter", float, default=0.0)
    if not 0.0 <= jitter <= 1.0:  # eps (1 - jitter) is a sample: >= 0
        raise ValidationError(f"jitter = {jitter} outside [0, 1]")
    if jitter > 0 and psi.kind != "sharp":
        raise ValidationError("jitter averages only a sharp window")
    out_base = _out_dir(out_dir)
    os.makedirs(out_base, exist_ok=True)
    t0 = time.time()
    table, st, build_time = _window_sum(pair, c, psi, grid, jitter,
                                        _cache_dir(cache_dir), budget)
    sums_csv = os.path.join(out_base, f"{name}-sums.csv")
    st.write(sums_csv)

    report = fit_growth(st, window)
    predicted = predicted_exponent(c, pair.n, pair.d)
    tol = _cfg_get(cfg, "fit", "exponent_tolerance", float, default=0.15)
    verdict = "PASS" if abs(report.exponent - predicted) <= tol else "FAIL"

    out = {
        "name": name,
        "pair": pair.to_dict(),
        "c": c,
        "test": psi.descriptor(),
        "variant": st.variant,
        "fitted_exponent": report.exponent,
        "predicted_exponent": predicted,
        "exponent_tolerance": tol,
        "fit": report.to_json(),
        "verdict": verdict,
        "criterion": "growth-exponent",
        "artifacts": {"sums_csv": sums_csv},
        "table": {"rows": table.entry_count,
                  "band": list(table.band) if table.band else None},
        "runtime": {"table_build_s": round(build_time, 3),
                    "total_s": round(time.time() - t0, 3)},
    }
    report_path = os.path.join(out_base, f"{name}-report.json")
    with open(report_path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    summary = (f"{name}: {pair.label} c={c} {st.variant}: exponent "
               f"{report.exponent:.4f} vs {predicted:.4f} -> {verdict}")
    with open(os.path.join(out_base, f"{name}-summary.txt"), "w") as fh:
        fh.write(summary + "\n")
    print(summary)
    if verdict == "FAIL":
        raise ToleranceError(
            f"fitted exponent {report.exponent:.4f} misses "
            f"{predicted:.4f} by more than {tol}")
    return out


def _cmd_run(args) -> int:
    run_experiment(args.config, cache_dir=args.cache_dir, out_dir=args.out_dir)
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValidationError (exit 1): argparse's own
    exit 2 is the code of a numerical-tolerance failure here."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kuzweyl",
        description="Kuznecov-Weyl spectral sums on model geometries")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--budget", type=int, default=MODE_BUDGET_DEFAULT)

    p = sub.add_parser("spectrum", help="enumerate a spectrum slice")
    p.add_argument("--pair", required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--out")
    p.add_argument("--budget", type=int, default=MODE_BUDGET_DEFAULT)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("coeffs", help="build or load a coefficient table")
    p.add_argument("--pair", required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("sums", help="evaluate a Kuznecov-Weyl sum on a grid")
    p.add_argument("--pair", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--psi", required=True,
                   help="fejer:a=1 | bumpsquare:a=1 | sharp:eps=0.5")
    p.add_argument("--lgrid", required=True, help="lo:hi:count[:lin]")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=_cmd_sums)

    p = sub.add_parser("fit", help="fit a power law to a sums CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", required=True, help="lo:hi")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("coefficient", help="leading-coefficient prediction")
    p.add_argument("--formula", required=True,
                   choices=["sphere", "flat", "subcritical"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--psi", required=True)
    p.set_defaults(func=_cmd_coefficient)

    p = sub.add_parser("model-integral", help="model blow-down integral sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lgrid", required=True)
    p.add_argument("--psi", default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_model_integral)

    p = sub.add_parser("double-bessel", help="double-Bessel two-path table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--grid", required=True, help="lambda*r grid lo:hi:count")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_double_bessel)

    p = sub.add_parser("hadamard", help="Hadamard transport coefficients")
    p.add_argument("--metric", required=True, help="sphere:3 | flat:2")
    p.add_argument("--jmax", type=int, default=1)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hadamard)

    p = sub.add_parser("trace", help="dual trace S(t, psi) on a t grid")
    p.add_argument("--pair", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--tgrid", default="0.01:8:257:lin")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
