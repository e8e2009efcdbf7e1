import json
import math
import os

import numpy as np
import pytest

from kuzweyl.cli import main, run_experiment
from kuzweyl.errors import ValidationError
from kuzweyl.kuznecov import SumTable, dual_trace, make_test_function
from kuzweyl.model_spectra import enumerate_spectrum, torus_pair
from kuzweyl.restriction_coeffs import build_table, torus_coefficients

from oracles import emit_plot_data

CONFIG = """
[experiment]
name = smoke

[pair]
spec = torus:2,1

[sums]
c = 1.0
variant = sharp
epsilon = 0.5
lambda_grid = 20:90:12

[fit]
window = 20:90
"""


def _write_config(tmp_path, text=CONFIG, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_spectrum_command(tmp_path, capsys):
    out = str(tmp_path / "slice.json")
    rc = main(["spectrum", "--pair", "torus:2,1", "--lmax", "5", "--out", out])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["pair"]["kind"] == "torus"


def test_coeffs_command(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    cache = str(tmp_path / "cache")
    rc = main(["coeffs", "--pair", "torus:2,1", "--lmax", "10",
               "--cache-dir", cache, "--out", out])
    assert rc == 0
    table = build_table(torus_pair(2, 1), 10.0)
    assert f"{table.entry_count} coefficient rows" in capsys.readouterr().out
    lines = open(out).read().splitlines()
    assert lines[0] == "lambda,mu,weight"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    for col, arr in enumerate((table.lam, table.mu, table.weight)):
        assert np.array_equal(rows[:, col], arr)  # %.17g round-trips
    # every ambient mode carries mass 1/(2 pi)
    modes = enumerate_spectrum(torus_pair(2, 1), 10.0).m_count
    assert rows[:, 2].sum() == pytest.approx(modes / (2 * math.pi), rel=1e-13)
    # the budget holds against a cold and a warm cache alike
    for state in (str(tmp_path / "cold"), cache):
        assert main(["coeffs", "--pair", "torus:2,1", "--lmax", "10",
                     "--cache-dir", state, "--budget", "20"]) == 3


def test_sums_and_fit_commands(tmp_path, capsys):
    os.environ["KUZWEYL_CACHE_DIR"] = str(tmp_path / "cache")
    try:
        out = str(tmp_path / "sums.csv")
        rc = main(["sums", "--pair", "torus:2,1", "--c", "1.0", "--psi",
                   "sharp:eps=0.5", "--lgrid", "10:60:10", "--out", out])
        assert rc == 0
        capsys.readouterr()
        rc = main(["fit", "--in", out, "--window", "10:60"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["exponent"] - 1.5) < 0.2
    finally:
        del os.environ["KUZWEYL_CACHE_DIR"]


def test_commands_share_one_cache_file(tmp_path, capsys):
    # tables are complete in mu: smooth windows, c and commands that need
    # the same lambda_max read the same rows; a sharp sum reads only its
    # band's rows, cached in a file of their own
    cache = str(tmp_path / "cache")
    for psi, c in (("fejer:a=1", "1.0"), ("bumpsquare:a=1", "0.5")):
        assert main(["sums", "--pair", "torus:2,1", "--c", c, "--psi", psi,
                     "--lgrid", "10:60:10", "--cache-dir", cache,
                     "--out", str(tmp_path / "sums.csv")]) == 0
    assert main(["trace", "--pair", "torus:2,1", "--psi", "fejer:a=1",
                 "--lmax", "60", "--cache-dir", cache,
                 "--out", str(tmp_path / "trace.csv")]) == 0
    assert len(os.listdir(cache)) == 1
    full = os.path.getsize(os.path.join(cache, os.listdir(cache)[0]))
    assert main(["sums", "--pair", "torus:2,1", "--c", "1.0", "--psi",
                 "sharp:eps=0.5", "--lgrid", "10:60:10", "--cache-dir", cache,
                 "--out", str(tmp_path / "sums.csv")]) == 0
    sizes = sorted(os.path.getsize(os.path.join(cache, f))
                   for f in os.listdir(cache))
    assert len(sizes) == 2 and sizes[0] < sizes[1] == full


def test_coefficient_command(capsys):
    rc = main(["coefficient", "--formula", "subcritical", "--n", "3",
               "--d", "1", "--c", "0.5", "--psi", "fejer:a=1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value_re"] == pytest.approx(2 * math.pi)


def test_coefficient_command_rejects_sharp_edge_window(capsys):
    rc = main(["coefficient", "--formula", "flat", "--n", "2", "--d", "1",
               "--psi", "sharp:eps=0.5"])
    assert rc == 1
    assert "compact support" in capsys.readouterr().err


def test_double_bessel_command(tmp_path):
    out = str(tmp_path / "db.csv")
    rc = main(["double-bessel", "--n", "3", "--d", "2", "--grid",
               "0.5:20:6", "--out", out])
    assert rc == 0
    rows = open(out).read().strip().splitlines()
    assert rows[0] == "lambda_r,closed,quadrature,abs_diff"
    assert all(float(r.split(",")[3]) < 1e-8 for r in rows[1:])


def test_model_integral_command(tmp_path):
    out = str(tmp_path / "mi.csv")
    rc = main(["model-integral", "--n", "3", "--d", "1", "--lgrid",
               "20:40:3", "--psi", "fejer:a=0.6", "--out", out])
    assert rc == 0
    rows = open(out).read().strip().splitlines()
    assert rows[0] == "lambda,re,im,abs,achieved,panels"
    assert len(rows) == 4
    for row in rows[1:]:
        lam, re, im, ab, achieved, panels = row.split(",")
        assert float(ab) == pytest.approx(math.hypot(float(re), float(im)))
        assert 0.0 <= float(achieved) <= 1e-6
        assert int(panels) >= 1


@pytest.mark.parametrize("extra", [["--d", "3"],
                                   ["--d", "1", "--psi", "sharp:eps=0.5"]])
def test_model_integral_command_rejects(extra, tmp_path, capsys):
    # d > 2 is beyond the dimension cap, and the indicator's psi_hat has
    # no compact support
    out = tmp_path / "mi.csv"
    rc = main(["model-integral", "--n", "4", "--lgrid", "20:40:3",
               "--out", str(out)] + extra)
    assert rc == 1
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


def test_hadamard_command(tmp_path):
    out = str(tmp_path / "had.csv")
    rc = main(["hadamard", "--metric", "sphere:3", "--jmax", "1",
               "--points", "16", "--out", out])
    assert rc == 0
    assert open(out).read().startswith("r,W0,W1")


def test_hadamard_command_beyond_supported_radius(tmp_path, monkeypatch,
                                                  capsys):
    # the command's sphere grid ends at pi - 0.1; with the supported radius
    # set below that, the radius guard's ValidationError exits with code 1
    monkeypatch.setattr("kuzweyl.oscillatory_models.SPHERE_R_MAX", 2.0)
    out = tmp_path / "had.csv"
    rc = main(["hadamard", "--metric", "sphere:3", "--points", "8",
               "--out", str(out)])
    assert rc == 1
    assert "conjugate point" in capsys.readouterr().err
    assert not out.exists()


def test_run_experiment_passes(tmp_path):
    cfg = _write_config(tmp_path)
    report = run_experiment(cfg, cache_dir=str(tmp_path / "cache"),
                            out_dir=str(tmp_path / "out"))
    assert report["verdict"] == "PASS"
    assert abs(report["fitted_exponent"] - 1.5) < 0.15
    assert os.path.exists(tmp_path / "out" / "smoke-sums.csv")
    assert os.path.exists(tmp_path / "out" / "smoke-report.json")


def test_run_report_records_the_table(tmp_path):
    # a sharp config reads a band table, fewer rows than the full table a
    # smooth config reads on the same pair and lambda_max
    smooth_cfg = CONFIG.replace("variant = sharp\nepsilon = 0.5",
                                "variant = smooth\npsi = fejer:a=1")
    reports = [run_experiment(_write_config(tmp_path, text, f"{i}.ini"),
                              cache_dir=str(tmp_path / "cache"),
                              out_dir=str(tmp_path / "out"))
               for i, text in enumerate((CONFIG, smooth_cfg))]
    sharp, smooth = (r["table"] for r in reports)
    assert smooth == {"rows": build_table(torus_pair(2, 1), 90.0).entry_count,
                      "band": None}
    assert sharp["band"] == [1.0, 0.5]
    assert 0 < sharp["rows"] < smooth["rows"]
    report = json.loads((tmp_path / "out" / "smoke-report.json").read_text())
    assert report["table"] == smooth


def test_run_window_spellings_take_one_path(tmp_path):
    # `variant = sharp` + `epsilon` and `psi = sharp:...` are one window:
    # both read the band of eps (1 + jitter) and average the sum
    base = CONFIG.replace("20:90:12", "40:320:24").replace("20:90", "40:320")
    spelled = [base.replace("epsilon = 0.5", "epsilon = 0.5\njitter = 0.1"),
               base.replace("variant = sharp\nepsilon = 0.5",
                            "variant = smooth\npsi = sharp:eps=0.5\n"
                            "jitter = 0.1")]
    outs, tables = [], []
    for i, text in enumerate(spelled):
        out = tmp_path / f"out{i}"
        report = run_experiment(_write_config(tmp_path, text, f"{i}.ini"),
                                cache_dir=str(tmp_path / "cache"),
                                out_dir=str(out))
        outs.append([(out / f"smoke-sums.csv{ext}").read_bytes()
                     for ext in ("", ".json")])
        tables.append(report["table"])
    assert outs[0] == outs[1]
    assert b'"kind": "sharp-averaged"' in outs[0][1]
    assert tables == [{"rows": 4160, "band": [1.0, 0.55]}] * 2


def test_run_rejects_supercritical_c(tmp_path):
    cfg = _write_config(tmp_path, CONFIG.replace("c = 1.0", "c = 1.2"))
    rc = main(["run", "--config", cfg, "--cache-dir", str(tmp_path / "c"),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1


def test_run_exit_code_tolerance_failure(tmp_path):
    bad = CONFIG + "exponent_tolerance = 0.00001\n"
    cfg = _write_config(tmp_path, bad)
    rc = main(["run", "--config", cfg, "--cache-dir", str(tmp_path / "c"),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2


def test_run_exit_code_budget(tmp_path):
    cfg = _write_config(tmp_path, CONFIG.replace(
        "[sums]", "[spectrum]\nbudget = 50\n\n[sums]"))
    rc = main(["run", "--config", cfg, "--cache-dir", str(tmp_path / "c"),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 3


def test_run_missing_config_exit_code():
    assert main(["run", "--config", "/nonexistent/exp.ini"]) == 1


def test_warm_cache_rerun_identical(tmp_path):
    cfg = _write_config(tmp_path)
    cache = str(tmp_path / "cache")
    out1 = str(tmp_path / "out1")
    out2 = str(tmp_path / "out2")
    r1 = run_experiment(cfg, cache_dir=cache, out_dir=out1)
    r2 = run_experiment(cfg, cache_dir=cache, out_dir=out2)
    csv1 = open(os.path.join(out1, "smoke-sums.csv")).read()
    csv2 = open(os.path.join(out2, "smoke-sums.csv")).read()
    assert csv1 == csv2  # byte-identical artifacts with a warm cache
    assert r1["fitted_exponent"] == r2["fitted_exponent"]


def test_emit_plot_data_kinds(tmp_path):
    grid = np.geomspace(5, 50, 9)
    st = SumTable(pair={}, c=1.0, test={}, rho=None, lambda_grid=grid,
                  values=grid ** 1.5, variant="x")
    p1 = str(tmp_path / "loglog.csv")
    emit_plot_data(st, "loglog", p1)
    first = open(p1).read().splitlines()
    assert first[0] == "log10_lambda,log10_value"
    assert float(first[1].split(",")[0]) == pytest.approx(math.log10(5))

    p2 = str(tmp_path / "jumps.csv")
    emit_plot_data((np.array([5.0, 10.0]), np.array([1.0, 2.0]), 2, 1),
                   "jumps", p2)
    assert open(p2).read().splitlines()[0] == "lambda_j,jump,jump_normalized"

    table = torus_coefficients(enumerate_spectrum(torus_pair(2, 1), 8.0))
    tr = dual_trace(table, make_test_function("fejer", 1.0),
                    np.linspace(0, 2, 5))
    p3 = str(tmp_path / "trace.csv")
    emit_plot_data(tr, "trace", p3)
    assert open(p3).read().splitlines()[0] == "t,re,im,abs"

    p4 = str(tmp_path / "ratio.csv")
    emit_plot_data({"fejer/bump": 1.25}, "coefficient-ratio", p4)
    assert open(p4).read().splitlines()[1].startswith("fejer/bump,")

    with pytest.raises(ValidationError):
        emit_plot_data(st, "heatmap", str(tmp_path / "x.csv"))


def test_pair_spec_validation():
    assert main(["spectrum", "--pair", "moebius:2,1", "--lmax", "3"]) == 1
    assert main(["spectrum", "--pair", "torus", "--lmax", "3"]) == 1


@pytest.mark.parametrize("argv", [
    ["sums", "--psi", "fejer:a=x", "--lgrid", "10:60:10"],
    ["sums", "--psi", "fejer:a=1", "--lgrid", "1:10:x"],
    ["sums", "--psi", "fejer:b=3", "--lgrid", "10:60:10"],
    ["trace", "--psi", "fejer:a=1", "--lmax", "10", "--tgrid", "5"],
    ["hadamard", "--metric", "sphere:abc"],
    ["hadamard", "--metric", "sphere:3:4"],
    ["hadamard", "--metric", "sphere:1.5"],
    ["hadamard", "--metric", "sphere:3", "--points", "-3"],
    ["fit", "--in", "sums.csv", "--window", "abc"],
    ["fit", "--in", "sums.csv", "--window", "1:2:3"],
    ["fit", "--in", "missing.csv", "--window", "20:90"],
    ["fit", "--in", "short.csv", "--window", "20:90"],
    ["run", "--config", "bad-window.ini"],
    ["coeffs", "--lmax", "inf"],
    ["coeffs", "--lmax", "nan"],
    ["spectrum", "--pair", "torus:2,1", "--lmax", "nan"],
    ["sums", "--psi", "fejer:a=1", "--lgrid", "1:inf:3"],
    ["sums", "--psi", "fejer:a=nan", "--lgrid", "10:60:10"],
    ["sums", "--psi", "fejer:a=inf", "--lgrid", "10:60:10"],
    ["sums", "--psi", "fejer:a=1", "--lgrid", "1:2:3:linear"],
    ["sums", "--psi", "fejer:a=1", "--lgrid", "1:2:3:log"],
    ["sums", "--psi", "fejer:a=1", "--lgrid", "1:2:3:lin:x"],
    ["spectrum", "--pair", "torus:2,1:degree", "--lmax", "3"],
    ["run", "--config", "negative-jitter.ini"],
    ["run", "--config", "nan-jitter.ini"],
    ["run", "--config", "large-jitter.ini"],
    ["run", "--config", "smooth-jitter.ini"],
], ids=["psi-number", "grid-count", "psi-key", "tgrid", "metric-dim",
        "metric-colons", "metric-float", "negative-points", "fit-window",
        "fit-window-colons", "fit-missing-csv", "fit-short-row", "run-window",
        "lmax-inf", "lmax-nan", "spectrum-lmax-nan", "grid-inf", "psi-nan",
        "psi-inf", "grid-linear", "grid-log", "grid-lin-extra",
        "torus-normalization", "run-negative-jitter", "run-nan-jitter",
        "run-large-jitter", "run-smooth-jitter"])
def test_malformed_input_is_a_validation_error(argv, tmp_path, monkeypatch,
                                               capsys):
    # each once ended in a traceback (bad numbers, an unreadable CSV, a
    # non-finite lambda_max) or was silently replaced or ignored (an unknown
    # key by a = 1, a colon-free t grid by linspace(0, 8, 257), a NaN window
    # by a CSV of NaN, an unknown grid or pair field, a negative or NaN
    # jitter by the plain sharp sum, a jitter on a smooth window; a jitter
    # above 1 cached a band table before its negative eps was refused); the
    # fit inputs and configs are sound apart from the one flaw
    monkeypatch.chdir(tmp_path)
    grid = np.geomspace(20, 90, 12)
    SumTable(pair={}, c=1.0, test={}, rho=None, lambda_grid=grid,
             values=grid ** 1.5, variant="x").to_csv("sums.csv")
    (tmp_path / "short.csv").write_text("lambda,value\n20.0\n")
    _write_config(tmp_path, CONFIG.replace("window = 20:90", "window = abc"),
                  "bad-window.ini")
    sharp = "variant = sharp\nepsilon = 0.5"
    for name, window, jitter in (
            ("negative", sharp, "-0.1"), ("nan", sharp, "nan"),
            ("large", sharp, "1.5"),
            ("smooth", "variant = smooth\npsi = fejer:a=1", "0.1")):
        _write_config(tmp_path, CONFIG.replace(
            sharp, f"{window}\njitter = {jitter}"), f"{name}-jitter.ini")
    table = ["--pair", "torus:2,1", "--cache-dir", "cache"]
    extra = {"sums": [*table, "--c", "1.0"], "trace": table, "coeffs": table,
             "hadamard": [], "run": ["--cache-dir", "cache", "--out-dir", "out"]}
    takes_out = ("sums", "trace", "hadamard", "coeffs", "spectrum")
    out = ["--out", "out.csv"] if argv[0] in takes_out else []
    rc = main([*argv, *extra.get(argv[0], []), *out])
    assert rc == 1
    err = capsys.readouterr().err
    # the command's own check, not an argparse usage error
    assert err.startswith("validation error: ")
    assert not err.startswith("validation error: kuzweyl")
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("argv", [
    [],
    ["spectrum", "--lmax", "5"],
    ["spectrum", "--pair", "torus:2,1", "--lmax", "5", "--cache-dir", "x"],
    ["fit", "--in", "x.csv", "--window", "1:2", "--bogus"],
    ["hadamard", "--metric", "sphere:3", "--jmax", "one"],
    ["nosuch"],
    ["coefficient", "--formula", "bogus", "--n", "2", "--d", "1", "--psi",
     "fejer:a=1"],
], ids=["no-command", "missing-flag", "spectrum-cache-dir", "unknown-flag",
        "bad-int", "unknown-command", "unknown-formula"])
def test_usage_error_is_a_validation_error(argv, capsys):
    # argparse would exit 2, the code of a numerical-tolerance failure
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("validation error: kuzweyl")


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["spectrum", "--help"]],
                         ids=["help", "version", "spectrum-help"])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "--cache-dir" not in capsys.readouterr().out


def test_sharp_sums_sidecar_and_report(tmp_path, capsys):
    # the variant and descriptor come from the sharp window itself; these
    # are the bytes `sums` and `run` wrote when sharp_sum relabelled them
    out = tmp_path / "sums.csv"
    assert main(["sums", "--pair", "torus:2,1", "--c", "1.0", "--psi",
                 "sharp:eps=0.5", "--lgrid", "10:60:10", "--cache-dir",
                 str(tmp_path / "cache"), "--out", str(out)]) == 0
    assert "(sharp-sharp, c=1.0)" in capsys.readouterr().out
    sidecar = (
        '{\n  "c": 1.0,\n  "metadata": {\n    "tail_fraction": 0.0\n  },\n'
        '  "pair": {\n    "d": 1,\n    "kind": "torus",\n    "n": 2,\n'
        '    "torus_periods": [\n      6.283185307179586,\n'
        '      6.283185307179586\n    ]\n  },\n  "rho": null,\n'
        '  "test": {\n    "eps": 0.5,\n    "kind": "sharp"\n  },\n'
        '  "variant": "sharp-sharp"\n}')
    assert (tmp_path / "sums.csv.json").read_text() == sidecar
    report = run_experiment(_write_config(tmp_path),
                            cache_dir=str(tmp_path / "cache"),
                            out_dir=str(tmp_path / "out"))
    assert (tmp_path / "out" / "smoke-sums.csv.json").read_text() == sidecar
    text = (tmp_path / "out" / "smoke-report.json").read_text()
    assert ('  "test": {\n    "eps": 0.5,\n    "kind": "sharp"\n  },\n'
            '  "variant": "sharp-sharp",\n  "verdict": "PASS"\n}') in text
    assert report["variant"] == "sharp-sharp"


def test_shipped_config_fixtures_parse():
    import configparser
    import glob

    from kuzweyl.cli import _parse_grid, _parse_pair

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(repo, "configs", "*.ini")))
    assert len(paths) >= 6
    for path in paths:
        cfg = configparser.ConfigParser()
        assert cfg.read(path)
        pair = _parse_pair(cfg.get("pair", "spec"))
        grid = _parse_grid(cfg.get("sums", "lambda_grid"))
        c = cfg.getfloat("sums", "c")
        assert 0.0 <= c <= 1.0
        assert len(grid) >= 8
        assert pair.label
