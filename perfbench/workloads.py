"""The four workloads.

Each workload is closed-loop: one caller issues one package call after
another in this process.  A round is a cold pass followed by a warm pass:

  * cold builds everything from the inputs (spectra, tables, windows, and for
    `configs-cold-warm` a fresh, empty coefficient cache directory);
  * warm repeats the calls that consume what the cold pass built, reusing
    those objects (the filled cache directory, the tables, the windows).

Program inputs are fixed.  The seed only picks where the independent checks
look: spot lambda values, Parseval sample rows, Bessel sample points and
eigenvalues whose jumps are recounted.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import tempfile

import numpy as np

import kuzweyl.asymptotics as asy
import kuzweyl.cli as cli
import kuzweyl.kuznecov as kz
import kuzweyl.model_spectra as ms
import kuzweyl.oscillatory_models as om
import kuzweyl.restriction_coeffs as rc
import kuzweyl.special_functions as sf

import oracles as ref

PI = math.pi
BIG_BUDGET = 40_000_000


def _close(got, want, rtol):
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(want), 1e-300)))


def _spots(rng, count, k):
    return np.sort(rng.choice(count, size=k, replace=False))


# --------------------------------------------------------------------------
# configs-cold-warm
# --------------------------------------------------------------------------

# The six files of configs/ with their lambda grids scaled by 0.4, so that a
# round (cold + warm) takes seconds and writes ~0.25 GB of cache instead of
# ~80 s and ~3.6 GB.  Everything else is as in configs/: sharp configs
# (eps set) average 5 sharp sums over eps * (1 -+ 0.1), the others use the
# Fejer window with a = 1.
CONFIGS = (  # name, kind, n, d, mode budget, c, eps, lambda grid
    ("crit1-torus21", "torus", 2, 1, 5_000_000, 1.0, 0.5, (40.0, 320.0, 24)),
    ("crit1-torus31", "torus", 3, 1, BIG_BUDGET, 1.0, 0.5, (20.0, 64.0, 14)),
    ("crit1-torus32", "torus", 3, 2, BIG_BUDGET, 1.0, 0.5, (20.0, 64.0, 14)),
    ("crit2-torus31-bulk", "torus", 3, 1, BIG_BUDGET, 0.5, None, (20.0, 64.0, 14)),
    ("crit2-torus32-bulk", "torus", 3, 2, BIG_BUDGET, 0.5, None, (20.0, 64.0, 14)),
    ("crit3-sphere21", "sphere", 2, 1, 5_000_000, 1.0, 0.6, (8.0, 80.0, 20)),
)
JITTER, SAMPLES = 0.1, 5  # averaged-sharp jitter in the configs; program default samples


class ConfigsColdWarm:
    name = "configs-cold-warm"
    why = ("kuzweyl run on the six configs, cold cache then warm: the only "
           "workload of the cli layer and of cache writes and hits")

    def inputs(self, seed, work):
        rng = np.random.default_rng(seed)
        cfg_dir = os.path.join(work, "configs")
        os.makedirs(cfg_dir, exist_ok=True)
        configs = []
        for name, kind, n, d, budget, c, eps, (lo, hi, count) in CONFIGS:
            window = (f"variant = sharp\nepsilon = {eps}\njitter = {JITTER}\n" if eps
                      else "variant = smooth\npsi = fejer:a=1\n")
            path = os.path.join(cfg_dir, f"{name}.ini")
            with open(path, "w") as fh:
                fh.write(f"[experiment]\nname = {name}\n\n[pair]\nspec = {kind}:{n},{d}\n\n"
                         f"[spectrum]\nbudget = {budget}\n\n[sums]\nc = {c}\n{window}"
                         f"lambda_grid = {lo:g}:{hi:g}:{count}\n\n[fit]\nwindow = {lo:g}:{hi:g}\n")
            # sharp configs: two seeded spot values; bulk: the smallest lambda
            spots = _spots(rng, count, 2) if eps else np.array([0])
            configs.append({"name": name, "path": path, "kind": kind, "n": n, "d": d,
                            "c": c, "eps": eps, "grid": np.geomspace(lo, hi, count),
                            "spots": spots})
        return {"work": work, "configs": configs}

    def reference(self, inp):
        out = {}
        for cfg in inp["configs"]:
            lams = cfg["grid"][cfg["spots"]]
            window = (ref.averaged_indicator(cfg["eps"], JITTER, SAMPLES) if cfg["eps"]
                      else ref.fejer(1.0))
            if cfg["kind"] == "sphere":
                out[cfg["name"]] = ref.sphere21_window_sums(lams, window)
            else:
                out[cfg["name"]] = ref.torus_window_sums(
                    cfg["n"], cfg["d"], cfg["c"], lams, window)
        return out

    def _pass(self, call, inp, cache, out):
        reports = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for cfg in inp["configs"]:
                reports[cfg["name"]] = call(cli.run_experiment, cfg["path"],
                                            cache_dir=cache, out_dir=out)
        return {"cache": cache, "out": out, "reports": reports}

    def cold(self, call, inp):
        root = tempfile.mkdtemp(prefix="round-", dir=inp["work"])
        return self._pass(call, inp, os.path.join(root, "cache"),
                          os.path.join(root, "out-cold"))

    def warm(self, call, inp, cold):
        return self._pass(call, inp, cold["cache"],
                          os.path.join(os.path.dirname(cold["out"]), "out-warm"))

    def check(self, inp, expect, cold, warm):
        failed = []
        for cfg in inp["configs"]:
            name = cfg["name"]
            csvs = []
            for res in (cold, warm):
                report = res["reports"][name]
                if report is None:
                    continue
                with open(os.path.join(res["out"], f"{name}-sums.csv"), "rb") as fh:
                    csvs.append(fh.read())
                rows = np.array([[float(v) for v in line.split(",")]
                                 for line in csvs[-1].decode().splitlines()[1:]])
                lam, val = rows[:, 0], rows[:, 1]
                if not np.array_equal(lam, cfg["grid"]):
                    failed.append(f"{name}: lambda grid differs from the config")
                    continue
                if not _close(val[cfg["spots"]], expect[name], 1e-9):
                    failed.append(f"{name}: values differ from the lattice sums")
                slope = ref.loglog_slope(lam, val)
                target = ref.predicted_exponent(cfg["c"], cfg["n"], cfg["d"])
                if abs(slope - target) > 0.15:
                    failed.append(f"{name}: exponent {slope:.4f} vs {target}")
                if abs(report["fitted_exponent"] - slope) > 1e-8:
                    failed.append(f"{name}: reported exponent differs from the refit")
            if len(csvs) == 2 and csvs[0] != csvs[1]:
                failed.append(f"{name}: warm CSV differs from cold CSV")
        return failed

    def finish(self, inp, cold, warm):
        sizes = {}
        for key, dirs in (("restriction_coeffs.cache_bytes", [cold["cache"]]),
                          ("cli.output_bytes", [cold["out"], warm["out"]])):
            sizes[key] = sum(os.path.getsize(os.path.join(d, f))
                             for d in dirs if os.path.isdir(d)
                             for f in os.listdir(d))
        shutil.rmtree(os.path.dirname(cold["cache"]), ignore_errors=True)
        return sizes


# --------------------------------------------------------------------------
# torus21-windows
# --------------------------------------------------------------------------

class Torus21Windows:
    name = "torus21-windows"
    why = ("torus(2,1) sums over five windows, jumps, fits and coefficients "
           "on one in-memory table: the windowed-sum layer dominates")

    LAM, H_CUT, EPS = 300.0, 311.0, 0.5
    WINDOW = (37.5, 300.0)

    def inputs(self, seed, work):
        rng = np.random.default_rng(seed)
        return {"grid": np.geomspace(*self.WINDOW, 24), "spots": _spots(rng, 24, 3),
                "jump_picks": rng.random(5)}

    def reference(self, inp):
        lams = inp["grid"][inp["spots"]]
        return {
            "sharp": ref.torus_window_sums(2, 1, 1.0, lams, ref.indicator(self.EPS)),
            "avg": ref.torus_window_sums(
                2, 1, 1.0, lams, ref.averaged_indicator(self.EPS, 0.1, 5)),
            "fejer": ref.torus_window_sums(2, 1, 1.0, lams, ref.fejer(1.0)),
            "flat_fejer": ref.flat_fejer_coefficient_21(1.0),
        }

    def cold(self, call, inp):
        pair = call(ms.torus_pair, 2, 1)
        spectrum = call(ms.enumerate_spectrum, pair, self.LAM, h_cutoff=self.H_CUT)
        built = {
            "table": call(rc.torus_coefficients, spectrum),
            "fejer_psi": call(kz.make_test_function, "fejer", 1.0),
            "bump_psi": call(kz.make_test_function, "bumpsquare", 1.0),
            "dom_psi": call(kz.dominating_test_function, self.EPS, a=1.0),
        }
        return self._sums(call, inp, built)

    def warm(self, call, inp, cold):
        return self._sums(call, inp, cold)

    def _sums(self, call, inp, built):
        table, grid = built["table"], inp["grid"]
        r = {k: built[k] for k in ("table", "fejer_psi", "bump_psi", "dom_psi")}
        r["sharp"] = call(kz.sharp_sum, table, 1.0, self.EPS, grid)
        r["avg"] = call(kz.averaged_sharp_sum, table, 1.0, self.EPS, grid,
                        jitter=0.1, samples=5)
        for w in ("fejer", "bump", "dom"):
            r[w] = call(kz.kuznecov_sum, table, 1.0, built[f"{w}_psi"], grid)
        r["jumps"] = call(kz.eigenvalue_jumps, table, self.EPS, *self.WINDOW)
        r["jump_check"] = call(asy.jump_bound_check, *r["jumps"], 2, 1)
        r["fits"] = {w: call(asy.fit_growth, r[w], self.WINDOW)
                     for w in ("avg", "fejer", "bump")}
        r["coef"] = {w: call(asy.flat_leading_coefficient, 2, 1, built[f"{w}_psi"])
                     for w in ("fejer", "bump")}
        return r

    def check(self, inp, expect, cold, warm):
        failed = []
        spots, grid = inp["spots"], inp["grid"]
        for label, r in (("cold", cold), ("warm", warm)):
            for w in ("sharp", "avg", "fejer"):
                if not _close(r[w].values[spots], expect[w], 1e-9):
                    failed.append(f"{label}: {w} sums differ from the lattice sums")
            if not np.all(r["dom"].values >= r["sharp"].values - 1e-12):
                failed.append(f"{label}: sandwich (dominating >= sharp) fails")
            lams, jumps = r["jumps"]
            picks = (inp["jump_picks"] * len(lams)).astype(int)
            want = [ref.torus21_jump(int(round(lams[i] ** 2)), self.EPS) for i in picks]
            if not _close(jumps[picks], want, 1e-9):
                failed.append(f"{label}: jumps differ from the lattice recount")
            if not r["jump_check"]["passed"]:
                failed.append(f"{label}: jump-bound trend check fails")
            for w, fit in r["fits"].items():
                slope = ref.loglog_slope(grid, r[w].values)
                if abs(slope - 1.5) > 0.15 or abs(fit.exponent - slope) > 1e-8:
                    failed.append(f"{label}: {w} exponent {fit.exponent:.4f} vs 1.5")
            if not _close(r["coef"]["fejer"].value, expect["flat_fejer"], 1e-4):
                failed.append(f"{label}: Fejer flat coefficient vs closed form")
            fitted = math.exp(np.mean(np.log(r["fejer"].values / r["bump"].values)))
            predicted = r["coef"]["fejer"].real / r["coef"]["bump"].real
            if abs(fitted / predicted - 1.0) > 0.10:
                failed.append(f"{label}: coefficient ratio {fitted:.4f} vs {predicted:.4f}")
        return failed

    def finish(self, inp, cold, warm):
        return {}


# --------------------------------------------------------------------------
# sphere-eigenspaces
# --------------------------------------------------------------------------

class SphereEigenspaces:
    name = "sphere-eigenspaces"
    why = ("sphere(2,1) and sphere(3,2) enumeration and coefficient tables: "
           "per-mode Python loops dominate, torus code is not run")

    CASES = {"s21": (2, 1, 200.0, 205.0), "s32": (3, 2, 60.0, 65.0)}
    EPS = 0.6

    def inputs(self, seed, work):
        rng = np.random.default_rng(seed)
        grids = {k: np.geomspace(lam / 10.0, lam, 20)
                 for k, (n, d, lam, hc) in self.CASES.items()}
        rows = set()
        while len(rows) < 40:  # Parseval sample rows (N, l) with N <= 40
            N = int(rng.integers(0, 41))
            rows.add((N, int(rng.integers(0, N + 1))))
        return {"grids": grids, "spots": _spots(rng, 20, 3),
                "parseval_rows": sorted(rows),
                "ds_grid": np.linspace(20.0, 150.0, 64),
                "ds_spots": _spots(rng, 64, 3),
                "t_grid": np.linspace(0.0, 8.0, 257)}

    def reference(self, inp):
        lams = inp["grids"]["s21"][inp["spots"]]
        return {
            "sharp": ref.sphere21_window_sums(lams, ref.indicator(self.EPS)),
            "fejer": ref.sphere21_window_sums(lams, ref.fejer(1.0)),
            "parseval": [ref.legendre_equator_sq_mp(N, l) if (N - l) % 2 == 0 else 0.0
                         for N, l in inp["parseval_rows"]],
        }

    def cold(self, call, inp):
        built = {"fejer_psi": call(kz.make_test_function, "fejer", 1.0)}
        for key, (n, d, lam, h_cut) in self.CASES.items():
            pair = call(ms.sphere_pair, n, d)
            spectrum = call(ms.enumerate_spectrum, pair, lam, h_cutoff=h_cut,
                            budget=BIG_BUDGET)
            built[key] = call(rc.sphere_coefficients, spectrum)
        return self._sums(call, inp, built)

    def warm(self, call, inp, cold):
        return self._sums(call, inp, cold)

    def _sums(self, call, inp, built):
        psi = built["fejer_psi"]
        r = {"fejer_psi": psi}
        for key, (n, d, lam, h_cut) in self.CASES.items():
            table, grid = built[key], inp["grids"][key]
            r[key] = table
            r[f"{key}.sharp"] = call(kz.sharp_sum, table, 1.0, self.EPS, grid)
            r[f"{key}.fejer"] = call(kz.kuznecov_sum, table, 1.0, psi, grid)
            r[f"{key}.jumps"] = call(kz.eigenvalue_jumps, table, self.EPS,
                                     grid[0], grid[-1])
            r[f"{key}.fit"] = call(asy.fit_growth, r[f"{key}.sharp"],
                                   (grid[0], grid[-1]))
        r["jump_check"] = call(asy.jump_bound_check, *r["s21.jumps"], 2, 1)
        r["doubly"] = call(kz.doubly_smoothed_sum, built["s21"], psi, psi,
                           inp["ds_grid"])
        r["trace"] = call(kz.dual_trace, built["s21"], psi, inp["t_grid"])
        return r

    def check(self, inp, expect, cold, warm):
        failed = []
        fejer = ref.fejer(1.0)
        spots = inp["spots"]
        for label, r in (("cold", cold), ("warm", warm)):
            table = r["s21"]
            labels = table.slice.m_labels
            rows = np.bincount(table.j_idx, weights=table.values,
                               minlength=len(labels))
            for (N, l), want in zip(inp["parseval_rows"], expect["parseval"]):
                sel = (labels[:, 0] == N) & (labels[:, 1] == l)
                if not sel.any() or np.max(np.abs(rows[sel] - want)) >= 1e-8:
                    failed.append(f"{label}: Parseval row N={N} l={l}")
            for w in ("sharp", "fejer"):
                if not _close(r[f"s21.{w}"].values[spots], expect[w], 1e-9):
                    failed.append(f"{label}: sphere(2,1) {w} sums differ from the "
                                  "closed-form coefficient sums")
            for key, (n, d, lam, h_cut) in self.CASES.items():
                slope = ref.loglog_slope(inp["grids"][key], r[f"{key}.sharp"].values)
                fit = r[f"{key}.fit"].exponent
                if abs(slope - (n + d) / 2.0) > 0.15 or abs(fit - slope) > 1e-8:
                    failed.append(f"{label}: {key} exponent {fit:.4f} vs {(n + d) / 2}")
            if not r["jump_check"]["passed"]:
                failed.append(f"{label}: sphere(2,1) jump-bound trend check fails")
            lam_e = table.slice.m_freqs[table.j_idx]
            w_e = fejer(lam_e - table.slice.h_freqs[table.k_idx]) * table.values
            g = inp["ds_grid"][inp["ds_spots"]]
            want = [float(np.sum(w_e * fejer(x - lam_e))) for x in g]
            if not _close(r["doubly"].values[inp["ds_spots"]], want, 1e-9):
                failed.append(f"{label}: doubly smoothed sums differ from direct sums")
            s = r["trace"].values
            if inp["t_grid"][0] != 0.0 or not _close(s[0], np.sum(w_e), 1e-9):
                failed.append(f"{label}: dual trace S(0) differs from the direct sum")
            if np.any(np.abs(s) > abs(s[0]) * (1 + 1e-12)):
                failed.append(f"{label}: |S(t)| exceeds S(0)")
        return failed

    def finish(self, inp, cold, warm):
        return {}


# --------------------------------------------------------------------------
# oscillatory-toolkit
# --------------------------------------------------------------------------

def _saddle_phase(p):
    p = np.atleast_2d(p)
    return p[..., 0] ** 2 - p[..., 1] ** 2


def _saddle_amplitude(p):
    p = np.atleast_2d(p)
    return np.exp(-np.sum(p * p, axis=-1)) * (1.0 + 0.5 * p[..., 0] ** 2)


class OscillatoryToolkit:
    name = "oscillatory-toolkit"
    why = ("double-Bessel, model integrals, pairings, Hadamard transport and "
           "the wave kernel: builds no spectra or tables")

    BESSEL_PAIRS = ((3, 1), (3, 2), (4, 2), (5, 3))
    SP31_LAMS = (60.0, 100.0, 200.0)
    FOURIER = tuple((b, s) for b in (0.25, 0.5, 1.5) for s in (1.0, 3.0, 10.0))
    WAVE = tuple((n, 1.2 + 1j * im, r) for n in (1, 3) for im in (0.3, 0.5)
                 for r in (0.4, 1.7, 2.8))
    WAVE_TERMS = 400
    SADDLE_LAM = 50.0

    def inputs(self, seed, work):
        rng = np.random.default_rng(seed)
        return {"z": np.geomspace(0.1, 50.0, 40), "z_spots": _spots(rng, 40, 4),
                "ladders": {(3, 1): np.geomspace(20.0, 200.0, 8),
                            (4, 2): np.geomspace(20.0, 40.0, 3)},
                "r": np.linspace(0.05, PI - 0.1, 100)}

    def reference(self, inp):
        z = inp["z"][inp["z_spots"]]
        prof42 = ref.bump(-0.69, 0.69)
        return {
            "bessel": {(n, d): [ref.plane_wave_factor(n, x) * ref.plane_wave_factor(d, x)
                                for x in z] for n, d in self.BESSEL_PAIRS},
            "moment31": ref.gauss_moment(lambda s: ref.bump(0.3, 0.6)(s) / s, 0.3, 0.6),
            "moment42": ref.gauss_moment(
                lambda s: prof42(s) * ref.bump(0.35, 0.65)(s) / s, 0.35, 0.65),
            "gamma": {bs: ref.halfline_gamma(*bs) for bs in self.FOURIER},
            "zonal": [ref.sphere_zonal_series(n, t, r, self.WAVE_TERMS)
                      for n, t, r in self.WAVE],
        }

    def cold(self, call, inp):
        built = {
            "cut31": call(om.ModelCutoff, d=1, width=0.98, plateau=0.75),
            "win31": call(kz.shifted_bump_window, 0.3, 0.6),
            "cut42": call(om.ModelCutoff, d=2, width=0.69, taper="bump",
                          width_tangent=0.25),
            "win42": call(kz.shifted_bump_window, 0.35, 0.65),
            "fejer_psi": call(kz.make_test_function, "fejer", 1.0),
            "sym_win": call(kz.shifted_bump_window, -2.0, 2.0),
            "sphere3": call(om.RadialMetric, "sphere", 3),
            "flat3": call(om.RadialMetric, "flat", 3),
            "saddle": call(om.PhaseProblem, dimension=2, phase=_saddle_phase,
                           amplitude=_saddle_amplitude,
                           critical_points=(om.CriticalPoint(
                               point=np.zeros(2), hessian=np.diag([2.0, -2.0])),)),
        }
        return self._calls(call, inp, built)

    def warm(self, call, inp, cold):
        return self._calls(call, inp, cold["built"])

    def _calls(self, call, inp, b):
        r = {"built": b}
        r["bessel"] = {(n, d): [call(om.double_bessel, n, d, float(z), 1.0)
                                for z in inp["z"]] for n, d in self.BESSEL_PAIRS}
        r["ladder"] = {nd: [call(om.model_integral, *nd, float(lam)) for lam in lams]
                       for nd, lams in inp["ladders"].items()}
        r["sp31"] = [call(om.model_integral, 3, 1, lam, cutoff=b["cut31"],
                          window=b["win31"]) for lam in self.SP31_LAMS]
        r["sp42"] = [call(om.model_integral, 4, 2, float(lam), cutoff=b["cut42"],
                          window=b["win42"], rel_tol=1e-5)
                     for lam in inp["ladders"][(4, 2)]]
        r["fourier"] = {bs: call(sf.fourier_halfline_power, *bs) for bs in self.FOURIER}
        r["flat"] = call(asy.flat_leading_coefficient, 2, 1, b["fejer_psi"])
        r["sphere"] = call(asy.sphere_leading_coefficient, 3, 1, b["sym_win"])
        r["had_s1"] = call(om.hadamard_transport, b["sphere3"], 1, inp["r"])
        r["had_s3"] = call(om.hadamard_transport, b["sphere3"], 3, inp["r"])
        r["had_f2"] = call(om.hadamard_transport, b["flat3"], 2, inp["r"])
        r["wave"] = [(call(om.sphere_wave_kernel, n, t, rv),
                      call(om.sphere_zonal_sum, n, t, rv, self.WAVE_TERMS))
                     for n, t, rv in self.WAVE]
        r["saddle"] = call(om.stationary_phase_leading, b["saddle"], self.SADDLE_LAM)
        return r

    def check(self, inp, expect, cold, warm):
        failed = []
        for label, r in (("cold", cold), ("warm", warm)):
            for nd, results in r["bessel"].items():
                closed = np.array([x.closed_form for x in results])
                quad = np.array([x.quadrature for x in results])
                if np.max(np.abs(closed - quad)) / np.max(np.abs(closed)) >= 1e-8:
                    failed.append(f"{label}: double-Bessel {nd} paths disagree")
                if not _close(closed[inp["z_spots"]], expect["bessel"][nd], 1e-10):
                    failed.append(f"{label}: double-Bessel {nd} vs mpmath")
            for (n, d), res in r["ladder"].items():
                slope = ref.loglog_slope(inp["ladders"][(n, d)],
                                         [abs(x.value) for x in res])
                if abs(slope - (-(d - 1) - (n - d) / 2.0)) > 0.1:
                    failed.append(f"{label}: model-integral ({n},{d}) slope {slope:.3f}")
            errs = [abs(x.value - (2 * PI / lam) * -1j * expect["moment31"])
                    / abs((2 * PI / lam) * expect["moment31"])
                    for x, lam in zip(r["sp31"], self.SP31_LAMS)]
            if not (errs[0] > errs[1] > errs[2] and errs[2] < 0.03):
                failed.append(f"{label}: (3,1) stationary-phase agreement {errs}")
            lam_errs = [lam * abs(x.value - (2 * PI / lam) ** 2 * -1j * expect["moment42"])
                        / abs((2 * PI / lam) ** 2 * expect["moment42"])
                        for x, lam in zip(r["sp42"], inp["ladders"][(4, 2)])]
            if max(lam_errs) >= 40.0:
                failed.append(f"{label}: (4,2) lambda * error {max(lam_errs):.1f}")
            for bs, val in r["fourier"].items():
                if abs(val - expect["gamma"][bs]) >= 1e-6:
                    failed.append(f"{label}: Gamma identity at {bs}")
            if not _close(r["flat"].value, ref.flat_fejer_coefficient_21(1.0), 1e-4):
                failed.append(f"{label}: flat Fejer coefficient vs closed form")
            # (sin s + i0)^(-1) = PV 1/sin s - i pi delta(s); even window, peak 1
            if abs(r["sphere"].value - (-1j * PI)) >= 1e-6:
                failed.append(f"{label}: sphere coefficient vs -i pi")
            for key in ("had_s1", "had_s3"):
                h = r[key]
                w0 = (np.sin(inp["r"]) / inp["r"]) ** (-(3 - 1) / 2.0)
                if h.transport_residuals[0] >= 1e-10 or not _close(h.W[0], w0, 1e-9):
                    failed.append(f"{label}: {key} W0 vs Theta^(-1/2)")
            f = r["had_f2"]
            if not (np.all(f.W[0] == 1.0) and all(np.all(w == 0.0) for w in f.W[1:])):
                failed.append(f"{label}: flat transport not exact")
            for (kernel, zonal), own in zip(r["wave"], expect["zonal"]):
                if abs(kernel - zonal) >= 1e-6 or abs(kernel - own) >= 1e-6:
                    failed.append(f"{label}: wave kernel vs zonal sums")
            if r["saddle"] is not None:
                want = (2 * PI / self.SADDLE_LAM) * 0.5 * _saddle_amplitude(np.zeros(2))[0]
                if abs(r["saddle"] - want) > 1e-12 * abs(want):
                    failed.append(f"{label}: saddle leading term")
        return failed

    def finish(self, inp, cold, warm):
        return {}


WORKLOADS = {w.name: w for w in (ConfigsColdWarm(), Torus21Windows(),
                                 SphereEigenspaces(), OscillatoryToolkit())}
