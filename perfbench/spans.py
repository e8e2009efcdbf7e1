"""Layer tracing from outside the package.

While a round is traced, the public entry points of each kuzweyl module are
replaced, in every kuzweyl namespace that holds them, by wrappers that record
one span per call: name, start, end and parent.  Replacing the name the caller
looks up (for example `kuzweyl.cli.load_or_build`, not only
`kuzweyl.restriction_coeffs.load_or_build`) is what makes nested calls inside
the package visible.  Each span keeps its self time (duration minus the time
its direct children cover); in memory rounds the spans of the layers with a
peak metric keep their tracemalloc peak above the traced memory at their
start, tracked per span with `tracemalloc.reset_peak`.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

MB = 1024.0 * 1024.0

# per-layer metrics in output order: name -> unit
PER_LAYER = {
    "model_spectra.enumerate_s": "s",
    "model_spectra.peak_mb": "MB",
    "model_spectra.modes": "count",
    "restriction_coeffs.build_s": "s",
    "restriction_coeffs.peak_mb": "MB",
    "restriction_coeffs.entries": "count",
    "restriction_coeffs.cache_write_s": "s",
    "restriction_coeffs.cache_bytes": "bytes",
    "restriction_coeffs.cache_read_s": "s",
    "restriction_coeffs.cache_hits": "count",
    "restriction_coeffs.cache_misses": "count",
    "kuznecov.sharp_s": "s",
    "kuznecov.smooth_s": "s",
    "kuznecov.window_s": "s",
    "kuznecov.entry_evals": "count",
    "kuznecov.jumps_s": "s",
    "kuznecov.doubly_smoothed_s": "s",
    "kuznecov.dual_trace_s": "s",
    "asymptotics.fit_s": "s",
    "asymptotics.coefficient_s": "s",
    "asymptotics.jump_check_s": "s",
    "special_functions.pairing_s": "s",
    "oscillatory_models.model_integral_s": "s",
    "oscillatory_models.model_integral_panels": "count",
    "oscillatory_models.hadamard_s": "s",
    "oscillatory_models.double_bessel_s": "s",
    "oscillatory_models.wave_kernel_s": "s",
    "oscillatory_models.stationary_phase_s": "s",
    "cli.run_experiment_s": "s",
    "cli.output_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# maxima over spans; every other metric is a per-round total
PEAKS = ("model_spectra.peak_mb", "restriction_coeffs.peak_mb")
# the spans inside which memory rounds trace allocations
PEAK_SPANS = ("model_spectra.enumerate_spectrum",
              "restriction_coeffs.torus_coefficients",
              "restriction_coeffs.sphere_coefficients")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "child_s",
                 "build_s", "mem0", "mem_peak", "owns_tracing")

    def __init__(self, sid, parent, name, start, mem0, owns_tracing):
        self.sid, self.parent, self.name, self.start = sid, parent, name, start
        self.end = start
        self.child_s = 0.0
        self.build_s = 0.0  # time in build_table children (cache miss marker)
        self.mem0 = self.mem_peak = mem0
        self.owns_tracing = owns_tracing

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


# -- what each wrapped entry point contributes -------------------------------
# rule(tracer, span, args, kwargs, result); `result` is None when the call raised

def _time(metric):
    return lambda tr, span, args, kwargs, result: tr.add(metric, span.self_s)


def _enumerate(tr, span, args, kwargs, result):
    tr.add("model_spectra.enumerate_s", span.self_s)
    tr.peak("model_spectra.peak_mb", span)
    if result is not None:
        tr.add("model_spectra.modes", result.m_count + result.h_count)


def _coefficients(tr, span, args, kwargs, result):
    tr.add("restriction_coeffs.build_s", span.self_s)
    tr.peak("restriction_coeffs.peak_mb", span)
    if result is not None:
        tr.add("restriction_coeffs.entries", result.entry_count)


def _load_or_build(tr, span, args, kwargs, result):
    if span.build_s > 0.0:
        tr.add("restriction_coeffs.cache_misses", 1)
        tr.add("restriction_coeffs.cache_write_s",
               span.end - span.start - span.build_s)
    else:
        tr.add("restriction_coeffs.cache_hits", 1)
        tr.add("restriction_coeffs.cache_read_s", span.end - span.start)


def _kuznecov_sum(tr, span, args, kwargs, result):
    psi = _arg(args, kwargs, 2, "psi")
    kind = "sharp" if psi.kind == "sharp" else "smooth"
    tr.add(f"kuznecov.{kind}_s", span.self_s)
    tr.add("kuznecov.entry_evals", _arg(args, kwargs, 0, "table").entry_count)


def _jumps(tr, span, args, kwargs, result):
    tr.add("kuznecov.jumps_s", span.self_s)
    tr.add("kuznecov.entry_evals", _arg(args, kwargs, 0, "table").entry_count)


def _grid_sum(metric, grid_index, grid_name):
    # one psi evaluation per entry plus one kernel evaluation per entry and
    # grid point
    def rule(tr, span, args, kwargs, result):
        tr.add(metric, span.self_s)
        entries = _arg(args, kwargs, 0, "table").entry_count
        points = len(_arg(args, kwargs, grid_index, grid_name))
        tr.add("kuznecov.entry_evals", entries * (1 + points))
    return rule


def _model_integral(tr, span, args, kwargs, result):
    tr.add("oscillatory_models.model_integral_s", span.self_s)
    if result is not None:
        tr.add("oscillatory_models.model_integral_panels", result.panels)


RULES = {
    ("model_spectra", "enumerate_spectrum"): _enumerate,
    ("restriction_coeffs", "torus_coefficients"): _coefficients,
    ("restriction_coeffs", "sphere_coefficients"): _coefficients,
    ("restriction_coeffs", "build_table"): _time("restriction_coeffs.build_s"),
    ("restriction_coeffs", "load_or_build"): _load_or_build,
    ("kuznecov", "kuznecov_sum"): _kuznecov_sum,
    ("kuznecov", "sharp_sum"): _time("kuznecov.sharp_s"),
    ("kuznecov", "averaged_sharp_sum"): _time("kuznecov.sharp_s"),
    ("kuznecov", "dominating_test_function"): _time("kuznecov.window_s"),
    ("kuznecov", "make_test_function"): _time("kuznecov.window_s"),
    ("kuznecov", "shifted_bump_window"): _time("kuznecov.window_s"),
    ("kuznecov", "TestFunction.psi"): _time("kuznecov.window_s"),
    ("kuznecov", "TestFunction.psi_hat"): _time("kuznecov.window_s"),
    ("kuznecov", "FourierWindow.psi_hat"): _time("kuznecov.window_s"),
    ("kuznecov", "eigenvalue_jumps"): _jumps,
    ("kuznecov", "doubly_smoothed_sum"):
        _grid_sum("kuznecov.doubly_smoothed_s", 3, "lambda_grid"),
    ("kuznecov", "dual_trace"): _grid_sum("kuznecov.dual_trace_s", 2, "t_grid"),
    ("asymptotics", "fit_growth"): _time("asymptotics.fit_s"),
    ("asymptotics", "predicted_exponent"): _time("asymptotics.fit_s"),
    ("asymptotics", "flat_leading_coefficient"): _time("asymptotics.coefficient_s"),
    ("asymptotics", "sphere_leading_coefficient"): _time("asymptotics.coefficient_s"),
    ("asymptotics", "jump_bound_check"): _time("asymptotics.jump_check_s"),
    ("special_functions", "regularized_pairing"): _time("special_functions.pairing_s"),
    ("special_functions", "fourier_halfline_power"): _time("special_functions.pairing_s"),
    ("oscillatory_models", "double_bessel"): _time("oscillatory_models.double_bessel_s"),
    ("oscillatory_models", "model_integral"): _model_integral,
    ("oscillatory_models", "hadamard_transport"): _time("oscillatory_models.hadamard_s"),
    ("oscillatory_models", "sphere_wave_kernel"): _time("oscillatory_models.wave_kernel_s"),
    ("oscillatory_models", "sphere_zonal_sum"): _time("oscillatory_models.wave_kernel_s"),
    ("oscillatory_models", "stationary_phase_leading"):
        _time("oscillatory_models.stationary_phase_s"),
    ("cli", "run_experiment"): _time("cli.run_experiment_s"),
}


class Tracer:
    """Per-layer totals over the traced rounds, plus the spans of the timed ones.

    A traced round is either timed (spans, self times and counts, tracemalloc
    off) or a memory round (only peaks).  In a memory round tracemalloc runs
    only inside the spans of PEAK_SPANS: tracing every Python allocation
    inflates the time of Python-heavy code many times over (the sphere tables
    by about 14x), so no time is taken while it runs.
    """

    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.totals = defaultdict(float)
        self.timed_rounds = 0
        self.memory = False
        self._patched = []

    # -- accounting ------------------------------------------------------------

    def add(self, metric, value):
        if not self.memory:
            self.totals[metric] += value

    def peak(self, metric, span):
        if self.memory:
            self.totals[metric] = max(self.totals[metric],
                                      (span.mem_peak - span.mem0) / MB)

    def _enter(self, name):
        owns = (self.memory and name in PEAK_SPANS
                and not tracemalloc.is_tracing())
        if owns:
            tracemalloc.start()
        mem, peak = tracemalloc.get_traced_memory()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.mem_peak = max(parent.mem_peak, peak)
        tracemalloc.reset_peak()
        span = Span(len(self.spans), parent.sid if parent else None, name,
                    perf_counter(), mem, owns)
        if not self.memory:
            self.spans.append(span)
        self.stack.append(span)
        return span

    def _exit(self, span):
        span.end = perf_counter()
        span.mem_peak = max(span.mem_peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        if span.owns_tracing:
            tracemalloc.stop()
        self.stack.pop()
        if self.stack:
            parent = self.stack[-1]
            parent.child_s += span.end - span.start
            parent.mem_peak = max(parent.mem_peak, span.mem_peak)
            if span.name == "restriction_coeffs.build_table":
                parent.build_s += span.end - span.start

    def _wrap(self, name, fn, rule):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(span)
                rule(self, span, args, kwargs, result)
        return traced

    # -- patching ----------------------------------------------------------------

    def start(self, memory):
        """Install the wrappers for one timed round, or one memory round."""
        self.memory = memory
        self.timed_rounds += not memory
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "kuzweyl" or k.startswith("kuzweyl.")]
        for (mod_name, attr), rule in RULES.items():
            module = sys.modules[f"kuzweyl.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, rule))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, rule)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def stop(self):
        if tracemalloc.is_tracing():  # a peak span that raised mid-way
            tracemalloc.stop()
        self.stack.clear()
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- results -----------------------------------------------------------------

    def metrics(self, overhead_s):
        """Per-layer values per timed round (peaks: maximum over spans)."""
        rounds = max(self.timed_rounds, 1)
        out = {}
        for name, unit in PER_LAYER.items():
            value = self.totals.get(name, 0.0)
            if name not in PEAKS:
                value /= rounds
            out[name] = {"value": value, "unit": unit}
        out["trace.spans"]["value"] = len(self.spans) / rounds
        out["trace.overhead_s"]["value"] = overhead_s
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": [
                {"id": s.sid, "parent": s.parent, "name": s.name,
                 "start": s.start - self.t0, "end": s.end - self.t0,
                 "self_s": s.self_s} for s in self.spans]}, fh)
