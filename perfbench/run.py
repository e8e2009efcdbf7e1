"""kuzweyl benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload torus21-windows --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from a checkout of the repository: the package is imported from its
`src/` directory, nowhere else.  A run sets up seven times (a fresh
interpreter importing the package, then input generation), once before the
first round and then between rounds, and reports the median as `setup_s`.
It repeats rounds (cold pass + warm pass, see workloads.py) until the rounds
have taken `--seconds` of wall time, checking each round against independent
reference values outside the timed passes.  Set-ups and passes are reported
in reference-speed seconds, wall time corrected for the host's speed by a
calibration kernel (clock.py).  The last line of standard output
is one JSON object: correct, attempted, failed and metrics (end-to-end with
`--trace 0`, per-layer with `--trace 1`).  Exit code 2 when the package
cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import spans
from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / ".run"
SETUP_REPS = 7
KINDS = ("plain", "time", "memory")

NAMES = ("configs-cold-warm", "torus21-windows", "sphere-eigenspaces",
         "oscillatory-toolkit")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "cold_s": "s", "warm_s": "s"}


class Calls:
    """Counts package calls; a call that raises counts as failed, returns None."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = {}

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            key = f"{getattr(fn, '__qualname__', fn)}: {type(exc).__name__}: {exc}"
            self.errors[key] = self.errors.get(key, 0) + 1
            return None


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def measure(wl, seed, seconds, trace, work):
    env = _child_env()
    clock = Clock()
    setup = []

    def import_and_generate():
        subprocess.run([sys.executable, "-c", "import kuzweyl.cli"], env=env,
                       check=True)
        return wl.inputs(seed, work)

    def set_up():
        setup.append(("setup", len(setup)))
        # one segment: kernels sampled while the child runs would time the
        # two processes competing, not the host
        return clock.measure(setup[-1], import_and_generate, sample=False)

    inp = set_up()
    expect = wl.reference(inp)

    calls = Calls()
    tracer = spans.Tracer() if trace else None
    rounds, failures = [], []
    while True:
        # with tracing, rounds cycle untraced / timed spans / memory peaks
        kind = KINDS[len(rounds) % 3] if tracer else "plain"
        # collect before each timed pass, so that the collector's work on
        # earlier garbage does not land at a random point inside a pass
        gc.collect()
        if kind != "plain":
            tracer.start(memory=kind == "memory")
        n = len(rounds)
        try:
            cold = clock.measure((n, "cold"), wl.cold, calls, inp,
                                 sample=kind == "plain")
            gc.collect()
            warm = clock.measure((n, "warm"), wl.warm, calls, inp, cold,
                                 sample=kind == "plain")
        finally:
            if kind != "plain":
                tracer.stop()
        rounds.append((clock.wall_s((n, "cold")), clock.wall_s((n, "warm")), kind))
        try:
            failures += wl.check(inp, expect, cold, warm)
        except Exception:
            failures.append("check raised:\n" + traceback.format_exc())
        for key, value in wl.finish(inp, cold, warm).items():
            if kind == "time":
                tracer.add(key, value)
        del cold, warm
        # the other set-ups run between rounds, so that their median samples
        # the host over the whole run rather than over its first second
        if len(setup) < SETUP_REPS:
            set_up()
        done = sum(c + w for c, w, _ in rounds) >= seconds
        if done and (tracer is None or any(k == "memory" for *_, k in rounds)):
            break
    while len(setup) < SETUP_REPS:
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref = [(clock.reference_s((i, "cold")), clock.reference_s((i, "warm")), k)
           for i, (*_, k) in enumerate(rounds)]
    plain = [(c, w) for c, w, k in ref if k == "plain"]
    wall = statistics.median(c + w for c, w in plain)
    if tracer is None:
        values = {
            "setup_s": statistics.median(clock.reference_s(s) for s in setup),
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb,
            "cold_s": statistics.median(c for c, _ in plain),
            "warm_s": statistics.median(w for _, w in plain),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        traced_wall = statistics.median(c + w for c, w, k in ref if k == "time")
        metrics = tracer.metrics(traced_wall - wall)
        tracer.write(RUN_DIR / f"spans-{wl.name}-seed{seed}.json")

    print("rounds, wall (cold s/warm s/kind): "
          + " ".join(f"{c:.3f}/{w:.3f}/{k}" for c, w, k in rounds), file=sys.stderr)
    print("rounds, reference speed (cold s/warm s): "
          + " ".join(f"{c:.3f}/{w:.3f}" for c, w, _ in ref), file=sys.stderr)
    print("set-ups, wall/reference speed (s): " + " ".join(
        f"{clock.wall_s(s):.3f}/{clock.reference_s(s):.3f}" for s in setup),
        file=sys.stderr)
    print(f"calibration kernel: median {statistics.median(clock.samples) * 1e3:.3f} ms "
          f"over {len(clock.samples)} samples", file=sys.stderr)
    for err, count in calls.errors.items():
        print(f"failed x{count}: {err}", file=sys.stderr)
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    return {"correct": not failures, "attempted": calls.attempted,
            "failed": calls.failed, "metrics": metrics}, len(rounds)


def run_all(args):
    """Every workload, each in its own process, one after another."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    try:
        import kuzweyl
    except ImportError as exc:
        print(f"cannot import kuzweyl from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(kuzweyl.__file__).resolve().parent != SRC / "kuzweyl":
        print(f"kuzweyl imported from {kuzweyl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import workloads

    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        result, rounds = measure(workloads.WORKLOADS[args.workload], args.seed,
                                 args.seconds, args.trace, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload}: seed {args.seed}, {rounds} rounds, "
          f"{result['attempted']} calls, {result['failed']} failed, "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
