"""qrmirror benchmark: one closed-loop client, one workload per process.

    python3 bench/run.py --workload short-pairs --seed 1 --seconds 23 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 23

Each run imports qrmirror from ``src/`` next to this directory, fills its
lazy caches, prepares the seeded inputs (untimed), then calls the program
back to back until the operations' own time reaches --seconds. Every
outcome is checked after its timer stops. Untraced runs report times
scaled to an uncontended core by a fixed reference computation run between
operations (reference.py) and print the times as measured on a # line. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A failed check exits 1.

--workload all runs every workload in its own fresh interpreter, one
after another.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from coldstart import fill_caches
from reference import Speedometer
from spans import Tracer, layer_metrics, self_times
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# p90 needs ten samples beyond it to mean anything
P90_MIN_OPS = 100
CHILD_TIMEOUT_S = 170
# reference time run after each operation, as a share of its time
REFERENCE_SHARE = 0.1


def load_program():
    """Import qrmirror from this checkout's src/ and nowhere else.

    Returns its modules as attributes (qr.mirror, qr.verify, ...).
    """
    sys.path.insert(0, str(SRC))
    import qrmirror
    from qrmirror import codec, encoder, formatinfo, grid, masks, mirror, render, rscode, verify

    if SRC.resolve() not in Path(qrmirror.__file__).resolve().parents:
        raise ImportError(f"qrmirror was imported from {qrmirror.__file__}, not {SRC}")
    return SimpleNamespace(codec=codec, encoder=encoder, formatinfo=formatinfo, grid=grid,
                           masks=masks, mirror=mirror, render=render, rscode=rscode,
                           verify=verify)


def cold_setup_seconds():
    """Medians over fresh interpreters of import plus cache fill.

    Returns (scaled, raw): each child's seconds divided by the slowdown of
    the reference it runs right after, and as measured.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(BENCH_DIR / "coldstart.py"), str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        seconds, slowdown = map(float, done.stdout.split()[-2:])
        scaled.append(seconds / slowdown)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def measure(workload, items, seconds, tracer, speedometer):
    """Closed loop until the operations' timed total reaches seconds.

    The speedometer, when given, runs the reference after each operation,
    outside its timed interval. Returns (latencies in s, the items run,
    failures, constructed count).
    """
    latencies, done, failures = [], [], []
    constructed = 0
    busy = 0.0
    while busy < seconds or not done:
        item = next(items)
        if tracer is not None:
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.op(item)
            else:
                outcome = tracer.run_op(len(done), workload.op, item)
        except Exception as exc:  # the check decides whether this verdict is right
            outcome = exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        busy += elapsed
        latencies.append(elapsed)
        if speedometer is not None:
            speedometer.after(elapsed)
        done.append(item)
        try:
            ok, built = workload.check(item, outcome)
        except Exception as exc:
            ok, built = False, False
            outcome = exc
        constructed += built
        if not ok:
            failures.append(len(done) - 1)
            print(f"FAILED op {len(done) - 1}: {_describe(item)} -> {outcome!r}",
                  file=sys.stderr)
            if isinstance(outcome, BaseException):
                traceback.print_exception(outcome, file=sys.stderr)
    return latencies, done, failures, constructed


def _describe(item):
    return repr(item[:3]) if isinstance(item[0], str) else repr(item[1])


def end_to_end(latencies, setup, speedometer):
    """The timings scaled to an uncontended core (see reference.py).

    Each operation's time is divided by the slowdown of the reference run
    right after it; setup_s was scaled the same way by cold_setup_seconds.
    """
    scaled = [t / slow for t, slow in zip(latencies, speedometer.slowdowns, strict=True)]
    print(f"# as measured: setup_s {setup[1]:.6g}  ops_per_s {len(latencies) / sum(latencies):.6g}"
          f"  op_ms_p50 {statistics.median(latencies) * 1e3:.6g}; reference slowdown "
          f"{speedometer.mean_slowdown():.4f} (mean of {len(speedometer.samples)} calls)")
    if len(scaled) >= P90_MIN_OPS:
        print(f"# op_ms_p90 {statistics.quantiles(scaled, n=10)[8] * 1e3:.6g} ms scaled "
              f"(n={len(scaled)})")
    else:
        print(f"# op_ms_p90 not reported: n={len(scaled)} < {P90_MIN_OPS}")
    return {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        fn(*args)
    except Exception:
        pass  # outcomes were checked during the measured pass
    return time.perf_counter() - t0


def tracing_overhead(workload, done, seconds):
    """Tracing overhead and the self-time check, on the first items again.

    Each item runs untraced, then traced by a fresh tracer, back to back,
    so machine speed drifts cancel out of the ratio. Self times recomputed
    from that tracer's span tree must add up to the untraced op time within
    the measured overhead, plus 5% for the noise between two executions,
    and none may be negative.
    """
    tracer = Tracer()
    untraced = traced = 0.0
    replayed = 0
    for item in done:
        untraced += _timed(workload.op, item)
        tracer.install()
        tracer.recording = True
        traced += _timed(tracer.run_op, replayed, workload.op, item)
        tracer.recording = False
        tracer.uninstall()
        replayed += 1
        if untraced + traced >= seconds:
            break
    own = self_times(tracer.spans)
    self_sum = sum(own)
    consistent = (abs(self_sum - untraced) <= abs(traced - untraced) + 0.05 * untraced
                  and min(own) > -1e-6)
    metrics = {
        "trace.overhead_ratio": (traced / untraced - 1, "ratio"),
        "trace.self_sum_ratio": (self_sum / untraced, "ratio"),
        "trace.replayed_ops": (replayed, "count"),
    }
    return metrics, consistent


def run_workload(name, seed, seconds, trace):
    qr = load_program()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.recording = True
        tracer.op = "setup"
    fill_caches(qr.formatinfo, qr.grid, qr.masks, qr.rscode)
    if tracer is not None:
        tracer.recording = False
        tracer.op = None
    setup = None if trace else cold_setup_seconds()
    speedometer = None if trace else Speedometer(REFERENCE_SHARE)

    workload = WORKLOADS[name](qr)
    workload.prepare(seed)
    latencies, done, failures, constructed = measure(
        workload, iter(workload.items(seed)), seconds, tracer, speedometer)

    correct = not failures
    if tracer is None:
        metrics = end_to_end(latencies, setup, speedometer)
    else:
        tracer.uninstall()
        metrics = layer_metrics(tracer)
        summary, consistent = tracing_overhead(workload, done, seconds / 2)
        metrics.update(summary)
        metrics["mirror.construct_double_sided.feasible_ratio"] = (
            constructed / len(done), "ratio")
        correct = correct and consistent
        if not consistent:
            print("FAILED trace self-time check", file=sys.stderr)
        tracer.write(SPAN_DIR / f"spans-{name}-seed{seed}.json")

    print(f"# workload {name}  seed {seed}  ops {len(done)}  timed {sum(latencies):.3f} s")
    print(f"# fail_ratio {len(failures) / len(done):.6g}  "
          f"feasible_ratio {constructed / len(done):.6g}")
    for key, (value, unit) in metrics.items():
        print(f"{name:18s} {key:52s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Every workload in a fresh interpreter, one after another."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print(f"cannot load qrmirror from {SRC}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
