"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload core-study --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run, its times
in reference seconds (``hostclock.py``); ``--trace 1`` runs the same work
with the outside-in span recorder (``tracing.py``) and prints the per-layer
metrics instead, in plain elapsed seconds.  See ``perfbench/README.md``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
BUILD = ROOT / ".bench_build"
DIGESTS = HERE / "digests.json"
#: Nominal seconds of one pass of each workload's timed phase on the
#: reference host: a run measures ``round(--seconds / nominal)`` passes, at
#: least one, so a given ``--seconds`` always measures the same work.
PASS_SECONDS = {"core-study": 20.0, "memory-study": 20.0, "serve-stream": 12.0}
WORKLOADS = tuple(PASS_SECONDS)

#: Layers reported as ``<layer>.self_s`` for the timed passes (the
#: simulators as ``<sim>.busy_s``) and as ``setup.<layer>_s`` for one set-up
#: build (SimPoint as ``simpoint.select_s``).  No set-up runs memsim or
#: serves a request; such time would land in ``setup.other_s``.
TIMED_LAYERS = ("runtime", "ml", "detect", "serve")
SETUP_LAYERS = ("coresim", "runtime", "ml", "detect")

#: Environment knobs that would move the measured work off repo defaults.
PINNED_ENV = ("REPRO_KERNEL", "REPRO_BACKEND", "REPRO_JOBS")

PRIME_NATIVE = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    "from repro.coresim.native import native_available; native_available()"
)

#: Imports are timed in this many fresh interpreters; setup_s takes the median.
#: The clock's own import (numpy) comes first and is not timed.
IMPORT_REPEATS = 3
TIME_IMPORT = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; import hostclock\n"
    "clock = hostclock.HostClock()\n"
    "with clock.ticking(): started = time.perf_counter(); import workloads;"
    " ended = time.perf_counter()\n"
    "print(clock.scaled(started, ended), ended - started)"
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget; sets the number of whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        return fail(f"no program source at {SOURCE}; run from a repository checkout")
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    # One vCPU for the whole run (the child processes too), so the host
    # clock's kernel runs on the CPU that does the work it rescales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Keep every file the run writes, the compiler's too, in the checkout.
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)

    # Build step: compile (or find) the native kernel in a child process,
    # so a cold build cache never lands in setup_s.
    prime = subprocess.run(
        [sys.executable, "-c", PRIME_NATIVE, str(SOURCE)],
        cwd=ROOT, timeout=600, capture_output=True, text=True,
    )
    if prime.returncode != 0:
        return fail(f"native build check failed:\n{prime.stderr}")
    # The import part of set-up cannot repeat in one process, so it is
    # timed in fresh interpreters doing exactly this process's imports.
    imports = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", TIME_IMPORT, str(HERE), str(SOURCE)],
            cwd=ROOT, timeout=120, capture_output=True, text=True, check=True,
        )
        imports.append([float(x) for x in child.stdout.split()])
    import_s = statistics.median(scaled for scaled, _ in imports)

    sys.path[:0] = [str(HERE), str(SOURCE)]
    import workloads  # imports repro
    from hostclock import HostClock, WallClock
    from tracing import Tracer

    # Untraced runs report reference seconds; the traced run's layer times
    # stay plain elapsed seconds, so the clock's kernel never runs in a span.
    clock = WallClock() if args.trace else HostClock()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    traced_setup_start = time.perf_counter()

    scratch = BUILD / f"run-{os.getpid()}"
    if args.workload == "core-study":
        workload = workloads.CoreStudy(args.seed, clock)
    elif args.workload == "memory-study":
        workload = workloads.MemoryStudy(args.seed, clock)
    else:
        workload = workloads.ServeStream(args.seed, clock, scratch, tracer)
    counter_marks = []
    # The traced set-up covers one build: up to the end of the first repeat.
    first_build = {}

    def mark() -> None:
        first_build["end"] = time.perf_counter()
        first_build["counters"] = dict(tracer.counters) if tracer else {}

    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    try:
        setup_s = import_s + workload.setup(mark)
        setup_window = (traced_setup_start, first_build["end"])
        outcomes = []
        windows = []
        for index in range(passes):
            if index:
                try:
                    workload.fresh()
                except Exception:  # the pass then fails every operation
                    traceback.print_exc(file=sys.stderr)
            before = dict(tracer.counters) if tracer else {}
            window_start = time.perf_counter()
            outcomes.append(workload.run_pass())
            windows.append((window_start, time.perf_counter()))
            counter_marks.append((before, dict(tracer.counters) if tracer else {}))
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.cleanup()

    expected = json.loads(DIGESTS.read_text()).get(args.workload, {})
    attempted = failed = 0
    mismatched = []
    for outcome in outcomes:
        for name, (ops, failed_in_pass, got) in outcome.groups.items():
            attempted += ops
            if got is None or got != expected.get(name):
                failed += ops
                mismatched.append(name)
            else:
                failed += failed_in_pass
        if set(expected) != set(outcome.groups):
            mismatched.append("<group set>")
            failed += 1
    for name in sorted(set(mismatched)):
        print(f"perfbench: output check failed for {args.workload} {name}", file=sys.stderr)

    first = outcomes[0]
    latencies = [x for outcome in outcomes for x in outcome.latencies_ms]
    elapsed = [x for outcome in outcomes for x in outcome.elapsed_latencies_ms]
    if args.trace:
        metrics = layer_metrics(tracer, setup_window, first_build["counters"],
                                windows, counter_marks, outcomes, span_cost(Tracer))
        tracer.write_json(str(BUILD / f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(statistics.median(o.wall_s for o in outcomes), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "tpr": metric(first.tpr, "ratio"),
            "tnr": metric(first.tnr, "ratio"),
        }
        # A pass that raised has no verdicts to time; it has failed anyway.
        if latencies:
            metrics["verdict_p50_ms"] = metric(percentile(latencies, 0.50), "ms")
            metrics["verdict_p99_ms"] = metric(percentile(latencies, 0.99), "ms")
    print(
        f"perfbench: {args.workload} seed={args.seed} passes={len(outcomes)} "
        f"verdict samples={len(latencies)} attempted={attempted} failed={failed} "
        f"elapsed: imports_s={statistics.median(raw for _, raw in imports):.4f} "
        f"wall_s={statistics.median(o.elapsed_s for o in outcomes):.4f}"
        + (f" verdict_p50_ms={percentile(elapsed, 0.50):.3f}"
           f" verdict_p99_ms={percentile(elapsed, 0.99):.3f}" if elapsed else ""),
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(tracer, setup_window, setup_counters, windows, counter_marks,
                  outcomes, cost_per_span) -> dict:
    """Per-layer metrics of the timed passes (simpoint and ``setup.*``: one
    build of the set-up)."""
    timed = tracer.window_times(windows)
    setup = tracer.window_times([setup_window])
    counts: dict = {}
    for before, after in counter_marks:
        for key, value in after.items():
            counts[key] = counts.get(key, 0) + value - before.get(key, 0)
    for outcome in outcomes:
        for key, value in outcome.counts.items():
            counts[key] = counts.get(key, 0) + value
    wall = sum(hi - lo for lo, hi in windows)

    def rate(instructions: str, seconds: float) -> float:
        return counts.get(instructions, 0) / seconds if seconds > 0 else 0.0

    out = {
        "simpoint.select_s": metric(setup.get("simpoint", 0.0), "s"),
        "simpoint.probes": metric(setup_counters.get("simpoint.probes", 0), "count"),
        # busy_s is the simulator layer's self time.
        "coresim.busy_s": metric(timed.get("coresim", 0.0), "s"),
        "coresim.jobs": metric(counts.get("coresim.jobs", 0), "count"),
        "coresim.native_jobs": metric(counts.get("coresim.native_jobs", 0), "count"),
        "coresim.instr_per_s": metric(
            rate("coresim.instructions", timed.get("coresim", 0.0)), "1/s"),
        "memsim.busy_s": metric(timed.get("memsim", 0.0), "s"),
        "memsim.jobs": metric(counts.get("memsim.jobs", 0), "count"),
        "memsim.instr_per_s": metric(
            rate("memsim.instructions", timed.get("memsim", 0.0)), "1/s"),
        "ml.fit_s": metric(timed.get("ml|fit_incl", 0.0), "s"),
        "ml.fits": metric(counts.get("ml.fits", 0), "count"),
        "ml.repeat_fits": metric(counts.get("ml.repeat_fits", 0), "count"),
        "ml.trees_fitted": metric(counts.get("ml.trees_fitted", 0), "count"),
        "ml.trees_kept": metric(counts.get("ml.trees_kept", 0), "count"),
        "ml.predict_s": metric(timed.get("ml|predict_top", 0.0), "s"),
        "ml.predict_rows": metric(counts.get("ml.predict_rows", 0), "count"),
        "detect.stage1_self_s": metric(timed.get("detect|stage1", 0.0), "s"),
        "detect.stage2_s": metric(timed.get("detect|stage2", 0.0), "s"),
        "detect.counter_select_s": metric(timed.get("detect|counter_select", 0.0), "s"),
        "detect.error_vectors": metric(counts.get("detect.error_vectors", 0), "count"),
        "runtime.engine_self_s": metric(timed.get("runtime|engine", 0.0), "s"),
        "runtime.engine_calls": metric(counts.get("runtime.engine_calls", 0), "count"),
        "runtime.executed": metric(counts.get("runtime.executed", 0), "count"),
        "runtime.store_get_s": metric(timed.get("runtime|store_get", 0.0), "s"),
        "runtime.store_gets": metric(counts.get("runtime.store_gets", 0), "count"),
        "runtime.store_put_s": metric(timed.get("runtime|store_put", 0.0), "s"),
        "runtime.store_puts": metric(counts.get("runtime.store_puts", 0), "count"),
        "serve.session_self_s": metric(timed.get("serve|session", 0.0), "s"),
        "serve.wire_s": metric(timed.get("serve|wire", 0.0), "s"),
        "serve.requests": metric(counts.get("serve.requests", 0), "count"),
        "serve.overlay_hits": metric(counts.get("serve.overlay_hits", 0), "count"),
        "serve.executed": metric(counts.get("serve.executed", 0), "count"),
    }
    # Self time per layer plus ``other``: these sum to the traced wall.
    # SimPoint runs only in set-up; any SimPoint time here lands in ``other``.
    covered = timed.get("coresim", 0.0) + timed.get("memsim", 0.0)
    for layer in TIMED_LAYERS:
        covered += timed.get(layer, 0.0)
        out[f"{layer}.self_s"] = metric(timed.get(layer, 0.0), "s")
    out["other.self_s"] = metric(wall - covered, "s")
    out["traced.wall_s"] = metric(wall, "s")
    # Likewise for one set-up build, with simpoint.select_s as its simpoint share.
    setup_wall = setup_window[1] - setup_window[0]
    setup_covered = setup.get("simpoint", 0.0)
    for layer in SETUP_LAYERS:
        setup_covered += setup.get(layer, 0.0)
        out[f"setup.{layer}_s"] = metric(setup.get(layer, 0.0), "s")
    out["setup.other_s"] = metric(setup_wall - setup_covered, "s")
    out["setup.traced_s"] = metric(setup_wall, "s")
    spans = sum(1 for s in tracer.spans if any(lo <= s.start < hi for lo, hi in windows))
    out["traced.spans"] = metric(spans, "count")
    out["traced.overhead_s"] = metric(spans * cost_per_span, "s")
    return out


def span_cost(tracer_class, calls: int = 20000) -> float:
    """Seconds one spanned call costs over a plain call, timed in this process."""

    class Target:
        def hit(self):
            return None

    target = Target()
    started = time.perf_counter()
    for _ in range(calls):
        target.hit()
    bare = time.perf_counter() - started
    tracer = tracer_class()
    tracer.wrap(Target, "hit", "target", "other")
    tracer.enabled = True
    started = time.perf_counter()
    for _ in range(calls):
        target.hit()
    spanned = time.perf_counter() - started
    tracer.uninstall()
    return max(0.0, spanned - bare) / calls


if __name__ == "__main__":
    sys.exit(main())
