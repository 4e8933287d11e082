"""Perf trajectory ratchet: fail CI on single-thread speedup regression.

``repro-bench`` writes ``BENCH_simulation.json`` with a
``single.aggregate_speedup`` headline (optimized vs frozen seed pipeline,
counter-equivalence asserted).  This module turns that number from a static
floor into a **trajectory**: each CI run compares itself against the
previous run's uploaded artifact and fails on regression beyond a noise
tolerance.

The schema-v5 ``native.aggregate_speedup`` column (compiled C kernel vs
scalar) is gated the same way with its own static floor
(:data:`NATIVE_FLOOR`) whenever the reports carry it — reports from
compiler-less hosts record ``available: false`` and the native gate simply
does not apply.  The ``serve`` and (schema-v6) ``cluster`` columns stay
tracked-not-gated.

CI runners (especially 1-vCPU ones) are noisy, so the gate is deliberately
forgiving: the *current* measurement is the **median** of N ``repro-bench``
runs (CI uses 3), and the regression threshold is
``previous * (1 - tolerance)`` with a generous default tolerance.  When no
previous artifact exists (first run, expired artifact, fork PR), the check
falls back to the static seed floor.  Usage::

    python -m repro.bench.ratchet bench-1.json bench-2.json bench-3.json \\
        --previous prev/BENCH_simulation.json --floor 2.0 --emit BENCH_simulation.json

``--emit PATH`` writes out the report whose speedup is the median, so the
artifact uploaded for the *next* run's comparison represents the median
measurement, not an arbitrary run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path

#: Default fraction the median may fall below the previous run before the
#: ratchet fails.  1-vCPU CI runners fluctuate ±15%; 25% keeps false
#: positives rare while still catching real (order-of-tens-of-percent)
#: hot-path regressions.
DEFAULT_TOLERANCE = 0.25

#: Default static floor, matching the CI ``--quick`` floor (the non-quick
#: workload targets ≥3x; ``--quick`` keeps headroom for runner noise).
DEFAULT_FLOOR = 2.0

#: Static floor for the native-kernel speedup (``native.aggregate_speedup``,
#: compiled C vs scalar).  The kernel benches far above this on every host
#: tried; the floor is the order-of-magnitude claim's backstop, kept at 2x
#: for the same runner-noise headroom as the single-thread floor.
NATIVE_FLOOR = 2.0


def read_speedup(path: "str | Path") -> float:
    """The ``single.aggregate_speedup`` headline of one report file."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    return float(report["single"]["aggregate_speedup"])


def read_native_speedup(path: "str | Path") -> "float | None":
    """The ``native.aggregate_speedup`` column, or None when absent.

    Absent means a pre-v5 report *or* a host with no C compiler
    (``native.available == false``) — in both cases the native gate simply
    does not apply.  When the column is present it is **gated** (floor
    :data:`NATIVE_FLOOR`, ratcheted against the previous artifact like the
    single-thread headline): the compiled kernel is a headline perf claim,
    and it is a pure single-thread CPU ratio, as stable as ``single``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    native = report.get("native")
    if not native or not native.get("available"):
        return None
    return float(native["aggregate_speedup"])


def read_cluster_requeues(path: "str | Path") -> "tuple[int, int] | None":
    """The ``cluster`` (chunks_requeued, workers_respawned) totals (None pre-v6).

    Tracked, not gated: on a healthy runner both totals are zero across
    every policy, and a nonzero value in the trajectory flags flaky worker
    infrastructure — but gating on it would make the ratchet fail on the
    very runner flakiness the elastic backend exists to absorb.
    """
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    policies = report.get("cluster", {}).get("policies")
    if not policies:
        return None
    return (
        sum(int(row.get("chunks_requeued", 0)) for row in policies.values()),
        sum(int(row.get("workers_respawned", 0)) for row in policies.values()),
    )


def read_serve_latency(path: "str | Path") -> "tuple[float, float] | None":
    """The ``serve`` warm (p50_ms, verdicts_per_sec) pair (None pre-v4).

    The serving-latency trajectory is *recorded and tracked*, not gated:
    socket round-trip times on shared CI runners swing far more than the
    single-thread headline.
    """
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    warm = report.get("serve", {}).get("warm")
    if not warm:
        return None
    return float(warm["p50_ms"]), float(warm["verdicts_per_sec"])


@dataclass
class RatchetResult:
    """Outcome of one ratchet evaluation."""

    ok: bool
    median: float
    previous: float | None
    threshold: float
    message: str


def evaluate(
    speedups: "list[float]",
    previous: "float | None",
    floor: float = DEFAULT_FLOOR,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RatchetResult:
    """Gate the median of *speedups* against the previous run (or the floor).

    The static *floor* always applies as a backstop; on top of it, a known
    *previous* speedup ratchets the threshold up to
    ``previous * (1 - tolerance)``.
    """
    if not speedups:
        raise ValueError("need at least one speedup measurement")
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must be in [0, 1)")
    median = statistics.median(speedups)
    threshold = floor
    basis = f"static floor {floor:g}x"
    if previous is not None:
        ratchet = previous * (1 - tolerance)
        if ratchet > threshold:
            threshold = ratchet
            basis = f"previous {previous:g}x - {tolerance:.0%} tolerance"
    ok = median >= threshold
    verdict = "ok" if ok else "REGRESSION"
    message = (
        f"perf ratchet {verdict}: median speedup {median:g}x over "
        f"{len(speedups)} run(s) vs threshold {threshold:g}x ({basis})"
    )
    return RatchetResult(
        ok=ok, median=median, previous=previous, threshold=threshold, message=message
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.ratchet", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "reports", nargs="+", metavar="BENCH_JSON",
        help="current-run repro-bench reports; the median gates",
    )
    parser.add_argument(
        "--previous", default=None, metavar="PATH",
        help="previous run's BENCH_simulation.json artifact; missing or "
             "unreadable falls back to the static floor",
    )
    parser.add_argument(
        "--floor", type=float, default=DEFAULT_FLOOR,
        help=f"static speedup floor when no previous artifact exists "
             f"(default {DEFAULT_FLOOR})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=f"allowed fractional regression vs the previous run "
             f"(default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--emit", default=None, metavar="PATH",
        help="copy the median report here (the artifact the next run "
             "compares against)",
    )
    args = parser.parse_args(argv)

    speedups = []
    natives = []
    serve_p50s = []
    serve_rates = []
    cluster_requeues = []
    for path in args.reports:
        speedup = read_speedup(path)
        speedups.append(speedup)
        native = read_native_speedup(path)
        if native is not None:
            natives.append(native)
        native_note = f", native {native:g}x" if native is not None else ""
        serve = read_serve_latency(path)
        serve_note = ""
        if serve is not None:
            serve_p50s.append(serve[0])
            serve_rates.append(serve[1])
            serve_note = f", serve {serve[0]:g}ms p50"
        cluster = read_cluster_requeues(path)
        cluster_note = ""
        if cluster is not None:
            cluster_requeues.append(cluster[0])
            cluster_note = f", cluster requeues {cluster[0]}"
        print(
            f"  {path}: {speedup:g}x{native_note}{serve_note}"
            f"{cluster_note}"
        )
    if serve_p50s:
        print(
            f"  serve warm median {statistics.median(serve_p50s):g}ms p50, "
            f"{statistics.median(serve_rates):g} verdicts/s "
            "(tracked, not gated)"
        )
    if cluster_requeues:
        print(
            f"  cluster requeues total {sum(cluster_requeues)} across "
            f"{len(cluster_requeues)} run(s) (tracked, not gated)"
        )

    previous = None
    prev_native = None
    if args.previous is not None:
        try:
            previous = read_speedup(args.previous)
            print(f"  previous artifact {args.previous}: {previous:g}x")
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"  previous artifact unusable ({exc}); using the static floor")
        else:
            try:
                prev_native = read_native_speedup(args.previous)
            except (ValueError, KeyError):
                prev_native = None

    result = evaluate(
        speedups, previous, floor=args.floor, tolerance=args.tolerance
    )
    print(result.message)

    native_result = None
    if natives:
        native_result = evaluate(
            natives, prev_native, floor=NATIVE_FLOOR, tolerance=args.tolerance
        )
        print(f"  native kernel {native_result.message}")
    ok = result.ok and (native_result is None or native_result.ok)

    if args.emit:
        # The report whose speedup lies closest to the gated median becomes
        # the artifact (== the median report for odd N).  Distance ties
        # (possible for even N) prefer the *lower* speedup: the next run's
        # threshold then errs toward leniency, never toward a false failure.
        median_path = min(
            zip(speedups, args.reports),
            key=lambda pair: (abs(pair[0] - result.median), pair[0], pair[1]),
        )[1]
        if Path(median_path).resolve() != Path(args.emit).resolve():
            shutil.copyfile(median_path, args.emit)
        print(f"  emitted median report {median_path} -> {args.emit}")

    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
