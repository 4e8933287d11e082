"""Perf trajectory ratchet: fail CI on a kernel speedup regression.

``repro-bench`` writes ``BENCH_simulation.json`` with a
``native.aggregate_speedup`` headline (compiled C kernel vs the Python
fallback, counter-equivalence asserted).  This module turns that number
from a static floor into a **trajectory**: each CI run compares itself
against the previous run's uploaded artifact and fails on regression
beyond a noise tolerance.  A report from a host without a compiler
(``native.available == false``) carries no speedup and cannot be gated.

:func:`evaluate` also gates lower-is-better metrics (``better="lower"``):
the CI ``perf`` job holds each end-to-end metric of ``perfbench/run.py``
to the previous ``main`` run with the direction and bound
``BENCHMARK.json`` gives it.

CI runners (especially 1-vCPU ones) are noisy, so the gate is deliberately
forgiving: the *current* measurement is the **median** of N ``repro-bench``
runs (CI uses 3), and the regression threshold is
``previous * (1 - tolerance)`` with a generous default tolerance.  When no
previous artifact exists (first run, expired artifact, fork PR), the check
falls back to the static floor.  Usage::

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

#: Default static floor for the native-kernel speedup.  The kernel benches
#: an order of magnitude above it on every host tried; the floor is that
#: claim's backstop, with headroom for runner noise.
DEFAULT_FLOOR = 2.0


def read_speedup(path: "str | Path") -> float:
    """The ``native.aggregate_speedup`` headline of one report file.

    Raises :class:`ValueError` for a report without one: a pre-v5 report,
    or one from a host with no C compiler (``native.available == false``).
    """
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    native = report.get("native") or {}
    if not native.get("available"):
        raise ValueError(f"{path}: no native kernel speedup to gate")
    return float(native["aggregate_speedup"])


@dataclass
class RatchetResult:
    """Outcome of one ratchet evaluation."""

    ok: bool
    median: float
    previous: float | None
    threshold: float
    message: str


def evaluate(
    values: "list[float]",
    previous: "float | None",
    floor: "float | None" = DEFAULT_FLOOR,
    tolerance: float = DEFAULT_TOLERANCE,
    better: str = "higher",
) -> RatchetResult:
    """Gate the median of *values* against the previous run (or the floor).

    With ``better="higher"`` (a speedup, a detection rate) a known
    *previous* value ratchets the threshold up to
    ``previous * (1 - tolerance)`` and the static *floor* stays a
    backstop.  With ``better="lower"`` (a time, a size) the threshold is
    ``previous * (1 + tolerance)`` and *floor*, if given, is a static
    maximum.  Either way the stricter of the two applies; ``floor=None``
    gates on the previous value alone.
    """
    if not values:
        raise ValueError("need at least one measurement")
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must be in [0, 1)")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    higher = better == "higher"
    median = statistics.median(values)
    threshold = floor
    basis = f"static floor {floor:g}" if floor is not None else ""
    if previous is not None:
        ratchet = previous * (1 - tolerance if higher else 1 + tolerance)
        # The stricter of floor and ratchet wins.
        if threshold is None or (ratchet > threshold) == higher:
            threshold = ratchet
            sign = "-" if higher else "+"
            basis = f"previous {previous:g} {sign} {tolerance:.0%} tolerance"
    if threshold is None:
        raise ValueError("need a previous value or a floor to gate against")
    ok = median >= threshold if higher else median <= threshold
    verdict = "ok" if ok else "REGRESSION"
    message = (
        f"perf ratchet {verdict}: median {median:g} over {len(values)} "
        f"run(s) vs threshold {threshold:g}, {better} is better ({basis})"
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
    for path in args.reports:
        speedup = read_speedup(path)
        speedups.append(speedup)
        print(f"  {path}: {speedup:g}x")

    previous = None
    if args.previous is not None:
        try:
            previous = read_speedup(args.previous)
            print(f"  previous artifact {args.previous}: {previous:g}x")
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"  previous artifact unusable ({exc}); using the static floor")

    result = evaluate(
        speedups, previous, floor=args.floor, tolerance=args.tolerance
    )
    print(result.message)

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

    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
