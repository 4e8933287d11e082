"""The perfbench gate: hold this run's end-to-end numbers to the last ``main`` run.

``perfbench/run.py`` prints one JSON result line last; CI keeps each run's
line as ``perfbench-<workload>-<round>.json`` and uploads the set as the
``perfbench`` artifact.  For every workload ``BENCHMARK.json`` declares:

* each workload must have a run, and every run must pass its output
  check: ``correct`` with ``failed == 0``.  A run file whose last line is
  not a result fails by name;
* the median of each ``end_to_end`` metric is held to the median of the
  previous ``main`` artifact, in the direction (``better``) and within the
  ``bound`` the metric declares: a lower-is-better metric fails above
  ``previous * (1 + bound)``, a higher-is-better one below
  ``previous * (1 - bound)``.  A metric missing on either side is skipped.

With no previous artifact (first run, expired artifact, fork PR), or an
unreadable one, only the output check gates.  Run it from the repository
root, where ``BENCHMARK.json`` is; it exits 1 on any failure::

    python -m repro.bench.ratchet RUN_DIR --previous PREVIOUS_DIR
"""

from __future__ import annotations

import argparse
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

#: The benchmark declaration, read from the working directory.
SPEC_FILE = "BENCHMARK.json"

#: Keys every perfbench result line carries.
RESULT_KEYS = frozenset({"correct", "attempted", "failed", "metrics"})


@dataclass
class RatchetResult:
    """Outcome of one ratchet evaluation."""

    ok: bool
    median: float
    threshold: float
    message: str


def evaluate(
    values: "list[float]",
    previous: float,
    tolerance: float,
    better: str = "higher",
) -> RatchetResult:
    """Gate the median of *values* against the *previous* value.

    With ``better="higher"`` (a detection rate) the threshold is
    ``previous * (1 - tolerance)``; with ``better="lower"`` (a time, a size)
    it is ``previous * (1 + tolerance)``.  A median exactly at the threshold
    passes.
    """
    if not values:
        raise ValueError("need at least one measurement")
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must be in [0, 1)")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    higher = better == "higher"
    median = statistics.median(values)
    threshold = previous * (1 - tolerance if higher else 1 + tolerance)
    ok = median >= threshold if higher else median <= threshold
    verdict = "ok" if ok else "REGRESSION"
    sign = "-" if higher else "+"
    message = (
        f"perf ratchet {verdict}: median {median:g} over {len(values)} "
        f"run(s) vs threshold {threshold:g}, {better} is better "
        f"(previous {previous:g} {sign} {tolerance:.0%} tolerance)"
    )
    return RatchetResult(ok=ok, median=median, threshold=threshold, message=message)


def read_runs(directory: "str | Path", workload: str) -> "list[dict]":
    """The result lines of *workload*'s runs in *directory*, in file order.

    Raises :class:`ValueError` naming the file whose last line is not a
    perfbench result.
    """
    runs = []
    for path in sorted(Path(directory).glob(f"perfbench-{workload}-*.json")):
        lines = path.read_text(encoding="utf-8").splitlines()
        try:
            run = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            run = None
        if not isinstance(run, dict) or not RESULT_KEYS <= run.keys():
            raise ValueError(f"{path}: last line is not a perfbench result")
        runs.append(run)
    return runs


def gate(spec: dict, current: "str | Path", previous: "str | Path | None") -> "list[str]":
    """Check the runs in *current* against *previous* under *spec*.

    Prints one line per run and per gated metric; returns the failures.
    """
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            runs = read_runs(current, workload)
        except ValueError as exc:
            failures.append(f"{workload}: {exc}")
            continue
        if not runs:
            failures.append(f"{workload}: no perfbench-{workload}-*.json in {current}")
            continue
        for run in runs:
            print(f"{workload}: correct={run['correct']} "
                  f"attempted={run['attempted']} failed={run['failed']}")
            if not run["correct"] or run["failed"] > 0:
                failures.append(f"{workload}: output check failed "
                                f"({run['failed']} of {run['attempted']})")
        try:
            before = read_runs(previous, workload) if previous is not None else []
        except (OSError, ValueError) as exc:
            before = []
            print(f"  previous main result unreadable ({exc})")
        if not before:
            print(f"  {workload}: no previous main result, output check only")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            old = [r["metrics"][name]["value"] for r in before if name in r["metrics"]]
            if not values or not old:
                continue
            result = evaluate(values, statistics.median(old),
                              tolerance=metric["bound"], better=metric["better"])
            print(f"  {name}: {result.message}")
            if not result.ok:
                failures.append(f"{workload} {name}: {result.message}")
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.ratchet", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "runs", metavar="RUN_DIR",
        help="directory holding this run's perfbench-<workload>-<round>.json files",
    )
    parser.add_argument(
        "--previous", default=None, metavar="DIR",
        help="the previous main run's perfbench artifact; missing or "
             "unreadable gates the output check only",
    )
    args = parser.parse_args(argv)
    spec = json.loads(Path(SPEC_FILE).read_text(encoding="utf-8"))
    failures = gate(spec, args.runs, args.previous)
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"perfbench gate: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
