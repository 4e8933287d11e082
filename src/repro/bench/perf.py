"""``repro-bench``: the simulation-kernel benchmark gate.

Times the compiled simulation kernel against its Python fallback on the
*standard probe workload* (smoke-scale SimPoint probes across a
representative preset mix) and writes ``BENCH_simulation.json``, which the
CI ``perf`` job ratchets against the previous ``main`` run
(:mod:`repro.bench.ratchet`):

* ``native`` — the compiled C **native kernel** (:mod:`repro.coresim.native`)
  versus :func:`repro.coresim.simulate_batch_scalar`, the frozen seed
  pipeline fed each bug's record, with the active compiler name/version
  recorded.  The headline number is ``aggregate_speedup`` = total fallback
  time / total native time.  When no compiler is available the section
  records ``available: false`` instead of failing — the fallback path is
  the product behaviour being measured.

Counter equivalence is asserted on every timed pair, so the section cannot
report a speedup obtained by computing something different; the aggregate
speedup is gated (floor 2.0x).  End-to-end numbers — a paper study, a
``repro-serve`` request stream — come from ``perfbench/run.py``, not from
here (docs/PERFORMANCE.md, "Benchmarks").

``--quick`` shrinks every dimension for CI runs (under a second of timed
work on a 2-vCPU Xeon VM); the default sizing takes about ten seconds
there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Sequence

import numpy as np

from ..coresim import simulate_batch_scalar, simulate_trace
from ..detect.probe import Probe, build_probes
from ..uarch import core_microarch

#: Output schema version; bump when the JSON layout changes.
#: v2: engine section gained a ``backend`` spec column per scheduler row.
#: v3: new ``batch`` section (vector-kernel batched sweeps) and a
#:     ``kernel`` column on the single/batch rows.
#: v4: new ``serve`` section (repro-serve daemon verdict latency).
#: v5: new ``native`` section (compiled C kernel vs scalar on the standard
#:     probe workload, compiler name/version recorded; ``available: false``
#:     when no compiler is found).
#: v6: new ``cluster`` section (dispatch-policy A/B).
#: v7: new ``mixes`` section (mix build and memory-design sweep throughput).
#: v8: ``batch`` section removed with the numpy vector kernel it timed.
#: v9: only the two gated sections remain, ``single`` and ``native``; the
#:     tracked-not-gated ``engine``, ``cluster``, ``store``, ``serve`` and
#:     ``mixes`` sections are gone (perfbench measures end to end).
#: v10: ``single`` removed with the optimised scalar pipeline it timed;
#:     ``native`` is the whole benchmark, timed against the Python fallback
#:     (the frozen seed pipeline fed each bug's record).
SCHEMA_VERSION = 10

#: Default output file, kept at the repo root by CI so the perf trajectory
#: of the project lives beside the code that produced it.
DEFAULT_OUTPUT = "BENCH_simulation.json"

#: Presets making up the standard probe workload: two wide real cores, one
#: narrow in-order-ish core and one older design — the spread the detection
#: experiments sweep.
STANDARD_PRESETS = ("Skylake", "Broadwell", "Cedarview", "K8")
QUICK_PRESETS = ("Skylake", "Cedarview")

#: Step size used for every timed simulation (the smoke-scale default).
STEP_CYCLES = 512


def _standard_probes(quick: bool) -> list[Probe]:
    """The standard probe workload (deterministic smoke-scale probes)."""
    benchmarks = ["403.gcc"] if quick else ["403.gcc", "458.sjeng"]
    return build_probes(
        benchmarks,
        instructions_per_benchmark=9_000 if quick else 15_000,
        interval_size=3_000,
        max_simpoints_per_benchmark=2 if quick else 3,
        seed=7,
    )


def _assert_equivalent(fallback, native, context: str) -> None:
    """Fail loudly if the native kernel drifted from the fallback."""
    if fallback.cycles != native.cycles:
        raise AssertionError(
            f"{context}: cycle count diverged "
            f"(fallback {fallback.cycles}, native {native.cycles})"
        )
    if set(fallback.series.counters) != set(native.series.counters):
        raise AssertionError(f"{context}: counter name sets diverged")
    for name, values in fallback.series.counters.items():
        if not np.array_equal(values, native.series.counters[name]):
            raise AssertionError(f"{context}: counter {name!r} diverged")


def bench_native(probes: Sequence[Probe], quick: bool) -> dict:
    """Single-thread throughput: compiled native kernel vs Python fallback.

    The fallback side calls :func:`repro.coresim.simulate_batch_scalar`; the
    native side runs :func:`repro.coresim.simulate_trace`, so exactly the
    kernel dispatch users hit is what gets timed.  The library build and
    the per-trace column marshalling are primed outside the timed region
    (both are once-per-process/per-trace costs every real workload
    amortises the same way).  Every timed pair is
    asserted counter-bit-identical, so the reported speedup cannot come
    from computing something different.
    """
    from ..coresim.native import compiler_info, native_available
    from ..coresim.native.kernel import _native_trace_for

    if not native_available():
        return {
            "kernel": "native",
            "available": False,
            "reason": "no usable C compiler or build failed "
            "(see REPRO_NATIVE_CC in docs/PERFORMANCE.md)",
        }
    presets = QUICK_PRESETS if quick else STANDARD_PRESETS
    repeats = 1 if quick else 3
    instructions = sum(len(p.trace) for p in probes)
    # prime the per-trace native column marshalling (memoised by digest)
    for probe in probes:
        _native_trace_for(probe.decoded)
    per_preset = {}
    total_scalar = 0.0
    total_native = 0.0
    for preset in presets:
        config = core_microarch(preset)
        scalar_best = native_best = float("inf")
        for _ in range(repeats):
            scalar_elapsed = native_elapsed = 0.0
            for probe in probes:
                decoded = probe.decoded
                start = time.perf_counter()
                scalar = simulate_batch_scalar(
                    config, [decoded], step_cycles=STEP_CYCLES
                )[0]
                scalar_elapsed += time.perf_counter() - start
                start = time.perf_counter()
                native = simulate_trace(config, decoded, step_cycles=STEP_CYCLES)
                native_elapsed += time.perf_counter() - start
                _assert_equivalent(scalar, native, f"native:{preset}/{probe.name}")
            scalar_best = min(scalar_best, scalar_elapsed)
            native_best = min(native_best, native_elapsed)
        total_scalar += scalar_best
        total_native += native_best
        per_preset[preset] = {
            "scalar_seconds": round(scalar_best, 4),
            "native_seconds": round(native_best, 4),
            "speedup": round(scalar_best / native_best, 3),
            "native_instr_per_sec": round(instructions / native_best),
        }
    info = compiler_info() or {}
    return {
        "kernel": "native",
        "available": True,
        "compiler": {
            "path": info.get("path"),
            "version": info.get("version"),
        },
        "probes": len(probes),
        "instructions_per_pass": instructions,
        "presets": per_preset,
        "aggregate_speedup": round(total_scalar / total_native, 3),
        "scalar_instr_per_sec": round(len(presets) * instructions / total_scalar),
        "native_instr_per_sec": round(len(presets) * instructions / total_native),
        "counter_equivalence_checked": True,
    }


def run_benchmarks(quick: bool = False) -> dict:
    """Run the benchmark and return the report dict."""
    started = time.time()
    probes = _standard_probes(quick)
    report = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "simulation",
        "quick": quick,
        "native": bench_native(probes, quick),
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "total_seconds": None,  # filled below
    }
    report["total_seconds"] = round(time.time() - started, 1)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: fewer probes, presets and repeats",
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(quick=args.quick)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

    print(f"repro-bench ({'quick' if args.quick else 'full'}) -> {args.output}")
    native = report["native"]
    if native.get("available"):
        version = (native.get("compiler") or {}).get("version") or "unknown"
        print(
            f"  native: {native['aggregate_speedup']}x vs the Python fallback "
            f"({native['native_instr_per_sec']:,} instr/s, counter-equivalent, "
            f"{version})"
        )
    else:
        print("  native: unavailable (no C compiler; scalar fallback measured "
              "nothing)")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
