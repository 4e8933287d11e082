"""Regenerate the pinned golden artifacts.

Two files are produced:

``golden_series.json``
    Pinned counter-series digests of the frozen seed pipeline.

``counter_manifest.json``
    The authoritative **counter-name universe** per kernel: the union, over
    every microarchitecture preset plus one variant of each core bug type
    on :data:`BUG_PRESET`, of the counter names each kernel actually sampled
    on the golden trace.  The bug runs are what reach the serialising and
    extra-delay counters.  ``repro-lint``'s counter-contract checker
    compares this observed universe against the statically extracted
    emission sites, closing the loop between what the code *says* it counts
    and what a run *actually* produced.

One digest per microarchitecture preset, computed from the **frozen seed
pipeline** (``repro.coresim._reference``) fed each bug's hooks, on the
deterministic golden trace below, bug-free.  ``tests/test_differential.py``
then checks the live kernels against these digests: ``scalar`` (the Python
fallback, the same pipeline fed each bug's record) and ``native``.  Before
writing, this script verifies every live kernel against the freshly
computed reference digests, so a drifted kernel cannot be pinned.

Run this ONLY for a deliberate, reviewed change to simulation semantics::

    PYTHONPATH=src python tests/data/make_golden.py

and commit the refreshed JSON together with the change that motivated it.
"""

import hashlib
import json
import sys
from pathlib import Path

#: Sampling step used for every golden simulation.
STEP_CYCLES = 256

#: Golden trace shape: long enough to exercise multiple sample steps on
#: every preset, short enough to regenerate in under a minute.
TRACE_LENGTH = 1800

#: Preset that runs the first registry variant of every core bug type for
#: the counter manifest (the digests stay bug-free).
BUG_PRESET = "Skylake"


def golden_trace():
    """The deterministic golden trace (shared by script and tests)."""
    from repro.workloads import TraceGenerator, build_program, decode_trace, workload

    program = build_program(workload("403.gcc"), seed=11)
    return decode_trace(TraceGenerator(program, seed=12).generate(TRACE_LENGTH))


def series_digest(result) -> str:
    """Content digest of a SimulationResult's sampled counter series."""
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(f"cycles={result.cycles};instr={result.instructions};".encode())
    series = result.series
    hasher.update(f"step={series.step_cycles};".encode())
    for name in sorted(series.counters):
        hasher.update(name.encode())
        hasher.update(series.counters[name].astype("<f8").tobytes())
    hasher.update(b"|ipc|")
    hasher.update(series.ipc.astype("<f8").tobytes())
    return hasher.hexdigest()


def _observe(observed, config, trace, bug, kernels) -> str:
    """Reference digest of one run; records every kernel's counter names and
    refuses a live kernel that diverges from the reference.  *kernels* maps
    each live kernel's name to its batch simulator."""
    from repro.coresim._reference import reference_simulate_trace

    result = reference_simulate_trace(
        config, list(trace), bug=bug, step_cycles=STEP_CYCLES
    )
    digest = series_digest(result)
    observed["reference"].update(result.series.counters)
    for kernel, simulate in kernels.items():
        live_result = simulate(config, [trace], bug=bug, step_cycles=STEP_CYCLES)[0]
        observed[kernel].update(live_result.series.counters)
        live = series_digest(live_result)
        if live != digest:
            raise SystemExit(
                f"{config.name} bug={getattr(bug, 'name', None)}: {kernel} "
                f"kernel diverges from the reference (got {live}); fix the "
                "kernel before pinning"
            )
    return digest


def main() -> int:
    from repro.bugs.registry import core_bug_suite
    from repro.coresim import (
        native_available,
        simulate_batch_native,
        simulate_batch_scalar,
    )
    from repro.uarch import all_core_microarches, core_microarch

    kernels = {"scalar": simulate_batch_scalar}
    if native_available():
        kernels["native"] = simulate_batch_native
    else:
        print("WARNING: no C compiler found; native kernel NOT verified")
    trace = golden_trace()
    digests = {}
    observed: "dict[str, set]" = {name: set() for name in ["reference", *kernels]}
    for config in all_core_microarches():
        digests[config.name] = _observe(observed, config, trace, None, kernels)
        print(f"{config.name:14s} {digests[config.name]}")
    bug_config = core_microarch(BUG_PRESET)
    for bug_type, (bug, *_rest) in core_bug_suite().items():
        _observe(observed, bug_config, trace, bug, kernels)
        print(f"{BUG_PRESET:14s} {bug_type}")
    payload = {
        "comment": (
            "Golden counter-series digests of the frozen seed pipeline "
            "(bug-free, default trace). Regenerate ONLY via make_golden.py "
            "for a deliberate semantic change."
        ),
        "step_cycles": STEP_CYCLES,
        "trace_length": TRACE_LENGTH,
        "kernels_verified": list(kernels),
        "digests": dict(sorted(digests.items())),
    }
    out = Path(__file__).parent / "golden_series.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}")

    manifest = {
        "comment": (
            "Observed counter-name universe per kernel (union over every "
            "preset bug-free plus one variant of each core bug type on "
            f"{BUG_PRESET}, golden trace). Consumed by repro-lint's "
            "counter-contract checker. Regenerate via make_golden.py."
        ),
        "step_cycles": STEP_CYCLES,
        "trace_length": TRACE_LENGTH,
        "kernels": {name: sorted(names) for name, names in observed.items()},
    }
    manifest_out = Path(__file__).parent / "counter_manifest.json"
    with open(manifest_out, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    print(f"wrote {manifest_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
