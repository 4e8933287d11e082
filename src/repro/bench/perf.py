"""``repro-bench``: the tracked perf-benchmark harness.

Times the hot path of the reproduction at three layers and writes the
results to ``BENCH_simulation.json`` (schema below), establishing a perf
trajectory that successive PRs — and the CI perf-smoke job — can compare
against:

* ``single``   — single-thread simulation throughput on the *standard probe
  workload* (smoke-scale SimPoint probes across a representative preset
  mix), for both the optimized :func:`repro.coresim.simulate_trace` and the
  frozen pre-PR seed pipeline
  (:func:`repro.coresim._reference.reference_simulate_trace`).  The headline
  number is ``aggregate_speedup`` = total seed time / total optimized time.
  Counter equivalence is asserted on every timed pair, so the harness cannot
  report a speedup obtained by computing something different.
* ``engine``   — parallel batch throughput through a persistent
  :class:`~repro.runtime.JobEngine`, run as two consecutive batches to
  exercise pool reuse, under both the cost-aware ``ljf`` scheduler and the
  seed-style ``uniform`` scheduler.  ``--backend SPEC`` points this section
  at any execution backend (``local:N`` by default; e.g. ``subprocess:N``
  to time the worker wire protocol) and the chosen spec is recorded in a
  ``backend`` column of every scheduler row.
* ``cluster``  — policy A/B through the elastic ``cluster:N`` backend
  (:mod:`repro.cluster`): the same batch under every dispatch policy
  (``fifo``/``ljf``/``edd``/``suspend``) with per-policy makespan, requeue
  and worker-lifecycle metrics, plus *asserted* dispatch-order invariants
  (ljf dispatches costs non-increasing, edd follows deadlines, suspend
  never dispatches a lower priority while a higher one is queued or in
  flight).  Makespans and deltas are recorded-not-gated.
* ``store``    — cold simulate-and-fill versus warm replay against a
  :class:`~repro.runtime.ResultStore`.
* ``serve``    — end-to-end verdict latency through the ``repro-serve``
  detection daemon (:mod:`repro.serve`): a model is trained once, a daemon
  is started in-process, and probe-batch requests are timed over the real
  socket protocol — one cold pass (simulating) and several warm passes
  (served from the resident overlay, ``executed == 0`` asserted).  The
  headline numbers are warm p50/p99 per-verdict latency and verdicts/sec,
  recorded (not gated) by the perf ratchet.
* ``native``   — single-thread throughput of the compiled C **native
  kernel** (:mod:`repro.coresim.native`) versus the scalar kernel on the
  standard probe workload, with the active compiler name/version recorded.
  Counter equivalence is asserted on every timed pair and the aggregate
  scalar/native ratio is gated (floor 2.0x) by the perf ratchet.  When no
  compiler is available the section records ``available: false`` instead
  of failing — the fallback path is the product behaviour being measured.

``--quick`` shrinks every dimension for CI smoke runs (roughly 15 s);
the default sizing is calibrated for a laptop minute or two.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from typing import Sequence

import numpy as np

from ..bugs.core_bugs import SerializeOpcode
from ..coresim import simulate_trace
from ..coresim._reference import reference_simulate_trace
from ..detect.probe import Probe, build_probes
from ..runtime import JobEngine, ResultStore, SimulationJob, TraceRegistry
from ..uarch import core_microarch
from ..workloads.isa import Opcode

#: Output schema version; bump when the JSON layout changes.
#: v2: engine section gained a ``backend`` spec column per scheduler row.
#: v3: new ``batch`` section (vector-kernel batched sweeps) and a
#:     ``kernel`` column on the single/batch rows.
#: v4: new ``serve`` section (repro-serve daemon verdict latency: warm
#:     p50/p99 ms and verdicts/sec over the socket protocol).
#: v5: new ``native`` section (compiled C kernel vs scalar on the standard
#:     probe workload, compiler name/version recorded; ``available: false``
#:     when no compiler is found).
#: v6: new ``cluster`` section (elastic ``cluster:N`` backend policy A/B:
#:     per-policy makespan/requeue metrics, deltas vs fifo, and asserted
#:     dispatch-order invariants for ljf/edd/suspend).
#: v7: new ``mixes`` section (multi-program mix build + memory-design sweep
#:     throughput, per-mix LLC MPKI on the reference design, digest-stability
#:     asserted on every build).
#: v8: ``batch`` section removed with the numpy vector kernel it timed.
SCHEMA_VERSION = 8

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


def _assert_equivalent(reference, optimized, context: str) -> None:
    """Fail loudly if the optimized simulator drifted from the seed."""
    if reference.cycles != optimized.cycles:
        raise AssertionError(
            f"{context}: cycle count diverged "
            f"(seed {reference.cycles}, optimized {optimized.cycles})"
        )
    ref_counters = reference.series.counters
    opt_counters = optimized.series.counters
    if set(ref_counters) != set(opt_counters):
        raise AssertionError(f"{context}: counter name sets diverged")
    for name, ref_values in ref_counters.items():
        if not np.array_equal(ref_values, opt_counters[name]):
            raise AssertionError(f"{context}: counter {name!r} diverged")


def bench_single(probes: Sequence[Probe], quick: bool) -> dict:
    """Single-thread throughput: optimized pipeline vs frozen seed pipeline.

    The optimized side is pinned to the scalar kernel, so ``REPRO_KERNEL``
    cannot swap the C loop into the row labelled ``scalar``.
    """
    presets = QUICK_PRESETS if quick else STANDARD_PRESETS
    repeats = 1 if quick else 3
    per_preset = {}
    total_ref = 0.0
    total_opt = 0.0
    instructions = sum(len(p.trace) for p in probes)
    for preset in presets:
        config = core_microarch(preset)
        ref_best = opt_best = float("inf")
        for _ in range(repeats):
            ref_elapsed = opt_elapsed = 0.0
            for probe in probes:
                start = time.perf_counter()
                reference = reference_simulate_trace(
                    config, probe.trace, step_cycles=STEP_CYCLES
                )
                ref_elapsed += time.perf_counter() - start
                decoded = probe.decoded
                start = time.perf_counter()
                optimized = simulate_trace(
                    config, decoded, step_cycles=STEP_CYCLES, kernel="scalar"
                )
                opt_elapsed += time.perf_counter() - start
                _assert_equivalent(
                    reference, optimized, f"{preset}/{probe.name}"
                )
            ref_best = min(ref_best, ref_elapsed)
            opt_best = min(opt_best, opt_elapsed)
        total_ref += ref_best
        total_opt += opt_best
        per_preset[preset] = {
            "seed_seconds": round(ref_best, 4),
            "optimized_seconds": round(opt_best, 4),
            "speedup": round(ref_best / opt_best, 3),
            "optimized_instr_per_sec": round(instructions / opt_best),
        }
    return {
        "kernel": "scalar",
        "probes": len(probes),
        "instructions_per_pass": instructions,
        "presets": per_preset,
        "aggregate_speedup": round(total_ref / total_opt, 3),
        "seed_instr_per_sec": round(len(presets) * instructions / total_ref),
        "optimized_instr_per_sec": round(len(presets) * instructions / total_opt),
        "counter_equivalence_checked": True,
    }


def bench_native(probes: Sequence[Probe], quick: bool) -> dict:
    """Single-thread throughput: compiled native kernel vs scalar kernel.

    Both sides run through :func:`repro.coresim.simulate_trace` with an
    explicit ``kernel=`` so exactly the kernel dispatch users hit is what
    gets timed.  The library build and the per-trace column marshalling are
    primed outside the timed region (both are once-per-process/per-trace
    costs every real workload amortises the same way).  Every timed pair is
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
                scalar = simulate_trace(
                    config, decoded, step_cycles=STEP_CYCLES, kernel="scalar"
                )
                scalar_elapsed += time.perf_counter() - start
                start = time.perf_counter()
                native = simulate_trace(
                    config, decoded, step_cycles=STEP_CYCLES, kernel="native"
                )
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


def _engine_jobs(
    probes: Sequence[Probe], registry: TraceRegistry, quick: bool
) -> list[SimulationJob]:
    presets = QUICK_PRESETS if quick else STANDARD_PRESETS
    bugs = [None, SerializeOpcode(Opcode.XOR)]
    return [
        SimulationJob(
            study="core",
            config=core_microarch(preset),
            bug=bug,
            trace_id=registry.register(probe.decoded),
            step=STEP_CYCLES,
        )
        for preset in presets
        for bug in bugs
        for probe in probes
    ]


def bench_engine(
    probes: Sequence[Probe], jobs: int, quick: bool, backend: str | None = None
) -> dict:
    """Batch throughput through a persistent worker set, per scheduler."""
    registry = TraceRegistry()
    batch = _engine_jobs(probes, registry, quick)
    half = len(batch) // 2
    requested = backend or ("serial" if jobs <= 1 else f"local:{jobs}")
    spec = requested
    workers = jobs
    schedulers = {}
    for scheduler in ("ljf", "uniform"):
        with JobEngine(backend=requested, scheduler=scheduler) as engine:
            # Resolved slot count and canonical spec of the actual backend
            # (e.g. bare "subprocess" canonicalizes to "subprocess:2").
            workers = engine.jobs
            spec = engine.backend.spec
            start = time.perf_counter()
            engine.run(batch[:half], registry.traces)
            first_elapsed = time.perf_counter() - start
            start = time.perf_counter()
            engine.run(batch[half:], registry.traces)
            second_elapsed = time.perf_counter() - start
            stats = engine.stats
            schedulers[scheduler] = {
                "backend": engine.backend.spec,
                "first_batch_seconds": round(first_elapsed, 4),
                "reused_pool_batch_seconds": round(second_elapsed, 4),
                "jobs_per_sec": round(len(batch) / (first_elapsed + second_elapsed), 2),
                "chunks": stats.chunks,
                "pool_creates": stats.pool_creates,
                "pool_reuses": stats.pool_reuses,
                "traces_shipped": stats.traces_shipped,
                "trace_deltas": stats.trace_deltas,
                "straggler_jobs": stats.straggler_jobs,
            }
    return {
        "jobs": len(batch),
        "workers": workers,
        "backend": spec,
        "schedulers": schedulers,
    }


#: Worker budget of the cluster policy A/B benchmark.
CLUSTER_WORKERS = 2

#: Liveness tuning for the benchmark's short-lived clusters: a fast
#: heartbeat keeps spawn/teardown cheap without touching the canonical
#: defaults the real backend ships with.
CLUSTER_HEARTBEAT = 0.2


def _drive_cluster_policy(
    policy: str, chunks: "list[list]", traces, contexts: "list[dict] | None" = None
) -> "list[dict]":
    """Run *chunks* through a one-worker cluster and return its dispatch log.

    One worker serializes dispatch, and the engine-free direct drive queues
    every ticket before draining — so the log is the pure policy order,
    deterministic and assertable.
    """
    from ..cluster.backend import ClusterBackend

    backend = ClusterBackend(1, policy, heartbeat=CLUSTER_HEARTBEAT)
    try:
        backend.start(traces)
        for tag, chunk in enumerate(chunks):
            if contexts is not None:
                backend.submit_context(**contexts[tag])
            backend.submit(tag, chunk, {})
        for tag, (results, failure) in backend.drain():
            if failure is not None:
                raise AssertionError(
                    f"cluster bench chunk {tag} failed under {policy}: "
                    f"{failure.message}"
                )
        return list(backend.dispatch_log)
    finally:
        backend.close()


def _cluster_policy_checks(probes: Sequence[Probe]) -> dict:
    """Assert the dispatch-order invariant of every non-fifo policy.

    Returns the verified invariants (all true — a violated invariant
    raises, failing the bench run outright like the serve section's
    ``executed == 0`` assert).
    """
    registry = TraceRegistry()
    job = SimulationJob(
        study="core",
        config=core_microarch(QUICK_PRESETS[0]),
        bug=None,
        trace_id=registry.register(probes[0].decoded),
        step=STEP_CYCLES,
    )
    traces = registry.traces
    # Four single-job chunks; scheduling metadata (not cost) differentiates
    # them for the edd/suspend checks.
    single = [[(i, job)] for i in range(4)]

    # fifo: submission order.
    order = [entry["tag"] for entry in _drive_cluster_policy("fifo", single, traces)]
    if order != [0, 1, 2, 3]:
        raise AssertionError(f"fifo dispatched {order}, expected submission order")

    # ljf: non-increasing cost (chunk sizes 1/3/2 make the costs distinct).
    sized = [[(0, job)], [(1, job), (2, job), (3, job)], [(4, job), (5, job)]]
    log = _drive_cluster_policy("ljf", sized, traces)
    costs = [entry["cost"] for entry in log]
    if costs != sorted(costs, reverse=True):
        raise AssertionError(f"ljf dispatched costs {costs}, expected non-increasing")

    # edd: earliest deadline first.
    deadlines = [4.0, 1.0, 3.0, 2.0]
    log = _drive_cluster_policy(
        "edd", single, traces, contexts=[{"deadline": d} for d in deadlines]
    )
    order = [entry["tag"] for entry in log]
    if order != [1, 3, 2, 0]:
        raise AssertionError(f"edd dispatched {order}, expected deadline order [1, 3, 2, 0]")

    # suspend: no lower-priority dispatch while higher priority is queued
    # or in flight.
    priorities = [0, 1, 0, 1]
    log = _drive_cluster_policy(
        "suspend", single, traces, contexts=[{"priority": p} for p in priorities]
    )
    order = [entry["tag"] for entry in log]
    if order != [1, 3, 0, 2]:
        raise AssertionError(
            f"suspend dispatched {order}, expected priority fence [1, 3, 0, 2]"
        )
    return {
        "fifo_submission_order": True,
        "ljf_nonincreasing_cost": True,
        "edd_deadline_order": True,
        "suspend_priority_fence": True,
    }


def bench_cluster(probes: Sequence[Probe], quick: bool) -> dict:
    """Policy A/B through the elastic ``cluster:N`` backend.

    Two halves: deterministic dispatch-order invariants (asserted, one
    worker — see :func:`_cluster_policy_checks`) and a makespan A/B of the
    same batch under every policy at :data:`CLUSTER_WORKERS` workers, with
    the liveness counters recorded so a requeue-happy run is visible in the
    report.  Makespans are recorded-not-gated: policy deltas on a healthy
    two-worker run are scheduling noise, not a perf claim — the interesting
    columns are the requeue/respawn counts (zero on a healthy run) and the
    asserted invariants.
    """
    from ..cluster.backend import ClusterBackend
    from ..cluster.policies import POLICIES

    checks = _cluster_policy_checks(probes)

    registry = TraceRegistry()
    batch = _engine_jobs(probes, registry, quick)
    policies = {}
    for name in POLICIES:
        backend = ClusterBackend(
            CLUSTER_WORKERS, name, heartbeat=CLUSTER_HEARTBEAT
        )
        with JobEngine(backend=backend) as engine:
            start = time.perf_counter()
            results = engine.run(batch, registry.traces)
            makespan = time.perf_counter() - start
            stats = engine.stats
            if len(results) != len(batch):
                raise AssertionError(
                    f"cluster[{name}] returned {len(results)}/{len(batch)} results"
                )
            policies[name] = {
                "makespan_seconds": round(makespan, 4),
                "jobs_per_sec": round(len(batch) / makespan, 2) if makespan else None,
                "chunks": stats.chunks,
                "chunks_requeued": stats.chunks_requeued,
                "workers_spawned": stats.workers_spawned,
                "workers_lost": stats.workers_lost,
                "workers_respawned": stats.workers_respawned,
            }
    fifo_makespan = policies["fifo"]["makespan_seconds"]
    for name, row in policies.items():
        row["speedup_vs_fifo"] = (
            round(fifo_makespan / row["makespan_seconds"], 3)
            if row["makespan_seconds"]
            else None
        )
    return {
        "jobs": len(batch),
        "workers": CLUSTER_WORKERS,
        "policy_checks": checks,
        "policies": policies,
    }


def bench_store(probes: Sequence[Probe], quick: bool) -> dict:
    """Cold simulate-and-fill vs warm replay against a persistent store."""
    registry = TraceRegistry()
    batch = _engine_jobs(probes, registry, quick)
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        store = ResultStore(os.path.join(tmp, "store"))
        with JobEngine(jobs=1, store=store) as cold:
            start = time.perf_counter()
            cold.run(batch, registry.traces)
            cold_elapsed = time.perf_counter() - start
            cold_executed = cold.stats.executed
        with JobEngine(jobs=1, store=store) as warm:
            start = time.perf_counter()
            warm.run(batch, registry.traces)
            warm_elapsed = time.perf_counter() - start
            warm_hits = warm.stats.store_hits
    return {
        "jobs": len(batch),
        "cold_seconds": round(cold_elapsed, 4),
        "warm_seconds": round(warm_elapsed, 4),
        "replay_speedup": round(cold_elapsed / warm_elapsed, 1)
        if warm_elapsed
        else None,
        "cold_executed": cold_executed,
        "warm_store_hits": warm_hits,
    }


#: Warm probe-batch passes timed by the serve benchmark.
SERVE_WARM_ROUNDS = 5
SERVE_WARM_ROUNDS_QUICK = 3


def _latency_stats(latencies_ms: "list[float]", seconds: float) -> dict:
    values = np.asarray(latencies_ms, dtype=float)
    return {
        "verdicts": int(values.size),
        "seconds": round(seconds, 4),
        "p50_ms": round(float(np.percentile(values, 50)), 3),
        "p99_ms": round(float(np.percentile(values, 99)), 3),
        "verdicts_per_sec": round(values.size / seconds, 2) if seconds else None,
    }


def bench_serve(quick: bool) -> dict:
    """End-to-end verdict latency through a resident ``repro-serve`` daemon.

    Trains a model once (the train-once cost is reported, not part of the
    serving numbers), starts the daemon in-process, and times probe-batch
    requests over the real socket protocol.  The cold pass simulates; the
    warm passes must be served entirely from the resident overlay
    (``executed == 0`` is asserted, mirroring the store benchmark's warm
    replay) — so the warm latencies measure framing + dedup + scoring only.
    """
    from ..bugs.registry import core_bug_suite
    from ..experiments.common import ExperimentContext
    from ..serve import DetectionServer, ServeClient, train_model

    train_start = time.perf_counter()
    with ExperimentContext(scale="smoke") as context:
        probes = context.probes[:2] if quick else None
        setup = context.detection_setup(probes=probes)
        model = train_model(setup, name="bench")
    train_seconds = time.perf_counter() - train_start

    presets = QUICK_PRESETS if quick else STANDARD_PRESETS
    suite = core_bug_suite()
    bugs = [None] + [variants[0] for _, variants in sorted(suite.items())]
    items = [(core_microarch(preset), bug) for preset in presets for bug in bugs]
    rounds = SERVE_WARM_ROUNDS_QUICK if quick else SERVE_WARM_ROUNDS

    def timed_pass(client: ServeClient) -> "tuple[list[float], float, int]":
        # One single-item request per design-under-test: each latency sample
        # is a full request→verdict round trip over the socket (streamed
        # frames inside one big batch would arrive buffered back-to-back and
        # undercount).  The simulation work is identical either way — every
        # item is its own batch.
        latencies = []
        executed = 0
        start = time.perf_counter()
        for item in items:
            item_start = time.perf_counter()
            for _ in client.probe_batch([item]):
                pass
            latencies.append((time.perf_counter() - item_start) * 1000.0)
            executed += client.last_batch["executed"]
        return latencies, time.perf_counter() - start, executed

    with DetectionServer(model).start() as server:
        host, port = server.address
        with ServeClient(host, port) as client:
            cold_latencies, cold_seconds, cold_executed = timed_pass(client)
            warm_latencies: list[float] = []
            warm_executed = 0
            warm_start = time.perf_counter()
            for _ in range(rounds):
                latencies, _, executed = timed_pass(client)
                warm_latencies.extend(latencies)
                warm_executed += executed
            warm_seconds = time.perf_counter() - warm_start
    if warm_executed:
        raise AssertionError(
            f"serve bench warm passes executed {warm_executed} simulations "
            "(expected 0: every job must be served from the resident overlay)"
        )
    cold = _latency_stats(cold_latencies, cold_seconds)
    cold["executed"] = cold_executed
    warm = _latency_stats(warm_latencies, warm_seconds)
    warm["executed"] = warm_executed
    warm["rounds"] = rounds
    return {
        "model_probes": len(model.probes),
        "training_seconds": round(train_seconds, 2),
        "items_per_batch": len(items),
        "cold": cold,
        "warm": warm,
    }


#: Mix benchmark sizing: which mixes, how long, which memory designs.
MIX_BENCH_INSTRUCTIONS = 24_000
MIX_BENCH_INSTRUCTIONS_QUICK = 6_000
MIX_BENCH_PRESETS = ("Skylake-mem", "Nehalem-mem")


def bench_mixes(quick: bool) -> dict:
    """Multi-program mix build and memory-design sweep throughput.

    Builds each mix twice (digest stability is asserted — the contract the
    content-addressed store depends on), then sweeps the full interleaved
    stream over the memory design presets with the memory-hierarchy
    simulator, reporting build and sweep throughput plus per-mix LLC MPKI on
    the reference design.
    """
    from ..memsim import llc_mpki, simulate_memory_trace
    from ..uarch.memory_presets import memory_microarch
    from ..workloads.mixes import DEFAULT_MIXES, build_mix

    specs = (
        (DEFAULT_MIXES[0], DEFAULT_MIXES[3], DEFAULT_MIXES[6])
        if quick else DEFAULT_MIXES
    )
    instructions = MIX_BENCH_INSTRUCTIONS_QUICK if quick else MIX_BENCH_INSTRUCTIONS
    configs = [memory_microarch(name) for name in MIX_BENCH_PRESETS]

    build_seconds = 0.0
    sweep_seconds = 0.0
    built_instructions = 0
    swept_instructions = 0
    per_mix = {}
    for spec in specs:
        start = time.perf_counter()
        mix = build_mix(spec, instructions=instructions, seed=7)
        build_seconds += time.perf_counter() - start
        rebuilt = build_mix(spec, instructions=instructions, seed=7)
        if mix.digest != rebuilt.digest:
            raise AssertionError(
                f"mix {spec.name!r} digest unstable across builds "
                f"({mix.digest} != {rebuilt.digest})"
            )
        built_instructions += len(mix)
        mpki = None
        start = time.perf_counter()
        for config in configs:
            result = simulate_memory_trace(config, mix.decoded)
            if config.name == MIX_BENCH_PRESETS[0]:
                mpki = llc_mpki(result)
        sweep_seconds += time.perf_counter() - start
        swept_instructions += len(mix) * len(configs)
        per_mix[mix.name] = {
            "components": [c.name for c in mix.components],
            "instructions": len(mix),
            "llc_mpki": round(mpki, 3),
            "digest": mix.digest,
        }
    return {
        "mixes": len(specs),
        "presets": list(MIX_BENCH_PRESETS),
        "instructions_per_mix": instructions,
        "build_seconds": round(build_seconds, 4),
        "build_instr_per_sec": round(built_instructions / build_seconds),
        "sweep_seconds": round(sweep_seconds, 4),
        "sweep_instr_per_sec": round(swept_instructions / sweep_seconds),
        "digest_stability_checked": True,
        "per_mix": per_mix,
    }


def run_benchmarks(
    quick: bool = False, jobs: int = 2, backend: str | None = None
) -> dict:
    """Run every benchmark section and return the report dict."""
    started = time.time()
    probes = _standard_probes(quick)
    report = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "simulation",
        "quick": quick,
        "single": bench_single(probes, quick),
        "native": bench_native(probes, quick),
        "engine": bench_engine(probes, jobs, quick, backend=backend),
        "cluster": bench_cluster(probes, quick),
        "store": bench_store(probes, quick),
        "serve": bench_serve(quick),
        "mixes": bench_mixes(quick),
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
        "--jobs", type=int, default=None,
        help="worker processes for the engine benchmark (default 2); "
             "mutually exclusive with --backend",
    )
    parser.add_argument(
        "--backend", default=None,
        help="execution backend spec for the engine benchmark "
             "(default: local:JOBS; e.g. subprocess:2 times the worker "
             "wire protocol — see docs/RUNTIME.md)",
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    if args.backend is not None and args.jobs is not None:
        parser.error("--jobs and --backend are mutually exclusive "
                     "(--jobs N is sugar for --backend local:N)")

    report = run_benchmarks(
        quick=args.quick, jobs=max(1, args.jobs or 2), backend=args.backend
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

    single = report["single"]
    engine = report["engine"]["schedulers"]
    store = report["store"]
    print(f"repro-bench ({'quick' if args.quick else 'full'}) -> {args.output}")
    print(
        f"  single-thread: {single['aggregate_speedup']}x vs seed pipeline "
        f"({single['optimized_instr_per_sec']:,} instr/s, counter-equivalent)"
    )
    native = report["native"]
    if native.get("available"):
        version = (native.get("compiler") or {}).get("version") or "unknown"
        print(
            f"  native: {native['aggregate_speedup']}x vs scalar kernel "
            f"({native['native_instr_per_sec']:,} instr/s, counter-equivalent, "
            f"{version})"
        )
    else:
        print("  native: unavailable (no C compiler; scalar fallback measured "
              "nothing)")
    for name, row in engine.items():
        print(
            f"  engine[{name}@{row['backend']}]: {row['jobs_per_sec']} jobs/s, "
            f"{row['chunks']} chunks, straggler={row['straggler_jobs']} jobs, "
            f"pool reuse {row['pool_reuses']}/{row['pool_creates'] + row['pool_reuses']}"
        )
    cluster = report["cluster"]
    for name, row in cluster["policies"].items():
        print(
            f"  cluster[{name}@{cluster['workers']} workers]: "
            f"{row['makespan_seconds']}s makespan "
            f"({row['speedup_vs_fifo']}x vs fifo), "
            f"requeued={row['chunks_requeued']} "
            f"respawned={row['workers_respawned']}"
        )
    print(
        f"  store replay: {store['replay_speedup']}x "
        f"({store['warm_store_hits']} hits in {store['warm_seconds']}s)"
    )
    serve = report["serve"]
    print(
        f"  serve[warm]: {serve['warm']['p50_ms']} ms p50 / "
        f"{serve['warm']['p99_ms']} ms p99 per verdict, "
        f"{serve['warm']['verdicts_per_sec']} verdicts/s "
        f"(executed={serve['warm']['executed']}, "
        f"{serve['model_probes']} probes resident)"
    )
    mixes = report["mixes"]
    print(
        f"  mixes[{mixes['mixes']}x{mixes['instructions_per_mix']} instrs]: "
        f"build {mixes['build_instr_per_sec']:,} instr/s, sweep "
        f"{mixes['sweep_instr_per_sec']:,} instr/s over "
        f"{len(mixes['presets'])} designs (digest-stable)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
