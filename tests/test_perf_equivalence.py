"""Golden counter-equivalence suite for the simulation paths.

The default path (the native kernel where a compiler exists, else the
Python fallback, which reads each bug's record) must be *bit-identical* to
the frozen seed pipeline of :mod:`repro.coresim._reference` fed each bug's
own hooks: same cycle counts, same sampled counter names and same sampled
values, for every microarchitecture preset and under every class of
injected bug.  These tests are the contract that lets the kernels keep
changing; see docs/PERFORMANCE.md.
"""

import pickle

import numpy as np
import pytest

from repro.bugs.core_bugs import StoresToLineDelay
from repro.bugs.registry import core_bug_suite
from repro.coresim import simulate_trace
from repro.coresim._reference import ReferenceO3Pipeline, reference_simulate_trace
from repro.coresim.hooks import CoreBugModel, RecordHooks
from repro.detect.probe import build_probes
from repro.memsim import simulate_memory_trace
from repro.runtime import JobEngine, SimulationJob, TraceRegistry
from repro.uarch import all_core_microarches, core_microarch, memory_microarch
from repro.workloads import (
    DecodedTrace,
    MicroOp,
    Opcode,
    TraceGenerator,
    build_program,
    decode_trace,
    workload,
)


def _assert_identical_series(a, b, context=""):
    assert a.step_cycles == b.step_cycles, context
    assert a.names == b.names, (context, set(a.names) ^ set(b.names))
    assert np.array_equal(a.ipc, b.ipc), context
    for name, row, other in zip(a.names, a.values, b.values):
        assert np.array_equal(row, other), (context, name)


def _assert_identical_results(a, b, context=""):
    assert a.cycles == b.cycles, context
    assert a.instructions == b.instructions, context
    _assert_identical_series(a.series, b.series, context)


@pytest.fixture(scope="module")
def sjeng_trace():
    program = build_program(workload("458.sjeng"), seed=5)
    return TraceGenerator(program, seed=6).generate(2500)


class TestDecodedTrace:
    def test_round_trips_through_pickle(self, gcc_trace):
        decoded = decode_trace(gcc_trace)
        clone = pickle.loads(pickle.dumps(decoded))
        assert clone.uops == list(gcc_trace)
        assert clone.digest == decoded.digest

    def test_pickles_smaller_than_object_list(self, gcc_trace):
        decoded = decode_trace(gcc_trace)
        assert len(pickle.dumps(decoded)) < len(pickle.dumps(list(gcc_trace))) / 1.5

    def test_decode_is_memoised_by_identity(self, gcc_trace):
        assert decode_trace(gcc_trace) is decode_trace(gcc_trace)
        assert decode_trace(list(gcc_trace)) is not decode_trace(gcc_trace)

    def test_optional_field_edge_cases_round_trip(self):
        odd = [
            MicroOp(opcode=Opcode.LOAD, srcs=(), dest=0, pc=0, address=0),
            MicroOp(opcode=Opcode.BRANCH, srcs=(5, 3), dest=None, pc=2**40,
                    taken=False, target=-8, indirect=True),
            MicroOp(opcode=Opcode.NOP, srcs=(), dest=None, pc=4, size=16,
                    block_id=9),
        ]
        clone = pickle.loads(pickle.dumps(decode_trace(odd)))
        assert clone.uops == odd

    def test_sequence_protocol(self, gcc_trace):
        decoded = decode_trace(gcc_trace)
        assert len(decoded) == len(gcc_trace)
        assert decoded[0] == gcc_trace[0]
        assert list(decoded)[:5] == gcc_trace[:5]

    def test_simulation_identical_for_decoded_and_legacy_input(
        self, skylake, gcc_trace
    ):
        legacy = simulate_trace(skylake, list(gcc_trace[:1500]), step_cycles=256)
        decoded = simulate_trace(
            skylake, decode_trace(gcc_trace[:1500]), step_cycles=256
        )
        shipped = simulate_trace(
            skylake,
            pickle.loads(pickle.dumps(decode_trace(gcc_trace[:1500]))),
            step_cycles=256,
        )
        _assert_identical_results(legacy, decoded, "decoded-vs-legacy")
        _assert_identical_results(legacy, shipped, "shipped-vs-legacy")


class TestGoldenEquivalence:
    """The default path vs the frozen seed fed the bugs' hooks, bit for bit."""

    def test_every_preset_bug_free(self, gcc_trace):
        trace = gcc_trace[:1800]
        for config in all_core_microarches():
            seed = reference_simulate_trace(config, trace, step_cycles=256)
            optimized = simulate_trace(config, trace, step_cycles=256)
            _assert_identical_results(seed, optimized, config.name)

    @pytest.mark.parametrize("preset", ["Skylake", "Cedarview"])
    def test_every_bug_type(self, preset, gcc_trace):
        trace = gcc_trace[:1500]
        config = core_microarch(preset)
        suite = core_bug_suite(max_variants_per_type=2)
        assert len(suite) == 14
        for variants in suite.values():
            for bug in variants:
                seed = reference_simulate_trace(
                    config, trace, bug=bug, step_cycles=256
                )
                optimized = simulate_trace(config, trace, bug=bug, step_cycles=256)
                _assert_identical_results(seed, optimized, f"{preset}/{bug.name}")

    def test_second_workload_and_step_size(self, sjeng_trace):
        for preset in ("Broadwell", "Silvermont", "Jaguar"):
            config = core_microarch(preset)
            seed = reference_simulate_trace(config, sjeng_trace, step_cycles=512)
            optimized = simulate_trace(config, sjeng_trace, step_cycles=512)
            _assert_identical_results(seed, optimized, preset)

    def test_no_warmup_path(self, skylake, gcc_trace):
        trace = gcc_trace[:1200]
        seed = reference_simulate_trace(
            skylake, trace, step_cycles=256, warmup=False
        )
        optimized = simulate_trace(skylake, trace, step_cycles=256, warmup=False)
        _assert_identical_results(seed, optimized, "no-warmup")

    def test_warmup_state_matches_seed(self, skylake, gcc_trace):
        trace = gcc_trace[:1500]
        seed_pipeline = ReferenceO3Pipeline(skylake, step_cycles=256)
        seed_pipeline.warmup(list(trace))
        _assert_identical_series(
            seed_pipeline.run(list(trace)),
            simulate_trace(skylake, decode_trace(trace), step_cycles=256).series,
            "warmup",
        )

    def test_cumulative_counters_after_run(self, skylake, gcc_trace):
        """Served through :class:`RecordHooks`, a bug's record leaves the
        seed pipeline in the state the bug's own hooks leave it."""
        trace = gcc_trace[:1500]
        bug = StoresToLineDelay(2, 12)
        hooked = ReferenceO3Pipeline(skylake, bug=bug, step_cycles=256)
        hooked.run(list(trace))
        bug.on_simulation_start(skylake)
        hooks = RecordHooks(bug, bug.compile(decode_trace(trace)))
        served = ReferenceO3Pipeline(skylake, bug=hooks, step_cycles=256)
        served.run(RecordHooks.indexed(trace))
        assert hooked._cumulative_counters() == served._cumulative_counters()
        assert hooked._cumulative_counters()["bug.extra_delay_cycles"] > 0

    def test_stateful_hook_still_called_per_dispatch(self, skylake, gcc_trace):
        """The seed pipeline calls a dispatch hook exactly once per dynamic
        instruction: the property that lets a bug's prefix-dependent delays
        compile to one per-uop column."""

        class CountingDelay(CoreBugModel):
            name = "counting"

            def __init__(self):
                self.calls = 0

            def extra_issue_delay(self, uop, context):
                self.calls += 1
                return 0

        bug = CountingDelay()
        reference_simulate_trace(skylake, gcc_trace[:800], bug=bug, step_cycles=256)
        assert bug.calls == 800

    def test_memory_study_decoded_equivalence(self, gcc_trace):
        from repro.bugs.memory_bugs import memory_bug_suite

        config = memory_microarch("Skylake-mem")
        bug_sample = [None] + [
            variants[0] for variants in memory_bug_suite(1).values()
        ][:3]
        for bug in bug_sample:
            legacy = simulate_memory_trace(
                config, list(gcc_trace[:2000]), bug=bug, step_instructions=500
            )
            decoded = simulate_memory_trace(
                config,
                pickle.loads(pickle.dumps(decode_trace(gcc_trace[:2000]))),
                bug=bug,
                step_instructions=500,
            )
            context = f"memsim/{getattr(bug, 'name', 'bug-free')}"
            assert legacy.cycles == decoded.cycles, context
            assert legacy.amat == decoded.amat, context
            _assert_identical_series(legacy.series, decoded.series, context)


class TestPersistentPoolDeterminism:
    """Pool reuse across batches must not change any result."""

    @pytest.fixture()
    def registry_and_traces(self, gcc_program):
        registry = TraceRegistry()
        first = TraceGenerator(gcc_program, seed=21).generate(1200)
        second = TraceGenerator(gcc_program, seed=22).generate(1200)
        ids = [
            registry.register(decode_trace(first)),
            registry.register(decode_trace(second)),
        ]
        return registry, ids

    def _batch(self, trace_id, configs=("Skylake", "K8")):
        from repro.bugs.core_bugs import SerializeOpcode

        return [
            SimulationJob(study="core", config=core_microarch(name), bug=bug,
                          trace_id=trace_id, step=256)
            for name in configs
            for bug in (None, SerializeOpcode(Opcode.XOR))
        ]

    def test_pool_reuse_matches_serial_across_batches(self, registry_and_traces):
        registry, (first_id, second_id) = registry_and_traces
        batches = [
            self._batch(first_id),
            self._batch(second_id),  # introduces a new trace via chunk deltas
            self._batch(first_id) + self._batch(second_id),
        ]
        serial = JobEngine(jobs=1)
        with JobEngine(jobs=2, chunk_size=1) as persistent:
            for batch in batches:
                expected = serial.run(batch, registry.traces)
                actual = persistent.run(batch, registry.traces)
                for a, b in zip(expected, actual):
                    assert a.cycles == b.cycles
                    _assert_identical_series(a.series, b.series)
            stats = persistent.stats
            # Every batch either reused the pool or (re)created it via the
            # delta-rebase policy; at least one batch ran on a reused pool.
            assert stats.pool_creates + stats.pool_reuses == len(batches)
            assert stats.pool_reuses >= 1
            assert stats.trace_deltas > 0  # second trace travelled as a delta

    def test_rerun_on_same_pool_is_identical(self, registry_and_traces):
        registry, (first_id, _) = registry_and_traces
        batch = self._batch(first_id)
        with JobEngine(jobs=2, chunk_size=2) as engine:
            first = engine.run(batch, registry.traces)
            second = engine.run(batch, registry.traces)
        for a, b in zip(first, second):
            assert a.cycles == b.cycles
            _assert_identical_series(a.series, b.series)

    def test_heavy_delta_traffic_triggers_pool_rebase(self, registry_and_traces):
        registry, (first_id, second_id) = registry_and_traces
        serial = JobEngine(jobs=1)
        with JobEngine(jobs=2, chunk_size=1) as engine:
            engine.run(self._batch(first_id), registry.traces)
            # The second trace keeps arriving as a per-chunk delta; once the
            # shipped delta payload outweighs the initializer payload the
            # next batch must rebase (recreate) the pool...
            for _ in range(3):
                batch = self._batch(second_id)
                expected = serial.run(batch, registry.traces)
                actual = engine.run(batch, registry.traces)
                for a, b in zip(expected, actual):
                    assert a.cycles == b.cycles
            assert engine.stats.pool_creates >= 2
            # ...after which the recurring trace is initializer-shipped and
            # stops travelling with chunks.
            deltas_after_rebase = engine.stats.trace_deltas
            engine.run(self._batch(second_id), registry.traces)
            assert engine.stats.trace_deltas == deltas_after_rebase

    def test_close_is_idempotent_and_pool_recreated(self, registry_and_traces):
        registry, (first_id, _) = registry_and_traces
        batch = self._batch(first_id, configs=("Skylake",))
        engine = JobEngine(jobs=2, chunk_size=1)
        engine.run(batch, registry.traces)
        engine.close()
        engine.close()
        engine.run(batch, registry.traces)
        assert engine.stats.pool_creates == 2
        engine.close()


class TestSchedulers:
    def test_ljf_plan_is_cost_balanced_and_deterministic(self):
        from repro.runtime.engine import JobEngine as Engine

        program = build_program(workload("403.gcc"), seed=11)
        registry = TraceRegistry()
        short = registry.register(
            decode_trace(TraceGenerator(program, seed=31).generate(400))
        )
        long = registry.register(
            decode_trace(TraceGenerator(program, seed=32).generate(4000))
        )
        jobs = []
        for trace_id in (short, long):
            for name in ("Skylake", "K8", "Cedarview"):
                jobs.append(
                    SimulationJob(study="core", config=core_microarch(name),
                                  bug=None, trace_id=trace_id, step=256)
                )
        pending = list(enumerate(jobs))
        engine = Engine(jobs=2, chunk_size=3)
        plan_a = engine._plan_chunks(pending, registry.traces)
        plan_b = engine._plan_chunks(pending, registry.traces)
        assert plan_a == plan_b
        assert sorted(i for chunk in plan_a for i, _ in chunk) == list(
            range(len(jobs))
        )
        assert all(len(chunk) <= 3 for chunk in plan_a)
        from repro.runtime.engine import _job_cost

        def chunk_cost(chunk):
            return sum(_job_cost(job, registry.traces) for _, job in chunk)

        # Chunks are dispatched costliest-first, and LPT places the
        # costliest job at the head of whichever chunk holds it.
        costs = [chunk_cost(chunk) for chunk in plan_a]
        assert costs == sorted(costs, reverse=True)
        costliest = max(pending, key=lambda item: _job_cost(item[1], registry.traces))
        assert any(chunk[0] == costliest for chunk in plan_a)


class TestProgressStats:
    def test_progress_callback_reads_live_stats(self, gcc_program):
        """The callback gets ``(done, total)``; the live stats it may want
        are on ``engine.stats`` while the batch runs."""
        registry = TraceRegistry()
        trace_id = registry.register(
            decode_trace(TraceGenerator(gcc_program, seed=51).generate(600))
        )
        jobs = [
            SimulationJob(study="core", config=core_microarch(name), bug=None,
                          trace_id=trace_id, step=256)
            for name in ("Skylake", "K8")
        ]
        seen = []
        engine = JobEngine(
            jobs=1, progress=lambda done, total: seen.append(
                (done, total, engine.stats.batches)
            )
        )
        engine.run(jobs, registry.traces)
        assert seen[-1][:2] == (len(jobs), len(jobs))
        assert all(batches == 1 for _, _, batches in seen)

    def test_two_argument_progress_still_works(self, gcc_program):
        registry = TraceRegistry()
        trace_id = registry.register(
            decode_trace(TraceGenerator(gcc_program, seed=52).generate(600))
        )
        jobs = [
            SimulationJob(study="core", config=core_microarch("Skylake"), bug=None,
                          trace_id=trace_id, step=256)
        ]
        seen = []
        JobEngine(jobs=1, progress=lambda done, total: seen.append((done, total))).run(
            jobs, registry.traces
        )
        assert seen[-1] == (1, 1)
