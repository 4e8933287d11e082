"""Tests for the out-of-order core simulator."""

import numpy as np
import pytest

from repro.bugs.core_bugs import L2LatencyBug
from repro.coresim import (
    BranchPredictor,
    BugRecord,
    Cache,
    CacheHierarchy,
    CoreBugModel,
    O3Pipeline,
    simulate_batch_scalar,
    simulate_trace,
    simulate_trace_batch,
)
from repro.coresim.counters import TimeSeriesSampler, derived_counters
from repro.uarch import CacheConfig, core_microarch, kb
from repro.workloads import MicroOp, Opcode, TraceGenerator, build_program, workload

#: The scalar kernel, and the default path (native where a compiler is found).
SIMULATORS = (("scalar", simulate_batch_scalar), ("native", simulate_trace_batch))


class TestCache:
    def test_hits_after_fill(self):
        cache = Cache("l1d", CacheConfig(size=kb(4), associativity=4, latency=2))
        assert cache.lookup(0x1000) is False
        assert cache.lookup(0x1000) is True
        assert cache.misses == 1 and cache.accesses == 2

    def test_lru_eviction(self):
        cache = Cache("tiny", CacheConfig(size=256, associativity=2, latency=1,
                                          line_size=64))
        # Two lines map to the same set (2 sets, 2 ways); a third evicts the LRU.
        base = 0x0
        stride = 64 * 2  # same set
        cache.lookup(base)
        cache.lookup(base + stride)
        cache.lookup(base)  # refresh line 0
        cache.lookup(base + 2 * stride)  # evicts base+stride
        assert cache.lookup(base) is True
        assert cache.lookup(base + stride) is False

    def test_hierarchy_latency_and_bug_hook(self, skylake):
        """A bug record's L2 extra latency adds to the L2 leg of a miss."""
        clean = CacheHierarchy(skylake)
        buggy = CacheHierarchy(skylake)
        buggy.latency[1] += L2LatencyBug(7).compile(None).l2_extra_latency
        address = 0x5000_0000
        assert buggy.access(address) == clean.access(address) + 7


class TestBranchPredictor:
    def _branch(self, pc, taken, target=0x100):
        return MicroOp(opcode=Opcode.BRANCH, srcs=(0,), dest=None, pc=pc,
                       taken=taken, target=target)

    def test_learns_biased_branch(self, skylake):
        predictor = BranchPredictor(skylake, CoreBugModel())
        mispredicts = sum(
            predictor.predict_and_update(self._branch(0x400, True)) for _ in range(50)
        )
        assert mispredicts <= 3

    def test_reduced_table_changes_behaviour(self, skylake):
        class TinyTable(CoreBugModel):
            def bp_table_entries(self, configured):
                return 4

        branches = [self._branch(0x400 + 16 * (i % 37), bool((i * 7 + i % 13) % 3))
                    for i in range(400)]
        healthy = BranchPredictor(skylake, CoreBugModel())
        tiny = BranchPredictor(skylake, TinyTable())
        healthy_miss = sum(healthy.predict_and_update(b) for b in branches)
        tiny_miss = sum(tiny.predict_and_update(b) for b in branches)
        assert tiny.table_entries == 4
        assert healthy.table_entries == skylake.bp_table_entries
        # Aliasing into 4 counters must change the prediction stream.
        assert tiny_miss != healthy_miss
        assert tiny_miss > 0

    def test_stats_and_reset(self, skylake):
        predictor = BranchPredictor(skylake, CoreBugModel())
        predictor.predict_and_update(self._branch(0x400, True))
        assert predictor.stats()["bp.lookups"] == 1
        predictor.reset_stats()
        assert predictor.stats()["bp.lookups"] == 0


class TestSampler:
    def test_derived_counters(self):
        deltas = {"commit.instructions": 100.0, "commit.branches": 20.0,
                  "bp.lookups": 20.0, "bp.mispredicts": 5.0, "cycles": 200.0}
        derived = derived_counters(deltas)
        assert derived["derived.pct_branches"] == pytest.approx(0.2)
        assert derived["derived.bp_mispredict_rate"] == pytest.approx(0.25)
        assert derived["derived.commit_utilization"] == pytest.approx(0.5)

    def test_sampler_builds_series(self):
        sampler = TimeSeriesSampler(step_cycles=100)
        sampler.sample({"commit.instructions": 80.0})
        sampler.sample({"commit.instructions": 200.0})
        sampler.finalize({"commit.instructions": 260.0}, leftover_cycles=60)
        series = sampler.build()
        assert series.num_steps == 3
        assert series.ipc[0] == pytest.approx(0.8)
        assert series.ipc[1] == pytest.approx(1.2)
        assert series.ipc[2] == pytest.approx(1.0)

    def test_empty_sampler_raises(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(step_cycles=10).build()


class TestPipeline:
    def test_simulation_commits_every_instruction(self, skylake, gcc_trace):
        result = simulate_trace(skylake, gcc_trace[:2000], step_cycles=256)
        assert result.instructions == 2000
        assert result.cycles > 0
        assert 0.05 < result.ipc <= skylake.width
        assert result.series.num_steps >= 1

    def test_ipc_bounded_by_width(self, gcc_trace):
        for name in ("Skylake", "K8", "Cedarview"):
            config = core_microarch(name)
            result = simulate_trace(config, gcc_trace[:1500], step_cycles=256)
            assert result.ipc <= config.width + 1e-9

    def test_determinism(self, skylake, gcc_trace):
        r1 = simulate_trace(skylake, gcc_trace[:1500], step_cycles=256)
        r2 = simulate_trace(skylake, gcc_trace[:1500], step_cycles=256)
        assert r1.cycles == r2.cycles
        assert np.allclose(r1.series.ipc, r2.series.ipc)

    def test_empty_trace_rejected(self, skylake):
        with pytest.raises(ValueError):
            simulate_trace(skylake, [])

    def test_counters_consistent(self, skylake, gcc_trace):
        pipeline = O3Pipeline(skylake, step_cycles=512)
        pipeline.warmup(gcc_trace[:2000])
        pipeline.run(gcc_trace[:2000])
        counters = pipeline._cumulative_counters()
        assert counters["commit.instructions"] == 2000
        assert counters["fetch.instructions"] == 2000
        assert counters["issue.instructions"] == pytest.approx(2000)
        assert counters["commit.branches"] == sum(1 for u in gcc_trace[:2000] if u.is_branch)
        assert counters["commit.loads"] == sum(
            1 for u in gcc_trace[:2000] if u.opcode is Opcode.LOAD)

    def test_narrower_machine_is_slower(self, gcc_trace):
        wide = simulate_trace(core_microarch("Broadwell"), gcc_trace[:2000])
        narrow = simulate_trace(core_microarch("Cedarview"), gcc_trace[:2000])
        assert narrow.cycles > wide.cycles

    def test_runtime_seconds(self, skylake, gcc_trace):
        result = simulate_trace(skylake, gcc_trace[:1000])
        assert result.runtime_seconds(skylake.clock_ghz) == pytest.approx(
            result.cycles / (skylake.clock_ghz * 1e9))


class TestHookOverrideDetection:
    """The kernels read a bug through ``compile``, nothing else.

    ``compile`` is an ordinary method call, so a record attached to a bug
    class after its creation is honoured; the per-cycle hooks are the seed
    pipeline's input only.
    """

    def test_hook_assigned_after_class_creation_is_called(self, skylake, gcc_trace):
        class LateBug(CoreBugModel):
            name = "late"

        calls = []

        def compile(self, trace):
            calls.append(len(trace))
            return BugRecord()

        LateBug.compile = compile  # attached post class creation
        pipeline = O3Pipeline(skylake, bug=LateBug(), step_cycles=256)
        pipeline.run(gcc_trace[:400])
        assert calls == [400], "late-attached compile was never invoked"

    def test_late_override_changes_timing(self, skylake, gcc_trace):
        from repro.workloads import decode_trace

        class LateSerialize(CoreBugModel):
            name = "late-serialize"

        LateSerialize.compile = lambda self, trace: BugRecord(
            serialize=trace.columns["opcode"] == int(Opcode.ADD)
        )
        trace = decode_trace(gcc_trace[:800])
        for kernel, simulate in SIMULATORS:
            bugged = simulate(skylake, [trace], bug=LateSerialize(), step_cycles=256)[0]
            clean = simulate(skylake, [trace], step_cycles=256)[0]
            assert bugged.cycles > clean.cycles, (
                f"post-creation compile override ignored by the {kernel} kernel"
            )

    def test_late_override_excluded_from_native_kernel(self, skylake, gcc_trace):
        from repro.coresim._reference import reference_simulate_trace

        class LateDelay(CoreBugModel):
            name = "late-delay"

        LateDelay.extra_issue_delay = lambda self, uop, context: 1
        trace = gcc_trace[:600]
        clean = simulate_trace(skylake, trace, step_cycles=256)
        for kernel, simulate in SIMULATORS:
            hooked = simulate(skylake, [trace], bug=LateDelay(), step_cycles=256)[0]
            assert hooked.cycles == clean.cycles, kernel
        seed = reference_simulate_trace(
            skylake, list(trace), bug=LateDelay(), step_cycles=256
        )
        assert seed.cycles > clean.cycles, "the seed pipeline reads the hooks"

    def test_structural_hooks_keep_native_eligibility(self, skylake, gcc_trace):
        from repro.coresim.native import native_available, simulate_batch_native

        class Structural(CoreBugModel):
            name = "structural"

            def register_reduction(self):
                return 8

            def bp_table_entries(self, configured):
                return configured // 2

        if not native_available():
            pytest.skip("no C compiler on this host")
        trace = gcc_trace[:800]
        native = simulate_batch_native(
            skylake, [trace], bug=Structural(), step_cycles=256
        )[0]
        scalar = simulate_batch_scalar(
            skylake, [trace], bug=Structural(), step_cycles=256
        )[0]
        clean = simulate_batch_scalar(skylake, [trace], step_cycles=256)[0]
        assert native.cycles == scalar.cycles != clean.cycles
