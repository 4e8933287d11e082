"""Tests for the out-of-order core simulator."""

import numpy as np
import pytest

from repro.coresim import (
    BranchPredictor,
    Cache,
    CacheHierarchy,
    CoreBugModel,
    O3Pipeline,
    simulate_trace,
)
from repro.coresim.counters import TimeSeriesSampler, derived_counters
from repro.uarch import CacheConfig, core_microarch, kb
from repro.workloads import MicroOp, Opcode, TraceGenerator, build_program, workload


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
        class L2Bug(CoreBugModel):
            def cache_extra_latency(self, level):
                return 7 if level == 2 else 0

        clean = CacheHierarchy(skylake, CoreBugModel())
        buggy = CacheHierarchy(skylake, L2Bug())
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
    """Regression tests for the class-level hook-override contract.

    The pipeline (and native-kernel eligibility, ``dynamic_hook_free``)
    detect overridden hooks once, at construction, by comparing class attributes
    against :class:`CoreBugModel`.  A hook attached to the subclass *after*
    class creation — a pattern bug prototypes use — must still be detected:
    silently taking the BUG_FREE fast path would drop the injected bug.
    """

    def test_hook_assigned_after_class_creation_is_called(self, skylake, gcc_trace):
        class LateBug(CoreBugModel):
            name = "late"

        calls = []

        def serialize(self, uop):
            calls.append(uop.opcode)
            return False

        LateBug.serialize = serialize  # attached post class creation
        pipeline = O3Pipeline(skylake, bug=LateBug(), step_cycles=256)
        assert pipeline._hook_serialize, "late class-level override not detected"
        pipeline.run(gcc_trace[:400])
        assert calls, "late-attached hook was never invoked"

    def test_late_override_changes_timing(self, skylake, gcc_trace):
        from repro.workloads import decode_trace

        class LateSerialize(CoreBugModel):
            name = "late-serialize"

        LateSerialize.serialize = lambda self, uop: uop.opcode is Opcode.ADD
        trace = decode_trace(gcc_trace[:800])
        bugged = simulate_trace(skylake, trace, bug=LateSerialize(), step_cycles=256)
        clean = simulate_trace(skylake, trace, step_cycles=256)
        assert bugged.cycles > clean.cycles, (
            "post-creation serialize override silently took the fast path"
        )

    def test_late_override_excluded_from_native_kernel(self):
        from repro.coresim.hooks import dynamic_hook_free

        class LateDelay(CoreBugModel):
            name = "late-delay"

        assert dynamic_hook_free(LateDelay())  # nothing overridden yet
        LateDelay.extra_issue_delay = lambda self, uop, context: 1
        assert not dynamic_hook_free(LateDelay()), (
            "native eligibility must see post-creation hook overrides"
        )

    def test_structural_hooks_keep_native_eligibility(self):
        from repro.coresim.hooks import dynamic_hook_free

        class Structural(CoreBugModel):
            name = "structural"

            def register_reduction(self):
                return 8

            def bp_table_entries(self, configured):
                return configured // 2

        assert dynamic_hook_free(Structural())
