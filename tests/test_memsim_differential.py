"""Differential oracle for the memory-hierarchy simulators.

Three ways of running the memsim must agree bit for bit: the frozen seed
memsim (``repro.memsim._reference``) fed the bug's own per-access hooks,
the Python fallback (:func:`~repro.memsim.simulate_memory_python`, the same
memsim fed the bug's :class:`~repro.memsim.hooks.MemoryBugRecord` through
:class:`~repro.memsim.hooks.MemoryRecordHooks`) and the compiled kernel
(``repro.memsim.native``, the same record in C).  Seeded random (trace,
hierarchy, bug, step) cases compare every per-step counter, the IPC series,
the cycle total and the AMAT by ``tobytes()``/``repr``.

The fuzz seed comes from ``REPRO_FUZZ_SEED`` (CI rotates it per run); every
assertion message names it, so a failure replays locally with::

    REPRO_FUZZ_SEED=<seed> python -m pytest tests/test_memsim_differential.py

Also here: both paths reading a bug through ``compile`` only, the native
kernel limits (each falls back to the Python memsim with the same result)
and the cross-kernel store replay for memory jobs.
"""

import dataclasses
import os
import random
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.bugs.memory_bugs import (
    MEMORY_BUG_TYPES,
    EvictMRU,
    LoadMissDelay,
    NoAgeUpdateOnAccess,
    SPPDroppedPrefetches,
    SPPLeastConfidence,
    SPPSignatureReset,
    memory_bug_suite,
)
from repro.coresim import native_available
from repro.memsim import _reference as memsim_reference
from repro.memsim import (
    MemoryBugModel,
    MemoryBugRecord,
    simulate_memory_python,
    simulate_memory_trace,
)
from repro.memsim.native import NativeKernelUnavailable, simulate_memory_native
from repro.runtime import JobEngine, ResultStore, SimulationJob, TraceRegistry
from repro.uarch import CacheConfig, all_memory_microarches, memory_microarch
from repro.workloads import (
    MEMSYNTH_WORKLOADS,
    TraceGenerator,
    build_program,
    decode_trace,
    memsynth_trace,
    workload,
)
from repro.workloads.ingest import ingest_trace

DATA_DIR = Path(__file__).parent / "data"

#: Default fuzz seed (deterministic local runs); CI rotates via the env var.
DEFAULT_FUZZ_SEED = 20261018

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "") or DEFAULT_FUZZ_SEED)

#: Random cases per run, on top of the per-bug-type roster.
FUZZ_CASES = 52

#: Trace sources: SPEC-like synthetic programs, the four memsynth
#: archetypes and the golden k6 trace.  The first cases of every run take
#: them in this order, so each run covers every source.
_SPEC_WORKLOADS = ("403.gcc", "426.mcf", "462.libquantum", "433.milc")
TRACE_SOURCES = ("spec",) + tuple(MEMSYNTH_WORKLOADS) + ("k6",)


def _replay(context: str) -> str:
    return f"{context} (seed={FUZZ_SEED}; replay: REPRO_FUZZ_SEED={FUZZ_SEED})"


# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _spec_trace(name: str, seed: int, length: int):
    program = build_program(workload(name), seed=seed)
    return decode_trace(TraceGenerator(program, seed=seed + 1).generate(length))


@lru_cache(maxsize=None)
def _memsynth(name: str, seed: int, length: int):
    return decode_trace(memsynth_trace(name, length, seed=seed))


@lru_cache(maxsize=None)
def _golden_k6():
    return ingest_trace(DATA_DIR / "kvstore.k6.gz").decoded


def _random_trace(rng: random.Random, source: str):
    if source == "k6":
        return _golden_k6()
    length = rng.randrange(1200, 3600)
    seed = rng.randrange(4)
    if source == "spec":
        return _spec_trace(rng.choice(_SPEC_WORKLOADS), seed, length)
    return _memsynth(source, seed, length)


def _mutate_cache(rng: random.Random, cache: CacheConfig, line_size: int) -> CacheConfig:
    associativity = rng.choice((1, 2, 3, 4, 8, 16))
    sets = rng.choice((1, 2, 8, 16, 64, 100, 256, 1024))
    return CacheConfig(
        size=sets * associativity * line_size,
        associativity=associativity,
        latency=rng.choice((1, 2, cache.latency, 3 * cache.latency)),
        line_size=line_size,
    )


def _random_config(rng: random.Random, odd_line: bool = False):
    config = rng.choice(all_memory_microarches())
    if not odd_line and rng.random() < 0.4:
        return config  # a preset as it ships
    line_size = 48 if odd_line else rng.choice((32, 64, 128))
    l1d = _mutate_cache(rng, config.l1d, line_size)
    return dataclasses.replace(
        config,
        name=f"{config.name}~mut",
        l1d=l1d,
        l2=_mutate_cache(rng, config.l2, line_size),
        llc=_mutate_cache(rng, config.llc, rng.choice((line_size, 64))),
        dram_latency=rng.choice((1, 60, config.dram_latency, 400)),
        prefetcher=rng.choice(("none", "next_line", "spp", "spp")),
        # a degree below 1 or past the L1D's line count is a construction error
        prefetch_degree=min(rng.choice((1, 2, 3, 4, 6)), l1d.size // line_size),
        issue_width=rng.choice((1, 2, config.issue_width, 8)),
    )


#: One severity-randomised factory per memory bug type.
_BUG_FACTORIES = {
    "ReplacementNoAgeUpdate": lambda rng: NoAgeUpdateOnAccess(
        rng.choice(("l1d", "l2", "llc"))
    ),
    "EvictMRU": lambda rng: EvictMRU(rng.choice(("l1d", "l2", "llc"))),
    "LoadMissDelay": lambda rng: LoadMissDelay(
        rng.choice(("l1d", "l2")),
        threshold=rng.choice((0, 1, 16, 64, 500)),
        delay=rng.choice((1, 5, 20, 40, 120)),
    ),
    "SPPSignatureReset": lambda rng: SPPSignatureReset(),
    "SPPLeastConfidence": lambda rng: SPPLeastConfidence(),
    "SPPDroppedPrefetches": lambda rng: SPPDroppedPrefetches(
        rng.choice((1, 2, 3, 4, 7))
    ),
}


def _random_step(rng: random.Random, trace) -> int:
    return rng.choice((1, 37, 250, 777, 2000, len(trace) + rng.randrange(1, 5000)))


def _fuzz_case(case: int):
    rng = random.Random(f"{FUZZ_SEED}:{case}")
    source = (
        TRACE_SOURCES[case]
        if case < len(TRACE_SOURCES)
        else rng.choice(TRACE_SOURCES)
    )
    trace = _random_trace(rng, source)
    config = _random_config(rng, odd_line=case == len(TRACE_SOURCES))
    bug = None
    if rng.random() < 0.75:
        bug = _BUG_FACTORIES[rng.choice(MEMORY_BUG_TYPES)](rng)
    if case == 0:
        step = 1
    elif case == 1:
        step = len(trace) + 1
    else:
        step = _random_step(rng, trace)
    return source, trace, config, bug, step


def _roster_case(bug_type: str):
    rng = random.Random(f"{FUZZ_SEED}:{bug_type}")
    trace = _random_trace(rng, rng.choice(TRACE_SOURCES))
    config = _random_config(rng)
    if bug_type.startswith("SPP"):
        config = dataclasses.replace(config, prefetcher="spp")
    return trace, config, _BUG_FACTORIES[bug_type](rng), _random_step(rng, trace)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _observations(result) -> dict:
    """Everything a memsim result reports, as exact bytes and reprs."""
    series = result.series
    return {
        "config_name": result.config_name,
        "bug_name": result.bug_name,
        "instructions": result.instructions,
        "cycles": repr(result.cycles),
        "amat": repr(result.amat),
        "step": series.step_cycles,
        "names": list(series.names),
        "counters": {name: row.tobytes() for name, row in zip(series.names, series.values)},
        "dtypes": str(series.values.dtype),
        "ipc": series.ipc.tobytes(),
    }


def _assert_same(expected: dict, actual: dict, context: str) -> None:
    for field in expected:
        if field == "counters":
            for name in expected["names"]:
                assert expected["counters"][name] == actual["counters"].get(name), (
                    _replay(f"{context}: counter {name} differs")
                )
        assert expected[field] == actual[field], _replay(
            f"{context}: {field} {expected[field]!r:.200} != {actual[field]!r:.200}"
        )


def _check_kernels_agree(trace, config, bug, step, context: str) -> None:
    reference = memsim_reference.MemoryHierarchySim(
        config, bug=bug, step_instructions=step
    ).run(trace.uops)
    expected = _observations(reference)
    python = simulate_memory_python(config, trace, bug=bug, step_instructions=step)
    _assert_same(expected, _observations(python), f"{context} reference-vs-python")
    if native_available():
        native = simulate_memory_native(config, trace, bug=bug, step_instructions=step)
        _assert_same(expected, _observations(native), f"{context} reference-vs-native")
    default = simulate_memory_trace(config, trace, bug=bug, step_instructions=step)
    _assert_same(expected, _observations(default), f"{context} reference-vs-default")


def _describe(source, trace, config, bug, step) -> str:
    return (
        f"trace={source}:{len(trace)} config={config.name} "
        f"prefetcher={config.prefetcher}x{config.prefetch_degree} "
        f"lines={config.l1d.line_size}/{config.l2.line_size}/{config.llc.line_size} "
        f"bug={getattr(bug, 'name', None)} step={step}"
    )


class TestMemsimDifferentialFuzz:
    """reference == Python == native over seeded random cases."""

    def test_seed_is_reported(self):
        print(f"[memsim differential] REPRO_FUZZ_SEED={FUZZ_SEED}")
        assert FUZZ_SEED >= 0

    @pytest.mark.parametrize("case", range(FUZZ_CASES))
    def test_fuzz_case(self, case):
        source, trace, config, bug, step = _fuzz_case(case)
        context = f"case={case} " + _describe(source, trace, config, bug, step)
        _check_kernels_agree(trace, config, bug, step, context)

    @pytest.mark.parametrize("bug_type", MEMORY_BUG_TYPES)
    def test_every_bug_type(self, bug_type):
        trace, config, bug, step = _roster_case(bug_type)
        context = f"type={bug_type} " + _describe("roster", trace, config, bug, step)
        _check_kernels_agree(trace, config, bug, step, context)

    @pytest.mark.parametrize("bug", [
        LoadMissDelay("l1d", threshold=0, delay=7),
        LoadMissDelay("l2", threshold=0, delay=3),
        SPPDroppedPrefetches(1),
    ], ids=lambda bug: bug.name)
    def test_severity_edges(self, bug):
        """Threshold 0 (every load miss delayed) and drop_every 1 (every
        SPP prefetch dropped) on every preset, at the study's step."""
        trace = _memsynth("kv-store", 1, 2500)
        for config in all_memory_microarches():
            _check_kernels_agree(trace, config, bug, 250,
                                 f"preset={config.name} bug={bug.name}")

    def test_every_preset_and_registered_bug(self):
        trace = _spec_trace("426.mcf", 2, 600)
        bugs = [None] + [b for v in memory_bug_suite().values() for b in v]
        for config in all_memory_microarches():
            for bug in bugs:
                _check_kernels_agree(
                    trace, config, bug, 500,
                    f"preset={config.name} bug={getattr(bug, 'name', None)}",
                )

    def test_roster_covers_every_memory_bug_type(self):
        """A new memory bug type cannot ship without joining the fuzz roster."""
        assert set(_BUG_FACTORIES) == set(MEMORY_BUG_TYPES)
        assert set(memory_bug_suite()) == set(MEMORY_BUG_TYPES)
        rng = random.Random(0)
        for bug_type, factory in _BUG_FACTORIES.items():
            assert factory(rng).info.bug_type == bug_type

    def test_case_count_meets_floor(self):
        assert FUZZ_CASES >= 50
        assert len(TRACE_SOURCES) == 6 and FUZZ_CASES > len(TRACE_SOURCES)


class TestMemoryHookOverrideDetection:
    """The memsim twin of ``tests/test_coresim.py::TestHookOverrideDetection``:
    both memsim paths read a bug through ``compile``, nothing else."""

    def test_record_not_hooks_on_every_path(self, no_compiler):
        class Disagreeing(MemoryBugModel):
            """``compile`` says evict MRU everywhere; the hooks say bug-free."""

            name = "disagreeing"

            def compile(self):
                return MemoryBugRecord(evict_mru=(True, True, True))

        trace = _spec_trace("403.gcc", 0, 3000)
        config = memory_microarch("Skylake-mem")
        bug = Disagreeing()
        default = _observations(simulate_memory_trace(config, trace, bug=bug))
        with no_compiler():
            fallback = simulate_memory_trace(config, trace, bug=bug)
        _assert_same(default, _observations(fallback), "no compiler")
        hooked = _observations(memsim_reference.simulate_memory_trace(config, trace, bug=bug))
        assert hooked["counters"] != default["counters"]
        clean = _observations(memsim_reference.simulate_memory_trace(config, trace))
        _assert_same(clean, dict(hooked, bug_name="bug-free"), "hooks read")


# ---------------------------------------------------------------------------
# Kernel limits: each one falls back to the Python memsim, exactly
# ---------------------------------------------------------------------------


def _with_addresses(trace, base: int):
    return [
        dataclasses.replace(uop, address=base + 64 * index)
        if uop.address is not None else uop
        for index, uop in enumerate(trace)
    ]


class TestKernelLimits:
    @pytest.mark.parametrize("base", [0xFFFF888000001000, 1 << 62, -4096],
                             ids=["kernel-space", "2**62", "negative"])
    def test_out_of_range_addresses_fall_back(self, base):
        """ChampSim addresses are unsigned 64-bit and gem5/k6 ones have no
        bound: past [0, 2**62) the Python memsim runs, with the reference's
        result."""
        trace = _with_addresses(_spec_trace("403.gcc", 0, 1200).uops, base)
        config = memory_microarch("Skylake-mem")
        if native_available():
            with pytest.raises(NativeKernelUnavailable, match=r"\[0, 2\*\*62\)"):
                simulate_memory_native(config, trace, step_instructions=100)
        reference = memsim_reference.MemoryHierarchySim(
            config, step_instructions=100).run(trace)
        python = simulate_memory_python(config, trace, step_instructions=100)
        default = simulate_memory_trace(config, trace, step_instructions=100)
        _assert_same(_observations(reference), _observations(python), "python")
        _assert_same(_observations(python), _observations(default), "default")

    def test_pickled_trace_marshals_from_its_columns(self):
        """A trace a worker unpickled carries columns, not micro-ops; the
        kernel reads those and the result is unchanged."""
        import pickle

        trace = _memsynth("web-server", 3, 2000)
        shipped = pickle.loads(pickle.dumps(trace))
        assert shipped.built_columns is not None
        config = memory_microarch("Haswell-mem")
        expected = _observations(
            simulate_memory_python(config, trace, step_instructions=300)
        )
        result = simulate_memory_trace(config, shipped, step_instructions=300)
        _assert_same(expected, _observations(result), "unpickled trace")

    def test_limits_past_the_kernel_fall_back(self):
        trace = _spec_trace("433.milc", 1, 1500)
        base = memory_microarch("K10-mem")
        deep = dataclasses.replace(base, dram_latency=1 << 40)
        if native_available():
            with pytest.raises(NativeKernelUnavailable):
                simulate_memory_native(deep, trace)
        _assert_same(
            _observations(memsim_reference.simulate_memory_trace(deep, trace)),
            _observations(simulate_memory_trace(deep, trace)),
            "DRAM latency past 2**31",
        )
        big_delay = LoadMissDelay("l1d", threshold=2, delay=1 << 40)
        if native_available():
            with pytest.raises(NativeKernelUnavailable, match="2\\*\\*31"):
                simulate_memory_native(base, trace, bug=big_delay)
        _assert_same(
            _observations(memsim_reference.simulate_memory_trace(base, trace, bug=big_delay)),
            _observations(simulate_memory_trace(base, trace, bug=big_delay)),
            "delay past 2**31",
        )
        # What no model can run is refused when the configuration is made.
        with pytest.raises(ValueError, match="issue width"):
            dataclasses.replace(base, issue_width=0)
        with pytest.raises(ValueError, match="prefetch degree"):
            dataclasses.replace(base, prefetch_degree=1 << 60)

    def test_empty_trace_rejected_by_both_kernels(self, no_compiler):
        config = memory_microarch("Skylake-mem")
        with pytest.raises(ValueError, match="empty"):
            simulate_memory_trace(config, [])
        with no_compiler():
            with pytest.raises(ValueError, match="empty"):
                simulate_memory_trace(config, [])

    def test_default_path_without_a_compiler(self, no_compiler):
        trace = _memsynth("monotonic-leak", 0, 1500)
        config = memory_microarch("Broadwell-mem")
        bug = EvictMRU("l2")
        expected = _observations(
            memsim_reference.MemoryHierarchySim(config, bug=bug).run(trace.uops)
        )
        with no_compiler():
            assert not native_available()
            with pytest.raises(NativeKernelUnavailable):
                simulate_memory_native(config, trace, bug=bug)
            result = simulate_memory_trace(config, trace, bug=bug)
        _assert_same(expected, _observations(result), "no compiler")


# ---------------------------------------------------------------------------
# Cross-kernel store replay: stored memory results do not depend on the kernel
# ---------------------------------------------------------------------------


class TestCrossKernelMemoryStore:
    @pytest.fixture()
    def memory_jobs(self):
        registry = TraceRegistry()
        ids = [registry.register(_golden_k6())] + [
            registry.register(_memsynth(name, 5, 1500))
            for name in ("high-reuse", "kv-store")
        ]
        jobs = [
            SimulationJob(study="memory", config=memory_microarch(name), bug=bug,
                          trace_id=tid, step=500)
            for name in ("Skylake-mem", "K10-mem")
            for bug in (None, EvictMRU("l1d"), SPPDroppedPrefetches(2))
            for tid in ids
        ]
        return registry, jobs

    @staticmethod
    def _observed(results) -> list:
        return [
            (r.config_name, r.bug_name, r.instructions, repr(r.cycles), repr(r.amat),
             r.series.names, r.series.values.tobytes(), r.series.ipc.tobytes())
            for r in results
        ]

    def test_python_store_replays_under_native(self, memory_jobs, tmp_path, no_compiler):
        registry, jobs = memory_jobs
        store = ResultStore(tmp_path / "store")
        with no_compiler():
            filler = JobEngine(jobs=1, store=store)
            filled = filler.run(jobs, registry.traces)
        assert filler.stats.executed == len(jobs)
        replayer = JobEngine(jobs=1, store=store)
        replayed = replayer.run(jobs, registry.traces)
        assert replayer.stats.executed == 0
        fresh = JobEngine(jobs=1).run(jobs, registry.traces)
        assert self._observed(filled) == self._observed(replayed) == self._observed(fresh)

    def test_native_store_replays_under_python(self, memory_jobs, tmp_path, no_compiler):
        registry, jobs = memory_jobs
        store = ResultStore(tmp_path / "store")
        filled = JobEngine(jobs=1, store=store).run(jobs, registry.traces)
        with no_compiler():
            replayer = JobEngine(jobs=1, store=store)
            replayed = replayer.run(jobs, registry.traces)
            fresh = JobEngine(jobs=1).run(jobs, registry.traces)
        assert replayer.stats.executed == 0
        assert self._observed(filled) == self._observed(replayed) == self._observed(fresh)
