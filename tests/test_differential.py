"""Differential-testing oracle for the simulation kernels.

Three implementations of the core model must agree bit-for-bit on every
sampled counter: the frozen seed pipeline (``coresim/_reference``), the
optimized scalar pipeline (``coresim/pipeline``) and the compiled C native
kernel (``coresim/native``).  This suite grows the hand-picked equivalence
matrix of ``test_perf_equivalence.py`` into a *generator*: seeded random
(synthetic trace, preset mutation, bug x severity) triples hammer the
corners no hand-written case covers.

The fuzz seed comes from ``REPRO_FUZZ_SEED`` (CI rotates it per run and
logs it); the failing seed and case id are embedded in every assertion
message, so any CI failure replays locally with::

    REPRO_FUZZ_SEED=<seed> python -m pytest tests/test_differential.py

Also here: the golden per-preset digests (oracle drift is caught in seconds
without executing the reference pipeline — regenerate via
``tests/data/make_golden.py``) and the cross-kernel engine/store contract
(result-store content must not depend on the kernel that produced it).
"""

import dataclasses
import importlib.util
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

from repro.bugs.core_bugs import (
    BPTableReduction,
    DependencyDelay,
    IfOldestIssueOnly,
    IQPressureDelay,
    IssueOnlyIfOldest,
    L2LatencyBug,
    LongBranchDelay,
    MispredictPenalty,
    OpcodeUsesRegisterDelay,
    RegisterReduction,
    ROBPressureDelay,
    SerializeOpcode,
    StoresToLineDelay,
    StoresToRegisterDelay,
)
from repro.bugs.registry import CORE_BUG_TYPES, core_bug_suite
from repro.coresim import (
    native_available,
    simulate_batch_scalar,
    simulate_trace,
    simulate_trace_batch,
)
from repro.coresim._reference import reference_simulate_trace
from repro.coresim.native import NativeKernelUnavailable, simulate_batch_native
from repro.runtime import (
    JobEngine,
    ResultStore,
    SimulationJob,
    TraceRegistry,
)
from repro.runtime.execution import batch_group_key, plan_batches
from repro.uarch import all_core_microarches, core_microarch, memory_microarch
from repro.uarch.ports import PortOrganization
from repro.workloads import (
    MicroOp,
    Opcode,
    TraceGenerator,
    build_program,
    decode_trace,
    workload,
)
from repro.workloads.ingest import ingest_trace

DATA_DIR = Path(__file__).parent / "data"

#: Default fuzz seed (deterministic local runs); CI rotates via the env var.
DEFAULT_FUZZ_SEED = 20260730

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "") or DEFAULT_FUZZ_SEED)

#: Scenarios x traces-per-scenario = fuzz cases run in tier-1.
FUZZ_SCENARIOS = 13
FUZZ_TRACES_PER_SCENARIO = 4


def _assert_identical(a, b, context):
    """Counter-bit-identity between two SimulationResults."""
    assert a.cycles == b.cycles, f"{context}: cycles {a.cycles} != {b.cycles}"
    assert a.instructions == b.instructions, context
    sa, sb = a.series, b.series
    assert sa.step_cycles == sb.step_cycles, context
    assert set(sa.counters) == set(sb.counters), (
        context,
        set(sa.counters) ^ set(sb.counters),
    )
    assert np.array_equal(sa.ipc, sb.ipc), context
    for name in sa.counters:
        assert np.array_equal(sa.counters[name], sb.counters[name]), (context, name)


# ---------------------------------------------------------------------------
# Seeded fuzz generation
# ---------------------------------------------------------------------------


_FUZZ_OPCODES = [
    Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.MUL, Opcode.DIV,
    Opcode.FADD, Opcode.FMUL, Opcode.FDIV, Opcode.VADD, Opcode.POPCNT,
    Opcode.LOAD, Opcode.STORE, Opcode.BRANCH, Opcode.CALL, Opcode.RET,
    Opcode.NOP, Opcode.MOV,
]


def _random_uops(rng: random.Random, length: int) -> list[MicroOp]:
    """Adversarial random micro-ops: duplicate sources, clashing store/load
    addresses, indirect branches, odd pcs — the corners synthetic programs
    rarely produce."""
    uops = []
    pc = rng.randrange(0, 1 << 20) * 4
    hot_addresses = [rng.randrange(0, 1 << 24) * 8 for _ in range(8)]
    for _ in range(length):
        opcode = rng.choice(_FUZZ_OPCODES)
        n_srcs = rng.randrange(0, 3)
        srcs = tuple(rng.randrange(0, 32) for _ in range(n_srcs))
        if srcs and rng.random() < 0.15:
            srcs = (srcs[0], srcs[0])  # duplicate operand
        dest = rng.randrange(0, 32) if rng.random() < 0.6 else None
        address = None
        taken = None
        target = None
        indirect = False
        if opcode in (Opcode.LOAD, Opcode.STORE):
            address = (
                rng.choice(hot_addresses)
                if rng.random() < 0.5
                else rng.randrange(0, 1 << 28)
            )
            dest = rng.randrange(0, 32) if opcode is Opcode.LOAD else None
        elif opcode in (Opcode.BRANCH, Opcode.CALL, Opcode.RET):
            dest = None
            taken = rng.random() < 0.55
            target = pc + rng.randrange(-4096, 4096) * 4
            indirect = rng.random() < 0.2
        uops.append(
            MicroOp(
                opcode=opcode,
                srcs=srcs,
                dest=dest,
                pc=pc,
                address=address,
                taken=taken,
                target=target,
                indirect=indirect,
            )
        )
        pc += 4
    return uops


def _mutate_preset(rng: random.Random, config):
    """A structurally-valid random variation of a real preset."""
    fields = {}
    if rng.random() < 0.7:
        fields["width"] = rng.choice([1, 2, 3, 4, 6, 8])
    if rng.random() < 0.7:
        fields["rob_size"] = rng.choice([16, 24, 48, 96, 160, 224])
        fields["iq_size"] = 0  # re-derive from the new ROB
        fields["lsq_size"] = 0
        fields["num_phys_regs"] = 0
    if rng.random() < 0.4:
        fields["fetch_buffer"] = rng.choice([4, 8, 16, 32])
    if rng.random() < 0.4:
        fields["div_latency"] = rng.choice([8, 20, 40, 69])
    if not fields:
        fields["width"] = max(1, config.width - 1)
    return dataclasses.replace(config, name=f"{config.name}-fuzz", **fields)


def _random_bug(rng: random.Random):
    """None, a structural bug, or a per-uop/pipeline-state bug x severity.

    The mixed scenarios keep this draw so their case ids stay stable per
    seed; :func:`_roster_cases` covers every bug type.
    """
    roll = rng.random()
    if roll < 0.25:
        return None
    if roll < 0.5:
        return rng.choice(
            [
                RegisterReduction(rng.choice([4, 16, 32, 64])),
                BPTableReduction(rng.choice([1024, 3072, 3968])),
            ]
        )
    return rng.choice(
        [
            SerializeOpcode(rng.choice([Opcode.XOR, Opcode.LOAD, Opcode.ADD])),
            DependencyDelay(Opcode.ADD, Opcode.LOAD, rng.choice([3, 9, 27])),
            IQPressureDelay(rng.choice([4, 8]), rng.choice([2, 10])),
            MispredictPenalty(rng.choice([5, 15, 45])),
            StoresToLineDelay(rng.choice([2, 6]), rng.choice([4, 12])),
            L2LatencyBug(rng.choice([5, 25])),
            LongBranchDelay(rng.choice([64, 1024]), rng.choice([4, 16])),
        ]
    )


_FUZZ_BUG_OPCODES = [
    Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.MUL, Opcode.FADD,
    Opcode.LOAD, Opcode.STORE, Opcode.BRANCH,
]

#: One randomised-severity constructor per core bug type (opcode X/Y,
#: threshold N, register R, delay T drawn past the registry's choices).
_SEVERITY_FACTORIES = {
    "Serialized": lambda rng: SerializeOpcode(rng.choice(_FUZZ_BUG_OPCODES)),
    "IssueXOnlyIfOldest": lambda rng: IssueOnlyIfOldest(
        rng.choice(_FUZZ_BUG_OPCODES)
    ),
    "IfOldestIssueOnlyX": lambda rng: IfOldestIssueOnly(
        rng.choice(_FUZZ_BUG_OPCODES)
    ),
    "IfXDependsOnYDelayT": lambda rng: DependencyDelay(
        rng.choice(_FUZZ_BUG_OPCODES), rng.choice(_FUZZ_BUG_OPCODES),
        rng.choice([1, 3, 9, 27]),
    ),
    "IQPressureDelay": lambda rng: IQPressureDelay(
        rng.choice([1, 4, 8, 16, 64]), rng.choice([1, 2, 10])
    ),
    "ROBPressureDelay": lambda rng: ROBPressureDelay(
        rng.choice([2, 8, 24, 96]), rng.choice([1, 4, 8])
    ),
    "MispredictDelay": lambda rng: MispredictPenalty(rng.choice([1, 5, 15, 45])),
    "NStoresToLineDelay": lambda rng: StoresToLineDelay(
        rng.choice([0, 1, 2, 6]), rng.choice([1, 4, 12])
    ),
    "NStoresToRegisterDelay": lambda rng: StoresToRegisterDelay(
        rng.choice([1, 2, 5, 16]), rng.choice([1, 6]),
        mode=rng.choice(["after", "every"]),
    ),
    "L2LatencyIncrease": lambda rng: L2LatencyBug(rng.choice([1, 5, 25, 100])),
    "RegisterReduction": lambda rng: RegisterReduction(
        rng.choice([4, 16, 32, 64, 200])
    ),
    "LongBranchDelay": lambda rng: LongBranchDelay(
        rng.choice([0, 64, 1024, 8192]), rng.choice([4, 16])
    ),
    "IfXUsesRegNDelayT": lambda rng: OpcodeUsesRegisterDelay(
        rng.choice(_FUZZ_BUG_OPCODES), rng.randrange(0, 32), rng.choice([1, 8, 20])
    ),
    "BPTableReduction": lambda rng: BPTableReduction(
        rng.choice([1024, 3072, 3968, 1 << 20])
    ),
}


def _roster_bug(rng: random.Random, bug_type: str):
    """A registry variant of *bug_type* or a randomised severity of it."""
    if rng.random() < 0.5:
        return rng.choice(core_bug_suite()[bug_type])
    return _SEVERITY_FACTORIES[bug_type](rng)


def _fuzz_programs(rng: random.Random):
    return [
        build_program(workload("403.gcc"), seed=rng.randrange(1 << 16)),
        build_program(workload("458.sjeng"), seed=rng.randrange(1 << 16)),
    ]


def _scenario(rng: random.Random, programs, draw_bug):
    """One seeded (config, bug, step, warmup, traces) scenario."""
    config = _mutate_preset(rng, rng.choice(all_core_microarches()))
    bug = draw_bug(rng)
    step = rng.choice([64, 256, 512])
    warmup = rng.random() < 0.8
    traces = []
    for _ in range(FUZZ_TRACES_PER_SCENARIO):
        if rng.random() < 0.5:
            traces.append(
                decode_trace(
                    TraceGenerator(
                        rng.choice(programs), seed=rng.randrange(1 << 16)
                    ).generate(rng.randrange(150, 900))
                )
            )
        else:
            traces.append(
                decode_trace(_random_uops(rng, rng.randrange(120, 700)))
            )
    return config, bug, step, warmup, traces


def _fuzz_cases():
    """The seeded mixed scenarios for this run (ids stable per seed)."""
    rng = random.Random(FUZZ_SEED)
    programs = _fuzz_programs(rng)
    return [
        (case, *_scenario(rng, programs, _random_bug))
        for case in range(FUZZ_SCENARIOS)
    ]


def _roster_cases():
    """One seeded scenario per core bug type, so every run fuzzes all 14."""
    rng = random.Random(f"roster-{FUZZ_SEED}")
    programs = _fuzz_programs(rng)
    return [
        (bug_type, *_scenario(rng, programs, lambda r, t=bug_type: _roster_bug(r, t)))
        for bug_type in CORE_BUG_TYPES
    ]


def _check_kernels_agree(config, bug, step, warmup, traces, context):
    """reference == scalar == native on every trace of one scenario."""
    # A compiler-less host runs simulate_trace_batch on scalar too, so the
    # comparison stays meaningful either way.
    native_results = simulate_trace_batch(
        config, traces, bug=bug, step_cycles=step, warmup=warmup
    )
    scalar_results = simulate_batch_scalar(
        config, traces, bug=bug, step_cycles=step, warmup=warmup
    )
    for lane, (trace, scalar) in enumerate(zip(traces, scalar_results)):
        reference = reference_simulate_trace(
            config, list(trace), bug=bug, step_cycles=step, warmup=warmup
        )
        _assert_identical(reference, scalar, f"{context} lane={lane} ref-vs-scalar")
        _assert_identical(
            scalar, native_results[lane], f"{context} lane={lane} scalar-vs-native"
        )


class TestDifferentialFuzz:
    """reference == scalar == native over seeded random triples."""

    def test_seed_is_reported(self, capsys):
        print(f"[differential] REPRO_FUZZ_SEED={FUZZ_SEED}")
        assert FUZZ_SEED >= 0

    @pytest.mark.parametrize("case,config,bug,step,warmup,traces", _fuzz_cases(),
                             ids=lambda v: str(v) if isinstance(v, int) else "")
    def test_fuzz_case(self, case, config, bug, step, warmup, traces):
        context = (
            f"seed={FUZZ_SEED} case={case} config={config.name} "
            f"bug={getattr(bug, 'name', None)} step={step} warmup={warmup} "
            f"(replay: REPRO_FUZZ_SEED={FUZZ_SEED})"
        )
        _check_kernels_agree(config, bug, step, warmup, traces, context)

    @pytest.mark.parametrize("bug_type,config,bug,step,warmup,traces",
                             _roster_cases(), ids=list(CORE_BUG_TYPES))
    def test_every_bug_type(self, bug_type, config, bug, step, warmup, traces):
        context = (
            f"seed={FUZZ_SEED} type={bug_type} config={config.name} "
            f"bug={bug.name} step={step} warmup={warmup} "
            f"(replay: REPRO_FUZZ_SEED={FUZZ_SEED})"
        )
        _check_kernels_agree(config, bug, step, warmup, traces, context)

    def test_roster_covers_every_core_bug_type(self):
        """A new bug type cannot ship without joining the fuzz roster."""
        assert set(_SEVERITY_FACTORIES) == set(CORE_BUG_TYPES)
        assert set(core_bug_suite()) == set(CORE_BUG_TYPES)
        rng = random.Random(0)
        for bug_type, factory in _SEVERITY_FACTORIES.items():
            assert factory(rng).info.bug_type == bug_type
            for variant in core_bug_suite()[bug_type]:
                assert variant.info.bug_type == bug_type

    def test_case_count_meets_floor(self):
        # The tier-1 contract: at least 50 differential cases per run.
        assert FUZZ_SCENARIOS * FUZZ_TRACES_PER_SCENARIO >= 50


# ---------------------------------------------------------------------------
# Kernel selection
# ---------------------------------------------------------------------------


class TestKernelSelection:
    def test_native_eligibility_classification(self):
        """Every core job, any bug type, batches onto the native kernel;
        only memory-study jobs run singly."""
        config = core_microarch("Skylake")
        for bug in [None] + [b for v in core_bug_suite().values() for b in v]:
            job = SimulationJob(study="core", config=config, bug=bug,
                                trace_id="t", step=256)
            assert batch_group_key(job) is not None, getattr(bug, "name", bug)
        memory = SimulationJob(study="memory", config=memory_microarch("Skylake-mem"),
                               bug=None, trace_id="t", step=256)
        assert batch_group_key(memory) is None

    def test_hook_bug_falls_back_to_scalar(self):
        """A bug on a configuration past a native kernel limit (64 issue
        ports, past the 63-port mask) runs on the scalar pipeline, exactly."""
        program = build_program(workload("403.gcc"), seed=3)
        trace = decode_trace(TraceGenerator(program, seed=4).generate(600))
        skylake = core_microarch("Skylake")
        units = [list(port.units) for port in skylake.ports.ports]
        config = dataclasses.replace(
            skylake, ports=PortOrganization.from_unit_lists((units * 64)[:64])
        )
        bug = SerializeOpcode(Opcode.XOR)
        if native_available():
            with pytest.raises(NativeKernelUnavailable, match="63-port"):
                simulate_batch_native(config, [trace], bug=bug, step_cycles=256)
        fallback = simulate_trace(config, trace, bug=bug, step_cycles=256)
        scalar = simulate_batch_scalar(config, [trace], bug=bug, step_cycles=256)[0]
        _assert_identical(scalar, fallback, "kernel-limit fallback")

    def test_values_past_int64_fall_back_to_scalar(self):
        """ChampSim addresses are unsigned 64-bit: loads at
        0xffff888000001000 do not fit the int64 trace columns, so native
        declines the trace and the scalar pipeline runs it, exactly."""
        program = build_program(workload("403.gcc"), seed=3)
        trace = [
            dataclasses.replace(uop, address=0xFFFF888000001000 + 64 * index)
            if uop.address is not None else uop
            for index, uop in enumerate(TraceGenerator(program, seed=4).generate(300))
        ]
        config = core_microarch("Skylake")
        if native_available():
            with pytest.raises(NativeKernelUnavailable, match="int64 range"):
                simulate_batch_native(config, [trace], step_cycles=256)
        fallback = simulate_trace(config, trace, step_cycles=256)
        scalar = simulate_batch_scalar(config, [trace], step_cycles=256)[0]
        _assert_identical(scalar, fallback, "int64 fallback")


# ---------------------------------------------------------------------------
# Golden digests: oracle drift caught without executing the reference
# ---------------------------------------------------------------------------


def _load_make_golden():
    spec = importlib.util.spec_from_file_location(
        "make_golden", DATA_DIR / "make_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenDigests:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(DATA_DIR / "golden_series.json", "r", encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.fixture(scope="class")
    def make_golden(self):
        return _load_make_golden()

    def test_golden_covers_every_preset(self, golden):
        assert set(golden["digests"]) == {c.name for c in all_core_microarches()}
        assert len(golden["digests"]) == 20

    def test_scalar_kernel_matches_golden(self, golden, make_golden):
        trace = make_golden.golden_trace()
        for config in all_core_microarches():
            result = simulate_batch_scalar(
                config, [trace], step_cycles=make_golden.STEP_CYCLES
            )[0]
            digest = make_golden.series_digest(result)
            assert digest == golden["digests"][config.name], (
                f"{config.name}: scalar kernel drifted from the pinned oracle "
                "(regenerate via tests/data/make_golden.py ONLY for a "
                "deliberate semantic change)"
            )

    def test_native_kernel_matches_golden(self, golden, make_golden):
        if not native_available():
            pytest.skip("no C compiler on this host (scalar fallback covered "
                        "by test_native_kernel.py)")
        trace = make_golden.golden_trace()
        for config in all_core_microarches():
            result = simulate_batch_native(
                config, [trace], step_cycles=make_golden.STEP_CYCLES
            )[0]
            digest = make_golden.series_digest(result)
            assert digest == golden["digests"][config.name], (
                f"{config.name}: native kernel drifted from the pinned oracle"
            )


# ---------------------------------------------------------------------------
# Cross-kernel engine/store contract
# ---------------------------------------------------------------------------


def _engine_jobs(registry: TraceRegistry, trace_ids, step=256):
    from repro.bugs.core_bugs import SerializeOpcode as Ser

    return [
        SimulationJob(study="core", config=core_microarch(name), bug=bug,
                      trace_id=tid, step=step)
        for name in ("Skylake", "K8")
        for bug in (None, RegisterReduction(16), Ser(Opcode.XOR))
        for tid in trace_ids
    ]


class TestCrossKernelEngine:
    @pytest.fixture()
    def synthetic_registry(self, gcc_program):
        registry = TraceRegistry()
        ids = [
            registry.register(
                decode_trace(TraceGenerator(gcc_program, seed=70 + i).generate(500))
            )
            for i in range(4)
        ]
        return registry, ids

    def test_native_engine_results_match_scalar(self, synthetic_registry, no_compiler):
        registry, ids = synthetic_registry
        jobs = _engine_jobs(registry, ids)
        with no_compiler():
            scalar = JobEngine(jobs=1).run(jobs, registry.traces)
        native = JobEngine(jobs=1).run(jobs, registry.traces)
        for a, b in zip(scalar, native):
            assert a.cycles == b.cycles
            assert set(a.counters) == set(b.counters)
            for name in a.counters:
                assert np.array_equal(a.counters[name], b.counters[name]), name

    def test_scalar_store_replays_under_native(
        self, synthetic_registry, tmp_path, no_compiler
    ):
        """Content digests must not depend on the kernel: a store filled
        without a compiler serves a native run with executed=0, and the
        native-filled store replays without a compiler the same way."""
        registry, ids = synthetic_registry
        jobs = _engine_jobs(registry, ids)
        store = ResultStore(tmp_path / "store")
        with no_compiler():
            filler = JobEngine(jobs=1, store=store)
            filler.run(jobs, registry.traces)
        assert filler.stats.executed == len(jobs)
        replayer = JobEngine(jobs=1, store=store)
        replayer.run(jobs, registry.traces)
        assert replayer.stats.executed == 0
        assert replayer.stats.store_hits == len(jobs)

    def test_native_store_replays_under_scalar(
        self, synthetic_registry, tmp_path, no_compiler
    ):
        registry, ids = synthetic_registry
        jobs = _engine_jobs(registry, ids)
        store = ResultStore(tmp_path / "store")
        JobEngine(jobs=1, store=store).run(jobs, registry.traces)
        with no_compiler():
            replayer = JobEngine(jobs=1, store=store)
            replayer.run(jobs, registry.traces)
        assert replayer.stats.executed == 0

    def test_cross_kernel_on_ingested_golden_traces(self, tmp_path, no_compiler):
        """Same contract over the checked-in on-disk trace samples."""
        registry = TraceRegistry()
        ids = []
        for sample in ("403.gcc.champsim.gz", "458.sjeng.champsim.xz"):
            ingested = ingest_trace(DATA_DIR / sample)
            ids.append(registry.register(decode_trace(ingested.decoded.uops[:600])))
        jobs = [
            SimulationJob(study="core", config=core_microarch(name), bug=bug,
                          trace_id=tid, step=256)
            for name in ("Skylake", "Cedarview")
            for bug in (None, BPTableReduction(1024))
            for tid in ids
        ]
        store = ResultStore(tmp_path / "store")
        with no_compiler():
            scalar = JobEngine(jobs=1, store=store).run(jobs, registry.traces)
        replayer = JobEngine(jobs=1, store=store)
        replayer.run(jobs, registry.traces)
        assert replayer.stats.executed == 0  # digests are kernel-independent
        # and a fresh native run over the same jobs is bit-identical
        fresh = JobEngine(jobs=1).run(jobs, registry.traces)
        for a, b in zip(scalar, fresh):
            assert a.cycles == b.cycles
            for name in a.counters:
                assert np.array_equal(a.counters[name], b.counters[name]), name

    def test_plan_batches_groups_only_under_native(self, synthetic_registry):
        """Same-(config, bug, step) core jobs form one unit anchored at the
        group's first index, whatever the bug type; memory jobs stay
        single.  The plan depends on the chunk alone."""
        _registry, (a, b, *_rest) = synthetic_registry
        skylake, k8 = core_microarch("Skylake"), core_microarch("K8")
        serialize = SerializeOpcode(Opcode.XOR)

        def core(config, bug, trace_id):
            return SimulationJob(study="core", config=config, bug=bug,
                                 trace_id=trace_id, step=256)

        chunk = list(enumerate([
            core(skylake, None, a),                      # 0: group A
            core(k8, None, a),                           # 1: group B
            core(skylake, serialize, a),                 # 2: group C
            core(skylake, None, b),                      # 3: group A
            SimulationJob(study="memory", config=memory_microarch("Skylake-mem"),
                          bug=None, trace_id=a, step=256),  # 4: memory study
            core(k8, None, b),                           # 5: group B
            core(skylake, serialize, b),                 # 6: group C
            core(skylake, RegisterReduction(16), a),     # 7: group D
        ]))

        def indices(units):
            return [[index for index, _job in unit] for unit in units]

        assert indices(plan_batches(chunk)) == [[0, 3], [1, 5], [2, 6], [4], [7]]
