"""Cluster backend suite: conformance, chaos, liveness and dispatch order.

The conformance half extends the backend guarantee to ``cluster:N``:
scheduler-managed workers produce :class:`StoredResult` payloads
bit-identical to ``serial``.  The chaos half drives the survival story —
``REPRO_CLUSTER_CHAOS=kill:<n>`` SIGKILLs a worker mid-sweep and the sweep
must still complete with nothing executed twice (store-hit accounting on
replay).  The rest unit-tests the dispatch order, the spec grammar and the
elastic resize path.
"""

import sys

import numpy as np
import pytest

from repro.cluster.backend import (
    CHAOS_ENV_VAR,
    ClusterBackend,
    _chaos_from_env,
    parse_cluster_spec,
)
from repro.cluster.scheduler import ChunkTicket, _Slot
from repro.runtime import (
    BackendError,
    JobEngine,
    ResultStore,
    SimulationJob,
    TraceRegistry,
    parse_backend,
)
from repro.runtime.worker import local_worker_command
from repro.uarch import core_microarch
from repro.bugs.core_bugs import SerializeOpcode
from repro.workloads import TraceGenerator, build_program, workload
from repro.workloads.isa import Opcode

#: Script for a worker that handshakes correctly, swallows every frame and
#: never answers — indistinguishable from a live worker except for the
#: missing heartbeats.  (It must keep *reading* so the driver's trace/chunk
#: writes never block on a full pipe.)
HANG_WORKER = """
import sys
from repro.runtime.framing import HELLO, PROTOCOL_VERSION, read_frame, write_frame
read_frame(sys.stdin.buffer)
write_frame(sys.stdout.buffer, HELLO, {"protocol": PROTOCOL_VERSION})
while read_frame(sys.stdin.buffer, allow_eof=True) is not None:
    pass
"""


@pytest.fixture(scope="module")
def tiny_trace():
    program = build_program(workload("403.gcc"), seed=31)
    return TraceGenerator(program, seed=32).generate(1200)


@pytest.fixture(scope="module")
def registry(tiny_trace):
    registry = TraceRegistry()
    registry.register(tiny_trace)
    return registry


def _core_jobs(registry, trace, configs=("Skylake", "K8"), step=256):
    trace_id = registry.register(trace)
    return [
        SimulationJob(study="core", config=core_microarch(name), bug=bug,
                      trace_id=trace_id, step=step)
        for name in configs
        for bug in (None, SerializeOpcode(Opcode.XOR))
    ]


@pytest.fixture(scope="module")
def serial_reference(registry, tiny_trace):
    jobs = _core_jobs(registry, tiny_trace)
    return jobs, JobEngine(backend="serial").run(jobs, registry.traces)


def _assert_stored_equal(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.study == b.study
        assert a.config_name == b.config_name
        assert a.bug_name == b.bug_name
        assert a.instructions == b.instructions
        assert a.cycles == b.cycles
        assert a.amat == b.amat
        assert a.step == b.step
        assert np.array_equal(a.ipc, b.ipc)
        assert set(a.counters) == set(b.counters)
        for name in a.counters:
            assert np.array_equal(a.counters[name], b.counters[name]), name


# -- conformance -------------------------------------------------------------


class TestClusterConformance:
    def test_bit_identical_to_serial(self, registry, tiny_trace, serial_reference):
        jobs, reference = serial_reference
        spec = "cluster:2,heartbeat=0.1"
        with JobEngine(backend=spec, chunk_size=1) as engine:
            results = engine.run(jobs, registry.traces)
            assert engine.stats.workers_spawned >= 1
            assert engine.stats.workers_lost == 0
            assert engine.stats.chunks_requeued == 0
        _assert_stored_equal(reference, results)

    def test_cluster_ships_each_trace_once_per_worker(self, registry, tiny_trace):
        jobs = _core_jobs(registry, tiny_trace)
        with JobEngine(backend="cluster:2,heartbeat=0.1", chunk_size=1) as engine:
            engine.run(jobs, registry.traces)
            assert 1 <= engine.stats.traces_shipped <= 2
            engine.run(jobs, registry.traces)
            # Reused workers already hold the trace.
            assert engine.stats.traces_shipped <= 2
            assert engine.stats.pool_reuses == 1

    def test_spec_roundtrip_through_parse_backend(self):
        backend = parse_backend("cluster:3,heartbeat=0.5")
        try:
            assert isinstance(backend, ClusterBackend)
            assert backend.spec == "cluster:3"
            assert backend.slots == 3
            assert backend.scheduler.heartbeat == 0.5
        finally:
            backend.close()


# -- chaos: SIGKILLed workers never lose work --------------------------------


class TestClusterChaos:
    def test_kill_mid_sweep_requeues_and_completes(
        self, registry, tiny_trace, tmp_path, monkeypatch, serial_reference
    ):
        jobs, reference = serial_reference
        monkeypatch.setenv(CHAOS_ENV_VAR, "kill:2")
        store = ResultStore(tmp_path / "store")
        spec = "cluster:2,heartbeat=0.1,deadline=2,backoff=0.05"
        with JobEngine(backend=spec, chunk_size=1, store=store) as engine:
            results = engine.run(jobs, registry.traces)
            assert engine.stats.workers_lost >= 1
            assert engine.stats.chunks_requeued >= 1
            assert engine.stats.executed == len(jobs)
        _assert_stored_equal(reference, results)

        # Replay against the survivor store: everything was persisted exactly
        # once despite the kill — nothing executes again.
        monkeypatch.delenv(CHAOS_ENV_VAR)
        replay = JobEngine(jobs=1, store=store)
        replayed = replay.run(jobs, registry.traces)
        assert replay.stats.executed == 0
        assert replay.stats.store_hits == len(jobs)
        _assert_stored_equal(reference, replayed)

        # The store holds exactly the serial run's keys, bit-identical.
        serial_store = ResultStore(tmp_path / "serial")
        JobEngine(backend="serial", store=serial_store).run(jobs, registry.traces)
        assert sorted(store.keys()) == sorted(serial_store.keys())

    def test_single_worker_kill_forces_respawn(
        self, registry, tiny_trace, monkeypatch, serial_reference
    ):
        jobs, reference = serial_reference
        monkeypatch.setenv(CHAOS_ENV_VAR, "kill:1")
        spec = "cluster:1,heartbeat=0.1,deadline=2,backoff=0.01"
        with JobEngine(backend=spec, chunk_size=1) as engine:
            results = engine.run(jobs, registry.traces)
            assert engine.stats.workers_lost >= 1
            assert engine.stats.chunks_requeued >= 1
            # Only one slot exists, so finishing the sweep required respawn.
            assert engine.stats.workers_respawned >= 1
        _assert_stored_equal(reference, results)

    def test_chaos_env_parsing(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "kill:3")
        assert _chaos_from_env() == ("kill", 3)
        monkeypatch.setenv(CHAOS_ENV_VAR, "kill")
        assert _chaos_from_env() == ("kill", 1)
        monkeypatch.setenv(CHAOS_ENV_VAR, "")
        assert _chaos_from_env() is None
        monkeypatch.setenv(CHAOS_ENV_VAR, "explode:1")
        with pytest.raises(ValueError):
            _chaos_from_env()
        monkeypatch.setenv(CHAOS_ENV_VAR, "kill:soon")
        with pytest.raises(ValueError):
            _chaos_from_env()


# -- liveness: hung and unspawnable workers ----------------------------------


class TestClusterLiveness:
    def test_hung_worker_is_killed_requeued_and_replaced(
        self, registry, tiny_trace, serial_reference
    ):
        """First spawn hangs after the handshake (no heartbeats); the
        liveness deadline must kill it, requeue its chunk and finish the
        sweep on a respawned real worker."""
        jobs, reference = serial_reference
        spawns = {"n": 0}

        def factory(_slot):
            spawns["n"] += 1
            if spawns["n"] == 1:
                return [sys.executable, "-c", HANG_WORKER]
            return local_worker_command()

        backend = ClusterBackend(
            1, command_factory=factory,
            heartbeat=0.05, deadline=0.5, backoff=0.01,
        )
        with JobEngine(backend=backend, chunk_size=1) as engine:
            results = engine.run(jobs, registry.traces)
            assert engine.stats.workers_lost >= 1
            assert engine.stats.chunks_requeued >= 1
            assert engine.stats.workers_respawned >= 1
        _assert_stored_equal(reference, results)

    def test_unspawnable_workers_fail_the_sweep_loudly(
        self, registry, tiny_trace
    ):
        """Every spawn dies before the handshake: after max_respawns
        exponential-backoff attempts the slot fails permanently and drain
        raises instead of polling forever."""
        jobs = _core_jobs(registry, tiny_trace, configs=("Skylake",))
        backend = ClusterBackend(
            1, command_factory=lambda _slot: [sys.executable, "-c", "raise SystemExit(0)"],
            heartbeat=0.05, deadline=1.0, backoff=0.01, max_respawns=2,
        )
        with pytest.raises(BackendError, match="failed permanently"):
            with JobEngine(backend=backend, chunk_size=1) as engine:
                engine.run(jobs, registry.traces)

    def test_elastic_resize_shrinks_idle_workers(self, registry, tiny_trace):
        jobs = _core_jobs(registry, tiny_trace)
        with JobEngine(backend="cluster:2,heartbeat=0.1", chunk_size=1) as engine:
            engine.run(jobs, registry.traces)
            backend = engine.backend
            assert backend.scheduler.live_workers() == 2
            backend.resize(1)
            assert backend.scheduler.live_workers() == 1
            assert backend.describe()["parallelmax"] == 1
            # The shrunk pool still completes a batch.
            results = engine.run(jobs, registry.traces)
            assert len(results) == len(jobs)


# -- dispatch order ----------------------------------------------------------


class TestDispatchOrder:
    def test_submission_order_with_requeued_chunk_first(self):
        """Chunks dispatch in the order the engine submitted them (its LJF
        plan, costliest first); a chunk recovered from a lost worker goes
        to the head of the queue."""
        backend = ClusterBackend(1, heartbeat=0.1)
        try:
            scheduler = backend.scheduler
            for tag in range(3):
                scheduler.submit(ChunkTicket(tag=tag, chunk=[]))
            slot = _Slot(0)
            slot.ticket = ChunkTicket(tag=7, chunk=[])
            slot.ticket_epoch = scheduler._epoch
            scheduler._slot_down(slot, "lost in a test")
            assert [t.tag for t in scheduler._queued] == [7, 0, 1, 2]
            assert slot.ticket is None
            assert scheduler.stats.chunks_requeued == 1
        finally:
            backend.close()


# -- spec grammar ------------------------------------------------------------


class TestClusterSpec:
    def test_defaults_and_canonical_spec(self):
        backend = parse_cluster_spec("cluster")
        try:
            assert backend.slots == 2
            assert backend.spec == "cluster:2"
        finally:
            backend.close()

    def test_full_option_set(self):
        backend = parse_cluster_spec(
            "cluster:4,heartbeat=0.5,deadline=3,backoff=0.1,respawns=7"
        )
        try:
            assert backend.slots == 4
            assert backend.spec == "cluster:4"
            scheduler = backend.scheduler
            assert scheduler.heartbeat == 0.5
            assert scheduler.deadline == 3.0
            assert scheduler.backoff == 0.1
            assert scheduler.max_respawns == 7
        finally:
            backend.close()

    @pytest.mark.parametrize("spec, message", [
        ("clusterx", "must start with 'cluster'"),
        ("cluster:zero", "not a worker count"),
        ("cluster:0", "count must be >= 1"),
        ("cluster:2,policy", "expected key=value"),
        ("cluster:2,heartbeat=fast", "heartbeat must be a number"),
        ("cluster:2,respawns=many", "respawns must be an integer"),
        ("cluster:2,colour=red", "unknown option"),
    ])
    def test_bad_specs_are_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_cluster_spec(spec)

    def test_policy_key_is_rejected_by_name(self):
        """There is one dispatch order, so a ``policy=`` key is an error
        that names it, not a silently ignored option."""
        with pytest.raises(ValueError, match=r"unknown option\(s\) policy \("):
            parse_cluster_spec("cluster:2,policy=ljf")

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least one worker"):
            ClusterBackend(0)


# -- repro-cluster CLI -------------------------------------------------------


class TestClusterCLI:
    def test_health_probes_real_workers(self, capsys):
        from repro.cluster.cli import main as cluster_main

        assert cluster_main(["health", "--workers", "1", "--heartbeat", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "worker#0: ok" in output
        assert "1/1 workers ok" in output

    def test_roster_writes_store_keys(self, tmp_path, capsys):
        from repro.cluster.cli import main as cluster_main

        roster_path = tmp_path / "roster.txt"
        assert cluster_main([
            "roster", "--scale", "smoke", "--output", str(roster_path),
        ]) == 0
        assert "keys ->" in capsys.readouterr().out
        keys = [
            line for line in roster_path.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(keys) == len(set(keys)) > 0
        assert all(key == key.strip() and " " not in key for key in keys)

    def test_plan_sizes_chunks_for_n_slots_without_workers(
        self, capsys, monkeypatch
    ):
        import repro.runtime.backends.local as local
        from repro.cluster.cli import main as cluster_main

        def no_pool(*_args, **_kwargs):
            raise AssertionError("repro-cluster plan started a worker pool")

        monkeypatch.setattr(local, "ProcessPoolExecutor", no_pool)
        assert cluster_main(["plan", "--scale", "smoke", "--workers", "4"]) == 0
        output = capsys.readouterr().out
        # 60 smoke jobs over 4 slots: four chunks per slot, 3 jobs each
        assert "workers=4 -> 20 chunks" in output
        rows = [line for line in output.splitlines() if "cost=" in line]
        assert len(rows) == 20
        assert all("jobs=3 " in line for line in rows)
        costs = [int(line.rsplit("cost=", 1)[1]) for line in rows]
        assert costs == sorted(costs, reverse=True)  # costliest first
