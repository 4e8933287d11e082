"""Execution-backend conformance suite, spec grammar and failure modes.

The conformance half pins the tentpole guarantee: ``serial``, ``local:N``
and ``subprocess:N`` produce bit-identical :class:`StoredResult` payloads
for the same batch, on synthetic *and* ingested traces.  The failure-mode
half covers the ways workers die: job exceptions (kept as values), worker
processes killed mid-chunk (a pool failure, or a requeue on the cluster
scheduler behind ``subprocess``/``cluster``, which fails the batch once
one chunk has used up its requeues), chunks a worker cannot unpickle,
protocol version mismatches, truncated frame streams and
``KeyboardInterrupt``.
"""

import io
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.bugs.core_bugs import SerializeOpcode
from repro.cluster import scheduler
from repro.cluster.backend import ClusterBackend
from repro.cluster.scheduler import spawn_worker
from repro.coresim.hooks import CoreBugModel
from repro.runtime import (
    BackendError,
    JobEngine,
    JobFailedError,
    LocalBackend,
    ProtocolError,
    SerialBackend,
    SimulationJob,
    TraceRegistry,
    parse_backend,
    spec_for_jobs,
)
from repro.runtime.execution import ChunkFailure, run_chunk_items
from repro.runtime.framing import (
    CHUNK,
    ERROR,
    HELLO,
    PROTOCOL_VERSION,
    RESULT,
    SHUTDOWN,
    TRACES,
    check_hello,
    read_frame,
    write_frame,
)
from repro.runtime.worker import local_worker_command, serve
from repro.uarch import core_microarch, memory_microarch
from repro.workloads import TraceGenerator, build_program, workload
from repro.workloads.ingest import discover_traces
from repro.workloads.isa import Opcode
from worker_bugs import ExplodingBug, WorkerKillerBug

DATA_DIR = Path(__file__).resolve().parent / "data"

#: Worker processes must be able to unpickle the bug classes in
#: ``worker_bugs``, so this directory joins PYTHONPATH for spawned workers.
TESTS_DIR = str(Path(__file__).resolve().parent)


class DriverOnlyBug(CoreBugModel):
    """Stands in for a bug class defined in a driver script's ``__main__``:
    the driver pickles it by reference, and no worker can resolve it."""

    name = "driver-only"


#: Worker that completes the handshake and exits — lost before its first
#: chunk.  It frames by hand so that it starts without importing repro.
HANDSHAKE_THEN_QUIT_WORKER = r"""
import pickle, struct, sys
(length,) = struct.unpack(">Q", sys.stdin.buffer.read(8))
sys.stdin.buffer.read(length)
body = pickle.dumps(("hello", {"protocol": %d}))
sys.stdout.buffer.write(struct.pack(">Q", len(body)) + body)
""" % PROTOCOL_VERSION


@pytest.fixture()
def worker_env(monkeypatch):
    """Let spawned repro-worker processes import ``worker_bugs``."""
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv(
        "PYTHONPATH",
        os.pathsep.join(p for p in (existing, TESTS_DIR) if p),
    )


@pytest.fixture(scope="module")
def tiny_trace():
    program = build_program(workload("403.gcc"), seed=21)
    return TraceGenerator(program, seed=22).generate(1200)


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


# -- conformance: serial == local == subprocess ------------------------------


@pytest.fixture(scope="module")
def conformance_batch(registry, tiny_trace):
    """Synthetic core + memory jobs plus jobs on an ingested golden trace."""
    jobs = _core_jobs(registry, tiny_trace)
    jobs.append(
        SimulationJob(
            study="memory", config=memory_microarch("Skylake-mem"), bug=None,
            trace_id=registry.register(tiny_trace), step=500,
        )
    )
    ingested = discover_traces(DATA_DIR, "champsim")[0]
    ingested_id = ingested.register(registry)
    jobs.extend(
        SimulationJob(study="core", config=core_microarch("Skylake"), bug=bug,
                      trace_id=ingested_id, step=512)
        for bug in (None, SerializeOpcode(Opcode.SUB))
    )
    return jobs


@pytest.fixture(scope="module")
def serial_reference(conformance_batch, registry):
    return JobEngine(backend="serial").run(conformance_batch, registry.traces)


class TestBackendConformance:
    @pytest.mark.parametrize("spec", ["local:2", "subprocess:2"])
    def test_bit_identical_to_serial(
        self, spec, conformance_batch, registry, serial_reference
    ):
        with JobEngine(backend=spec, chunk_size=2) as engine:
            results = engine.run(conformance_batch, registry.traces)
        _assert_stored_equal(serial_reference, results)

    def test_subprocess_ships_each_trace_once_per_worker(
        self, registry, tiny_trace
    ):
        jobs = _core_jobs(registry, tiny_trace)
        with JobEngine(backend="subprocess:2", chunk_size=1) as engine:
            engine.run(jobs, registry.traces)
            engine.run(jobs, registry.traces)
            # Two batches, one trace, two workers: the trace crossed the
            # wire at most once per worker no matter how chunks landed.
            assert 1 <= engine.stats.traces_shipped <= 2
            assert engine.stats.pool_reuses == 1

    def test_dropped_engine_reaps_subprocess_workers(self, registry, tiny_trace):
        """A garbage-collected engine must not leak worker processes."""
        import gc

        jobs = _core_jobs(registry, tiny_trace, configs=("Skylake",))
        engine = JobEngine(backend="subprocess:2", chunk_size=1)
        engine.run(jobs, registry.traces)
        processes = list(engine.backend.scheduler._process_registry.values())
        assert processes and all(p.poll() is None for p in processes)
        del engine
        gc.collect()
        for process in processes:  # the scheduler finalizer reaps them
            process.wait(timeout=10)

    def test_jobs_sugar_still_selects_local_backend(self):
        assert JobEngine(jobs=1).backend.spec == "serial"
        engine = JobEngine(jobs=3)
        assert engine.backend.spec == "local:3"
        assert engine.jobs == 3

    def test_single_pending_job_still_goes_remote(self, registry, tiny_trace):
        """A remote backend was chosen to place work elsewhere: even a
        one-job batch must run through it, not inline in the driver."""
        job = _core_jobs(registry, tiny_trace, configs=("Skylake",))[0]
        with JobEngine(backend="subprocess:1") as engine:
            results = engine.run([job], registry.traces)
        assert engine.stats.pool_creates == 1  # the worker actually spawned
        assert results[0].cycles > 0
        # Local backends keep the seed behaviour: one job runs inline.
        with JobEngine(jobs=2) as local:
            local.run([job], registry.traces)
        assert local.stats.pool_creates == 0

    def test_dead_idle_worker_triggers_rebuild_on_next_batch(
        self, registry, tiny_trace
    ):
        """A worker lost between batches must not shrink capacity silently:
        the next batch notices the loss (its reader saw EOF, or the
        dispatch write fails) and respawns the slot as work demands."""
        jobs = _core_jobs(registry, tiny_trace)
        with JobEngine(backend="subprocess:2", chunk_size=1) as engine:
            engine.run(jobs, registry.traces)
            victim = engine.backend.scheduler._slots[1].incarnation.process
            victim.kill()
            victim.wait()
            results = engine.run(jobs, registry.traces)
            assert all(r.cycles > 0 for r in results)
            assert engine.stats.workers_lost == 1


# -- spec grammar ------------------------------------------------------------


class TestBackendSpecs:
    def test_parse_known_specs(self):
        assert isinstance(parse_backend("serial"), SerialBackend)
        local = parse_backend("local:4")
        assert isinstance(local, LocalBackend)
        assert local.slots == 4 and local.spec == "local:4"
        sub = parse_backend("subprocess:3")
        assert isinstance(sub, ClusterBackend)
        assert sub.slots == 3 and sub.remote and sub.spec == "subprocess:3"
        assert sub.scheduler.command_factory(0) == local_worker_command()
        assert parse_backend("subprocess").spec == "subprocess:2"  # default

    def test_parse_ssh_hosts(self):
        backend = parse_backend("ssh://hostA:2,hostB:3")
        assert isinstance(backend, ClusterBackend)
        assert backend.slots == 5
        assert backend.spec == "ssh://hostA:2,hostB:3"
        commands = [backend.scheduler.command_factory(i) for i in range(5)]
        assert all(command[0] == "ssh" for command in commands)
        assert [command[-2] for command in commands] == (
            ["hostA"] * 2 + ["hostB"] * 3
        )
        assert parse_backend("ssh://solo").slots == 1  # default one per host

    def test_ssh_slot_respawns_on_its_own_host(self, registry, tiny_trace):
        """Slot i's worker, and every respawn of it, runs on host i.  The
        ssh command is recorded and swapped for a local worker that quits
        after its handshake (no network), so slots keep respawning until
        the requeue cap fails the batch."""
        backend = parse_backend("ssh://hostA:1,hostB:2")
        ssh_command = backend.scheduler.command_factory
        spawned = []

        def factory(index):
            spawned.append((index, ssh_command(index)[-2]))
            return [sys.executable, "-c", HANDSHAKE_THEN_QUIT_WORKER]

        backend.scheduler.command_factory = factory
        backend.scheduler.backoff = 0.01
        jobs = _core_jobs(registry, tiny_trace)
        with JobEngine(backend=backend, chunk_size=1) as engine:
            with pytest.raises(BackendError, match="lost its worker 6 times"):
                engine.run(jobs, registry.traces)
        hosts = {0: "hostA", 1: "hostB", 2: "hostB"}
        assert [index for index, _ in spawned[:3]] == [0, 1, 2]
        assert len(spawned) > len(hosts)  # some slot respawned
        assert all(host == hosts[index] for index, host in spawned)

    def test_backend_instance_passes_through(self):
        backend = SerialBackend()
        assert parse_backend(backend) is backend
        assert JobEngine(backend=backend).backend is backend

    @pytest.mark.parametrize("spec", [
        "quantum", "local:x", "local:0", "subprocess:-1", "subprocess:x",
        "ssh://", "ssh://:4", "ssh://hostA:0",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_backend(spec)

    def test_jobs_and_backend_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            JobEngine(jobs=2, backend="serial")

    def test_spec_for_jobs(self):
        assert spec_for_jobs(1) == "serial"
        assert spec_for_jobs(4) == "local:4"

    def test_backend_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "local:3")
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert JobEngine().backend.spec == "local:3"  # REPRO_BACKEND wins
        monkeypatch.delenv("REPRO_BACKEND")
        assert JobEngine().backend.spec == "local:7"  # REPRO_JOBS sugar
        # Explicit arguments beat the environment.
        assert JobEngine(jobs=1).backend.spec == "serial"
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert JobEngine(backend="local:2").backend.spec == "local:2"


# -- wire protocol units -----------------------------------------------------


class TestFrameProtocol:
    def test_round_trip(self):
        buffer = io.BytesIO()
        write_frame(buffer, TRACES, {"abc": [1, 2, 3]})
        buffer.seek(0)
        assert read_frame(buffer) == (TRACES, {"abc": [1, 2, 3]})

    def test_eof_at_boundary(self):
        assert read_frame(io.BytesIO(), allow_eof=True) is None
        with pytest.raises(ProtocolError, match="closed"):
            read_frame(io.BytesIO())

    def test_truncated_header_and_body(self):
        buffer = io.BytesIO()
        write_frame(buffer, HELLO, {"protocol": 1})
        whole = buffer.getvalue()
        for cut in (4, len(whole) - 3):  # inside header, inside body
            with pytest.raises(ProtocolError, match="truncated"):
                read_frame(io.BytesIO(whole[:cut]))

    def test_oversized_frame_rejected(self):
        garbage = io.BytesIO(b"garbage!")  # 8 ASCII bytes = a huge length
        with pytest.raises(ProtocolError, match="oversized"):
            read_frame(garbage)

    def test_undecodable_body_rejected(self):
        import struct

        body = b"notpickle"
        stream = io.BytesIO(struct.pack(">Q", len(body)) + body)
        with pytest.raises(ProtocolError, match="undecodable"):
            read_frame(stream)

    def test_check_hello_version_mismatch(self):
        check_hello({"protocol": PROTOCOL_VERSION}, side="worker")
        with pytest.raises(ProtocolError, match="version mismatch"):
            check_hello({"protocol": PROTOCOL_VERSION + 1}, side="worker")
        with pytest.raises(ProtocolError, match="version mismatch"):
            check_hello("nonsense", side="worker")


class TestWorkerServe:
    """Drive repro.runtime.worker.serve over in-memory streams."""

    def _session(self, frames):
        stdin = io.BytesIO()
        for kind, payload in frames:
            write_frame(stdin, kind, payload)
        stdin.seek(0)
        stdout = io.BytesIO()
        code = serve(stdin, stdout)
        stdout.seek(0)
        replies = []
        while True:
            frame = read_frame(stdout, allow_eof=True)
            if frame is None:
                return code, replies
            replies.append(frame)

    def test_full_session(self, registry, tiny_trace):
        trace_id = registry.register(tiny_trace)
        job = SimulationJob(study="core", config=core_microarch("Skylake"),
                            bug=None, trace_id=trace_id, step=256)
        code, replies = self._session([
            (HELLO, {"protocol": PROTOCOL_VERSION}),
            (TRACES, {trace_id: tiny_trace}),
            (CHUNK, (7, [(0, job)])),
            (SHUTDOWN, None),
        ])
        assert code == 0
        assert replies[0][0] == HELLO
        assert replies[0][1]["protocol"] == PROTOCOL_VERSION
        kind, (tag, (results, failure)) = replies[1]
        assert kind == RESULT and tag == 7 and failure is None
        (index, stored), = results
        assert index == 0 and stored.cycles > 0

    def test_version_mismatch_rejected(self):
        code, replies = self._session([(HELLO, {"protocol": 999})])
        assert code == 2
        assert replies[0][0] == ERROR
        assert "version mismatch" in replies[0][1]

    def test_unexpected_frame_kind_rejected(self):
        code, replies = self._session([
            (HELLO, {"protocol": PROTOCOL_VERSION}),
            ("teleport", None),
        ])
        assert code == 2
        assert replies[-1][0] == ERROR

    def test_eof_is_a_clean_exit(self):
        code, replies = self._session([(HELLO, {"protocol": PROTOCOL_VERSION})])
        assert code == 0 and replies[0][0] == HELLO

    def test_chunk_failure_travels_as_value(self, registry, tiny_trace):
        trace_id = registry.register(tiny_trace)
        job = SimulationJob(study="core", config=core_microarch("Skylake"),
                            bug=ExplodingBug(), trace_id=trace_id, step=256)
        results, failure = run_chunk_items([(0, job)], {trace_id: tiny_trace})
        assert results == []
        assert isinstance(failure, ChunkFailure)
        assert "boom at simulation start" in failure.remote_traceback


# -- failure modes -----------------------------------------------------------


class TestJobFailures:
    @pytest.mark.parametrize("spec", ["serial", "local:2", "subprocess:2"])
    def test_job_exception_raises_and_backend_survives(
        self, spec, registry, tiny_trace, worker_env
    ):
        trace_id = registry.register(tiny_trace)
        bad = SimulationJob(study="core", config=core_microarch("Skylake"),
                            bug=ExplodingBug(), trace_id=trace_id, step=256)
        good = _core_jobs(registry, tiny_trace, configs=("Skylake",))
        with JobEngine(backend=spec, chunk_size=1) as engine:
            with pytest.raises(JobFailedError) as excinfo:
                engine.run(good + [bad], registry.traces)
            assert "boom at simulation start" in str(excinfo.value)
            assert "exploding" in excinfo.value.description
            # The failure was the job's fault: workers stay warm and the
            # next batch runs clean on the same engine.
            results = engine.run(good, registry.traces)
            assert all(r.cycles > 0 for r in results)
            if spec != "serial":
                assert engine.stats.pool_creates == 1
                assert engine.stats.pool_reuses >= 1


class TestWorkerDeath:
    def test_local_worker_killed_mid_chunk(self, registry, tiny_trace):
        trace_id = registry.register(tiny_trace)
        killer = SimulationJob(study="core", config=core_microarch("Skylake"),
                               bug=WorkerKillerBug(), trace_id=trace_id, step=256)
        good = _core_jobs(registry, tiny_trace)
        with JobEngine(jobs=2, chunk_size=1) as engine:
            with pytest.raises(BrokenProcessPool):
                engine.run(good + [killer], registry.traces)
            # The pool was torn down; the next batch gets a fresh one.
            results = engine.run(good, registry.traces)
            assert all(r.cycles > 0 for r in results)
            assert engine.stats.pool_creates == 2

    def test_subprocess_worker_killed_mid_chunk(
        self, registry, tiny_trace, worker_env
    ):
        message = _fail_on_lost_chunk("subprocess:2", _killer(registry, tiny_trace),
                                      registry, tiny_trace)
        assert "last loss: subprocess:2#" in message

    def test_cluster_worker_killed_mid_chunk(self, registry, tiny_trace, worker_env):
        message = _fail_on_lost_chunk("cluster:1,backoff=0.01,respawns=1",
                                      _killer(registry, tiny_trace),
                                      registry, tiny_trace)
        assert "last loss: cluster:1#0" in message

    @pytest.mark.parametrize(
        "spec", ["subprocess:2", "cluster:2,backoff=0.01,respawns=1"]
    )
    def test_unpicklable_chunk_fails_the_batch(
        self, spec, registry, tiny_trace, monkeypatch
    ):
        """The bug class lives in the driver's ``__main__`` only: every
        worker rejects the chunk frame it cannot unpickle and exits."""
        monkeypatch.setattr(DriverOnlyBug, "__module__", "__main__")
        monkeypatch.setattr(
            sys.modules["__main__"], "DriverOnlyBug", DriverOnlyBug, raising=False
        )
        bad = SimulationJob(study="core", config=core_microarch("Skylake"),
                            bug=DriverOnlyBug(),
                            trace_id=registry.register(tiny_trace), step=256)
        message = _fail_on_lost_chunk(spec, bad, registry, tiny_trace)
        assert "bad frame" in message and "DriverOnlyBug" in message


#: Bound on how long a batch whose chunk loses every worker it reaches may
#: take to fail: at most max_respawns + 1 = 6 worker starts (~0.4 s each on
#: a 2-vCPU VM) plus 0.25 s of backoff per loss, with slack for CI hosts.
LOST_CHUNK_BOUND_S = 20.0


def _killer(registry, trace):
    return SimulationJob(study="core", config=core_microarch("Skylake"),
                         bug=WorkerKillerBug(), trace_id=registry.register(trace),
                         step=256)


def _fail_on_lost_chunk(spec, bad_job, registry, trace):
    """Run *bad_job* on *spec*: the batch must fail with a BackendError
    naming the chunk once its requeues are used up, in bounded time, and
    the engine's next batch must complete.  Returns the message."""
    good = _core_jobs(registry, trace, configs=("Skylake",))[:1]
    with JobEngine(backend=spec, chunk_size=1) as engine:
        started = time.monotonic()
        with pytest.raises(
            BackendError, match=r"chunk \d+ lost its worker \d+ times .*; last loss: "
        ) as excinfo:
            engine.run([bad_job], registry.traces)
        assert time.monotonic() - started < LOST_CHUNK_BOUND_S
        pool = engine.backend.scheduler
        # The engine tore the worker set down.
        assert pool.live_workers() == 0 and not pool._process_registry
        cap = pool.max_respawns
        assert engine.stats.chunks_requeued == cap
        assert engine.stats.workers_lost == cap + 1
        message = str(excinfo.value)
        assert f"lost its worker {cap + 1} times" in message
        results = engine.run(good, registry.traces)
        assert all(r.cycles > 0 for r in results)
    return message


class TestProtocolFailures:
    def test_version_mismatch_end_to_end(self, registry, tiny_trace, monkeypatch):
        """The real worker rejects a driver speaking another version; with
        every spawn rejected the slot fails permanently, naming why."""
        monkeypatch.setattr(scheduler, "PROTOCOL_VERSION", 999)
        jobs = _core_jobs(registry, tiny_trace, configs=("Skylake",))
        spec = "cluster:1,respawns=0"
        with JobEngine(backend=spec, chunk_size=1) as engine:
            with pytest.raises(
                BackendError, match="last failure: .*rejected handshake.*version"
            ):
                engine.run(jobs, registry.traces)

    # A fake worker that exits early may already be gone when the driver
    # writes its handshake, so BrokenPipeError is an accepted alternative
    # to the ProtocolError the read side raises.

    def test_garbage_worker_stream_is_oversized_frame(self):
        with pytest.raises((ProtocolError, BrokenPipeError)):
            spawn_worker([sys.executable, "-c", "print('garbage!')"], 1.0)

    def test_truncated_worker_stream(self):
        code = (
            "import struct, sys; "
            "sys.stdout.buffer.write(struct.pack('>Q', 100) + b'xx')"
        )
        with pytest.raises((ProtocolError, BrokenPipeError)):
            spawn_worker([sys.executable, "-c", code], 1.0)

    def test_worker_that_exits_immediately(self):
        with pytest.raises((ProtocolError, BrokenPipeError)):
            spawn_worker([sys.executable, "-c", "pass"], 1.0)


class TestKeyboardInterrupt:
    @pytest.mark.parametrize("spec", ["local:2", "subprocess:2"])
    def test_interrupt_cancels_and_tears_down(self, spec, registry, tiny_trace):
        jobs = _core_jobs(registry, tiny_trace, configs=("Skylake", "K8"))
        calls = []

        def interrupting_progress(done, total):
            calls.append((done, total))
            if done > 0:
                raise KeyboardInterrupt

        engine = JobEngine(backend=spec, chunk_size=1,
                           progress=interrupting_progress)
        with pytest.raises(KeyboardInterrupt):
            engine.run(jobs, registry.traces)
        backend = engine.backend
        if spec.startswith("local"):
            assert backend._pool is None
            assert not backend._futures
        else:
            assert backend.scheduler.live_workers() == 0
            assert not backend.scheduler._process_registry
        # The engine is reusable: the next batch brings workers back up.
        engine.progress = None
        results = engine.run(jobs, registry.traces)
        assert all(r.cycles > 0 for r in results)
        engine.close()
