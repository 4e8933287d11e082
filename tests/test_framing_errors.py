"""Frame-protocol error paths under truncation, version skew and liveness.

The framing layer (:mod:`repro.runtime.framing`) is shared by
``repro-worker``, the cluster scheduler and ``repro-serve``; this suite
pins its failure semantics at three levels: the raw :func:`read_frame`
contract (EOF at a boundary vs. inside a frame), the worker serving loop's
response to bad frames and version skew, and the cluster scheduler's
isolation guarantee — a worker emitting a truncated frame kills only that
worker's connection, never the sweep.
"""

import io
import subprocess
import sys

import pytest

from repro.bugs.core_bugs import SerializeOpcode
from repro.cluster.backend import ClusterBackend
from repro.runtime import BackendError, JobEngine, SimulationJob, TraceRegistry
from repro.runtime.framing import (
    ERROR,
    HEARTBEAT,
    HELLO,
    PING,
    PONG,
    PROTOCOL_VERSION,
    SHUTDOWN,
    ProtocolError,
    read_frame,
    write_frame,
)
from repro.runtime.worker import local_worker_command, serve
from repro.uarch import core_microarch
from repro.workloads import TraceGenerator, build_program, workload
from repro.workloads.isa import Opcode

#: Worker that handshakes, then answers its first chunk with three bytes of
#: a frame header and dies — a mid-frame truncation as the driver sees it.
TRUNCATING_WORKER = r"""
import sys
from repro.runtime.framing import CHUNK, HELLO, PROTOCOL_VERSION, read_frame, write_frame
stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
read_frame(stdin)
write_frame(stdout, HELLO, {"protocol": PROTOCOL_VERSION})
while True:
    frame = read_frame(stdin, allow_eof=True)
    if frame is None:
        raise SystemExit(0)
    if frame[0] == CHUNK:
        stdout.write(b"\x00\x00\x17")  # partial frame header, then gone
        stdout.flush()
        raise SystemExit(1)
"""

#: Worker that speaks protocol v1: the handshake must reject it.
V1_WORKER = r"""
import sys
from repro.runtime.framing import HELLO, read_frame, write_frame
read_frame(sys.stdin.buffer)
write_frame(sys.stdout.buffer, HELLO, {"protocol": 1})
import time
time.sleep(60)
"""


def _frame_bytes(*frames) -> bytes:
    buffer = io.BytesIO()
    for kind, payload in frames:
        write_frame(buffer, kind, payload)
    return buffer.getvalue()


def _parse_frames(data: bytes) -> list:
    buffer = io.BytesIO(data)
    frames = []
    while True:
        frame = read_frame(buffer, allow_eof=True)
        if frame is None:
            return frames
        frames.append(frame)


# -- read_frame contract -----------------------------------------------------


class TestReadFrameTruncation:
    def test_eof_at_boundary_with_allow_eof_is_none(self):
        assert read_frame(io.BytesIO(b""), allow_eof=True) is None

    def test_eof_at_boundary_without_allow_eof_raises(self):
        with pytest.raises(ProtocolError, match="connection closed"):
            read_frame(io.BytesIO(b""))

    def test_partial_header_raises_even_with_allow_eof(self):
        with pytest.raises(ProtocolError, match="truncated frame"):
            read_frame(io.BytesIO(b"\x00\x00\x00"), allow_eof=True)

    def test_eof_inside_body_raises_even_with_allow_eof(self):
        intact = _frame_bytes((PING, "token"))
        with pytest.raises(ProtocolError, match="truncated frame"):
            read_frame(io.BytesIO(intact[:-3]), allow_eof=True)

    def test_second_frame_truncation_still_detected(self):
        data = _frame_bytes((PING, "a"), (PING, "b"))[:-1]
        stream = io.BytesIO(data)
        assert read_frame(stream) == (PING, "a")
        with pytest.raises(ProtocolError, match="truncated frame"):
            read_frame(stream, allow_eof=True)


# -- worker serving loop (in-process, BytesIO streams) -----------------------


class TestWorkerServeErrors:
    @staticmethod
    def _serve(*frames, raw=b""):
        stdin = io.BytesIO(_frame_bytes(*frames) + raw)
        stdout = io.BytesIO()
        code = serve(stdin, stdout)
        return code, _parse_frames(stdout.getvalue())

    def test_ping_answers_pong_with_token(self):
        code, frames = self._serve(
            (HELLO, {"protocol": PROTOCOL_VERSION}),
            (PING, "tok-1"),
            (SHUTDOWN, None),
        )
        assert code == 0
        assert frames[0][0] == HELLO
        assert frames[0][1]["protocol"] == PROTOCOL_VERSION
        kind, payload = frames[1]
        assert kind == PONG
        assert payload["token"] == "tok-1"
        assert payload["protocol"] == PROTOCOL_VERSION

    def test_version_skew_hello_is_rejected(self):
        code, frames = self._serve((HELLO, {"protocol": 1}))
        assert code == 2
        kind, payload = frames[0]
        assert kind == ERROR
        assert "protocol version mismatch" in payload

    def test_heartbeat_sent_to_worker_is_an_error(self):
        # Heartbeats flow worker -> driver only; one arriving at the worker
        # means the streams are crossed and the session must die loudly.
        code, frames = self._serve(
            (HELLO, {"protocol": PROTOCOL_VERSION}),
            (HEARTBEAT, {"seq": 1}),
        )
        assert code == 2
        kind, payload = frames[-1]
        assert kind == ERROR
        assert "unexpected frame kind" in payload

    def test_truncated_mid_session_frame_is_an_error(self):
        code, frames = self._serve(
            (HELLO, {"protocol": PROTOCOL_VERSION}), raw=b"\x00\x00"
        )
        assert code == 2
        kind, payload = frames[-1]
        assert kind == ERROR
        assert "bad frame" in payload

    def test_truncated_handshake_is_an_error(self):
        stdout = io.BytesIO()
        code = serve(io.BytesIO(b"\x00\x00\x00"), stdout)
        assert code == 2
        kind, payload = _parse_frames(stdout.getvalue())[0]
        assert kind == ERROR
        assert "handshake failed" in payload


# -- worker heartbeats over a real process boundary --------------------------


class TestWorkerHeartbeat:
    def test_heartbeats_arrive_and_stop_at_kill(self):
        process = subprocess.Popen(
            local_worker_command(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            write_frame(
                process.stdin, HELLO,
                {"protocol": PROTOCOL_VERSION, "heartbeat": 0.05},
            )
            kind, payload = read_frame(process.stdout)
            assert kind == HELLO
            assert payload["heartbeat"] == 0.05

            seqs = []
            while len(seqs) < 2:
                kind, payload = read_frame(process.stdout)
                assert kind == HEARTBEAT
                assert payload["protocol"] == PROTOCOL_VERSION
                seqs.append(payload["seq"])
            assert seqs == sorted(seqs)

            # A ping interleaves cleanly with the heartbeat side-channel.
            write_frame(process.stdin, PING, "probe")
            while True:
                kind, payload = read_frame(process.stdout)
                if kind == PONG:
                    assert payload["token"] == "probe"
                    break
                assert kind == HEARTBEAT

            # SIGKILL: the stream ends promptly (possibly after buffered
            # heartbeats), never with a partial heartbeat going unnoticed.
            process.kill()
            process.wait()
            while True:
                frame = read_frame(process.stdout, allow_eof=True)
                if frame is None:
                    break
                assert frame[0] == HEARTBEAT
        finally:
            process.kill()
            process.wait()

    def test_worker_without_heartbeat_request_stays_silent(self):
        stdin = io.BytesIO(_frame_bytes(
            (HELLO, {"protocol": PROTOCOL_VERSION}), (SHUTDOWN, None),
        ))
        stdout = io.BytesIO()
        assert serve(stdin, stdout) == 0
        frames = _parse_frames(stdout.getvalue())
        assert [kind for kind, _ in frames] == [HELLO]
        assert frames[0][1]["heartbeat"] is None


# -- cluster isolation: one bad connection never fails the sweep -------------


@pytest.fixture(scope="module")
def registry_and_jobs():
    program = build_program(workload("403.gcc"), seed=41)
    trace = TraceGenerator(program, seed=42).generate(1200)
    registry = TraceRegistry()
    trace_id = registry.register(trace)
    jobs = [
        SimulationJob(study="core", config=core_microarch(name), bug=bug,
                      trace_id=trace_id, step=256)
        for name in ("Skylake", "K8")
        for bug in (None, SerializeOpcode(Opcode.XOR))
    ]
    return registry, jobs


class TestClusterConnectionIsolation:
    def test_truncated_frame_kills_only_that_worker(self, registry_and_jobs):
        """Slot 0's first incarnation truncates a frame mid-stream; slot 1
        keeps serving, the lost chunk requeues, and a respawn completes the
        batch — the sweep never sees the ProtocolError."""
        registry, jobs = registry_and_jobs
        spawns = {"n": 0}

        def factory(_slot):
            spawns["n"] += 1
            if spawns["n"] == 1:
                return [sys.executable, "-c", TRUNCATING_WORKER]
            return local_worker_command()

        backend = ClusterBackend(
            2, command_factory=factory, heartbeat=0.05, deadline=5.0,
            backoff=0.01,
        )
        with JobEngine(backend=backend, chunk_size=1) as engine:
            results = engine.run(jobs, registry.traces)
            assert len(results) == len(jobs)
            assert engine.stats.workers_lost == 1
            assert engine.stats.chunks_requeued == 1
            assert engine.stats.workers_respawned == 1
            assert engine.stats.executed == len(jobs)

    def test_v1_worker_is_rejected_until_slots_fail(self, registry_and_jobs):
        """Version skew at the cluster handshake: every spawn speaks v1, so
        after max_respawns attempts the sweep fails loudly instead of
        wedging."""
        registry, jobs = registry_and_jobs
        backend = ClusterBackend(
            1, command_factory=lambda _slot: [sys.executable, "-c", V1_WORKER],
            heartbeat=0.05, deadline=5.0, backoff=0.01, max_respawns=1,
        )
        with pytest.raises(BackendError, match="failed permanently"):
            with JobEngine(backend=backend, chunk_size=1) as engine:
                engine.run(jobs[:1], registry.traces)
