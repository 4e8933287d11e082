"""``repro-worker``: serve simulation chunks over the stdio frame protocol.

The executable half of the worker-pool backends (``subprocess:N``,
``cluster:N`` and ``ssh://``, all driven by the :mod:`repro.cluster`
scheduler): the driver spawns this process — locally
(:func:`local_worker_command`) or via ``ssh host repro-worker``
(:func:`ssh_worker_command`) — and drives it through length-prefixed
pickle frames on stdin/stdout.

Session shape::

    driver -> ("hello", {"protocol": V[, "heartbeat": seconds]})
    worker -> ("hello", {"protocol": V, ...})     # or ("error", msg) + exit 2
    driver -> ("traces", {digest: trace})         # each trace ships once
    driver -> ("chunk", (tag, [(index, job), ...]))
    worker -> ("result", (tag, outcome))          # ChunkOutcome
    driver -> ("ping", token)                     # liveness probe (idle only)
    worker -> ("pong", {"token": token, ...})
    ...                                           # more traces/chunks
    driver -> ("shutdown", None)                  # or EOF; worker exits 0

When the driver's hello carries ``{"heartbeat": seconds}``, the worker also
emits unsolicited ``("heartbeat", {"seq": n, ...})`` frames from a daemon
thread at that interval — the main thread blocks inside
:func:`~repro.runtime.execution.run_chunk_items` for the whole chunk, so
without the side-channel a long chunk is indistinguishable from a hang.
Every write to the frame stream (results, pongs, heartbeats) goes through
one lock so frames never interleave.

The worker keeps a cumulative content-addressed trace table for the whole
session, so each trace crosses the wire once per worker no matter how many
chunks reference it.  Job-level exceptions are returned *inside* outcomes
(as :class:`~repro.runtime.execution.ChunkFailure`); only protocol-level
problems end the session with an ``error`` frame and a non-zero exit.

Never prints to stdout: the frame stream owns it.  ``sys.stdout`` is
rebound to stderr on startup so stray prints from simulator or bug-model
code cannot corrupt the framing.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import threading
import time

from .framing import (
    CHUNK,
    ERROR,
    HEARTBEAT,
    HELLO,
    PING,
    PONG,
    PROTOCOL_VERSION,
    RESULT,
    SHUTDOWN,
    TRACES,
    ProtocolError,
    hello_version,
    read_frame,
    write_frame,
)
from .execution import run_chunk_items


def local_worker_command() -> list[str]:
    """Spawn a worker under the driver's own interpreter (``subprocess:``,
    ``cluster:``)."""
    return [sys.executable, "-m", "repro.runtime.worker"]


def ssh_worker_command(host: str) -> list[str]:
    """Spawn a worker on *host* via the installed ``repro-worker`` script."""
    return ["ssh", "-o", "BatchMode=yes", host, "repro-worker"]


class _Heartbeat:
    """Unsolicited I-am-alive frames on a daemon thread (protocol v2).

    Started only when the driver's hello asks for it.  Shares the frame
    stream with the main serving loop, so every write goes through the
    caller-supplied lock; a write failure (driver went away mid-stream)
    silently stops the thread — the main loop will see the broken pipe or
    EOF on its own.
    """

    def __init__(self, stdout, lock: threading.Lock, interval: float) -> None:
        self._stdout = stdout
        self._lock = lock
        self._interval = max(0.05, float(interval))
        self._stop = threading.Event()
        self._seq = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-worker-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._seq += 1
            try:
                with self._lock:
                    write_frame(
                        self._stdout,
                        HEARTBEAT,
                        {
                            "seq": self._seq,
                            "protocol": PROTOCOL_VERSION,
                            "pid": os.getpid(),
                            # repro: allow(wall-clock): liveness telemetry only
                            "monotonic": time.monotonic(),
                        },
                    )
            except (OSError, ValueError):  # driver gone; main loop will notice
                return


def serve(stdin, stdout) -> int:
    """Run one worker session over the given binary streams."""
    try:
        frame = read_frame(stdin)
    except ProtocolError as exc:
        write_frame(stdout, ERROR, f"handshake failed: {exc}")
        return 2
    kind, payload = frame
    version = hello_version(payload)
    if kind != HELLO or version != PROTOCOL_VERSION:
        write_frame(
            stdout,
            ERROR,
            f"protocol version mismatch: driver sent {kind!r} v{version!r}, "
            f"worker speaks v{PROTOCOL_VERSION}",
        )
        return 2
    heartbeat_interval = None
    if isinstance(payload, dict):
        raw = payload.get("heartbeat")
        if isinstance(raw, (int, float)) and raw > 0:
            heartbeat_interval = float(raw)
    write_lock = threading.Lock()
    write_frame(
        stdout,
        HELLO,
        {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "python": platform.python_version(),
            "host": platform.node(),
            "heartbeat": heartbeat_interval,
        },
    )
    heartbeat = None
    if heartbeat_interval is not None:
        heartbeat = _Heartbeat(stdout, write_lock, heartbeat_interval)
        heartbeat.start()

    def send(kind: str, payload) -> None:
        with write_lock:
            write_frame(stdout, kind, payload)

    traces: dict[str, object] = {}
    try:
        while True:
            try:
                frame = read_frame(stdin, allow_eof=True)
            except ProtocolError as exc:
                send(ERROR, f"bad frame: {exc}")
                return 2
            if frame is None:  # driver closed the connection
                return 0
            kind, payload = frame
            if kind == TRACES:
                traces.update(payload)
            elif kind == CHUNK:
                tag, chunk = payload
                send(RESULT, (tag, run_chunk_items(chunk, traces)))
            elif kind == PING:
                send(PONG, {"token": payload, "protocol": PROTOCOL_VERSION,
                            "pid": os.getpid()})
            elif kind == SHUTDOWN:
                return 0
            else:
                send(ERROR, f"unexpected frame kind {kind!r}")
                return 2
    finally:
        if heartbeat is not None:
            heartbeat.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.parse_args(argv)
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # The frame stream owns the real stdout; reroute stray prints to stderr.
    sys.stdout = sys.stderr
    return serve(stdin, stdout)


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
