"""``repro-serve``: the long-running detection serving daemon.

A resident process that keeps a trained detection engine (loaded from a
model registry file), a warm in-memory result overlay and an optional
persistent :class:`~repro.runtime.ResultStore`, and answers probe→verdict
requests over a TCP socket — so asking "does this config exhibit a bug?"
costs one round trip instead of one experiment.

The wire format is the runtime's 8-byte length-prefixed pickle frame
protocol (:mod:`repro.runtime.framing` — the same framing the
``repro-worker`` backends speak), version-checked by a hello handshake.
Session shape (see ``docs/SERVING.md``)::

    client -> ("hello", {"protocol": V})
    server -> ("hello", {"protocol": V, "server": "repro-serve", ...})
    client -> ("probe_batch", {"items": [(config, bug-or-None), ...]})
    server -> ("verdict", {...})      # streamed, one per item, in order
    server -> ("done", {...})         # batch summary: executed, store hits
    client -> ("ping", None)          # health probe
    server -> ("pong", {"protocol": V, "uptime_seconds": ..., "stats": ...})
    client -> ("stats", None) / ("shutdown", None) / EOF

One serving thread per connection; all of them share a single
:class:`~repro.serve.session.ServingSession` (one warm engine, one
registry, one store).  Malformed, truncated or oversized frames and
version-mismatched hellos are answered with an ``error`` frame (best
effort) and end **that connection only** — the daemon keeps serving.

Lifecycle: ``SIGTERM``/``SIGINT`` stop the accept loop, let every in-flight
request finish streaming its verdicts, close the listener and exit 0 — a
drain, not an abort.  Subcommands::

    repro-serve train MODEL.pkl --scale smoke [--trace-dir D] [--store S]
    repro-serve run   MODEL.pkl [--host H] [--port P] [--store S] [--port-file F]
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import time

from ..runtime import ResultStore
from ..runtime.framing import (
    ERROR,
    HELLO,
    PING,
    PONG,
    PROTOCOL_VERSION,
    SHUTDOWN,
    ProtocolError,
    check_hello,
    read_frame,
    write_frame,
)
from .registry import load_model, save_model, train_model
from .session import ServingSession

#: Request/response frame kinds of the serving protocol (on top of the
#: shared HELLO / ERROR / SHUTDOWN / PING / PONG kinds, which live in
#: :mod:`repro.runtime.framing`).
PROBE_BATCH = "probe_batch"
STATS = "stats"
VERDICT = "verdict"
DONE = "done"
BYE = "bye"


class _Connection:
    """One client connection: a socket, its frame streams, and a work lock."""

    def __init__(self, sock: socket.socket, peer, server: "DetectionServer") -> None:
        self.sock = sock
        self.peer = peer
        self.server = server
        try:
            # Verdict frames are small; without TCP_NODELAY, Nagle + delayed
            # ACKs add ~40ms stalls to every warm request.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP test doubles
            pass
        self.reader = sock.makefile("rb")
        self.writer = sock.makefile("wb")
        #: Held while one request is being served; the drain path acquires it
        #: to guarantee in-flight requests finish before the socket dies.
        self.work = threading.Lock()
        self.thread: threading.Thread | None = None

    # -- plumbing --------------------------------------------------------------

    def _send(self, kind: str, payload) -> bool:
        try:
            write_frame(self.writer, kind, payload)
            return True
        except (OSError, ValueError):  # peer gone mid-write
            return False

    def close(self) -> None:
        for stream in (self.writer, self.reader):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        try:
            self.sock.close()
        except OSError:
            pass

    def interrupt(self) -> None:
        """Wake a reader blocked on this connection (used by the drain path)."""
        try:
            self.sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass

    # -- the serving loop ------------------------------------------------------

    def serve(self) -> None:
        try:
            self._serve()
        finally:
            self.close()
            self.server._forget(self)

    def _handshake(self) -> bool:
        frame = read_frame(self.reader)
        kind, payload = frame
        if kind != HELLO:
            raise ProtocolError(f"expected a hello frame, got {kind!r}")
        check_hello(payload, side=f"client {self.peer}")
        return self._send(
            HELLO,
            {
                "protocol": PROTOCOL_VERSION,
                "server": "repro-serve",
                "model": self.server.session.model.name,
                "pid": os.getpid(),
            },
        )

    def _serve(self) -> None:
        try:
            if not self._handshake():
                return
        except ProtocolError as exc:
            self._send(ERROR, f"handshake failed: {exc}")
            return
        session = self.server.session
        while not self.server.draining:
            try:
                frame = read_frame(self.reader, allow_eof=True)
            except ProtocolError as exc:
                # Garbage, truncation or an oversized length from this client
                # must not take the daemon down: report and drop the peer.
                self._send(ERROR, f"bad frame: {exc}")
                return
            if frame is None:  # client closed the connection
                return
            kind, payload = frame
            with self.work:
                self.server.count_request(kind)
                if kind == PROBE_BATCH:
                    if not self._serve_probe_batch(session, payload):
                        return
                elif kind == PING:
                    if not self._send(PONG, self.server.health()):
                        return
                elif kind == STATS:
                    if not self._send(STATS, self.server.health()):
                        return
                elif kind == SHUTDOWN:
                    self._send(BYE, {"uptime_seconds": self.server.uptime()})
                    self.server.request_shutdown()
                    return
                else:
                    if not self._send(ERROR, f"unknown request kind {kind!r}"):
                        return

    def _serve_probe_batch(self, session: ServingSession, payload) -> bool:
        items = payload.get("items") if isinstance(payload, dict) else None
        if not isinstance(items, list):
            return self._send(ERROR, "probe_batch payload must be {'items': [...]}")
        started = time.perf_counter()
        executed = 0
        store_hits = 0
        served = 0
        try:
            for item in session.run_batch(items):
                executed += item.executed
                store_hits += item.store_hits
                served += 1
                if not self._send(VERDICT, item.row()):
                    return False
        except Exception as exc:  # bad config/bug payloads stay connection-local
            return self._send(ERROR, f"probe batch failed: {exc}")
        return self._send(
            DONE,
            {
                "items": served,
                "executed": executed,
                "store_hits": store_hits,
                "elapsed_seconds": round(time.perf_counter() - started, 4),
            },
        )


class DetectionServer:
    """The daemon: a listening socket over one shared :class:`ServingSession`."""

    def __init__(
        self,
        model,
        store: "ResultStore | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.session = ServingSession(model, store=store)
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self.started_unix = time.time()
        self.draining = False
        self._shutdown = threading.Event()
        self._connections: set[_Connection] = set()
        self._connections_lock = threading.Lock()
        self._accept_thread: threading.Thread | None = None
        self._requests: dict[str, int] = {}
        #: Connection threads count requests concurrently.
        self._requests_lock = threading.Lock()
        self.connections_served = 0

    # -- introspection ---------------------------------------------------------

    @property
    def address(self) -> tuple:
        return (self.host, self.port)

    def uptime(self) -> float:
        return round(time.time() - self.started_unix, 3)

    def count_request(self, kind: str) -> None:
        with self._requests_lock:
            self._requests[kind] = self._requests.get(kind, 0) + 1

    def health(self) -> dict:
        """The ``ping``/``stats`` payload: version, uptime, store/entry stats."""
        payload = self.session.snapshot()
        with self._requests_lock:
            requests = dict(self._requests)
        payload.update(
            protocol=PROTOCOL_VERSION,
            uptime_seconds=self.uptime(),
            pid=os.getpid(),
            connections=self.connections_served,
            requests=requests,
        )
        return payload

    # -- lifecycle -------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the accept loop to drain and exit (signal-handler safe)."""
        self._shutdown.set()

    def _forget(self, connection: _Connection) -> None:
        with self._connections_lock:
            self._connections.discard(connection)

    def serve_forever(self) -> None:
        """Accept-and-serve until :meth:`request_shutdown`, then drain.

        Draining means: stop accepting, let every connection finish the
        request it is currently serving (verdict streams complete), wake
        readers blocked on idle connections, join the serving threads and
        close the listener.  Store writes are atomic per entry, so a drained
        store needs no further flushing.
        """
        try:
            while not self._shutdown.is_set():
                try:
                    sock, peer = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                connection = _Connection(sock, peer, self)
                with self._connections_lock:
                    self._connections.add(connection)
                self.connections_served += 1
                thread = threading.Thread(
                    target=connection.serve,
                    name=f"repro-serve-{peer}",
                    daemon=True,
                )
                connection.thread = thread
                thread.start()
        finally:
            self.draining = True
            with self._connections_lock:
                active = list(self._connections)
            for connection in active:
                # Wait for the in-flight request (if any) to finish streaming,
                # then wake the connection's reader so its thread exits.
                with connection.work:
                    connection.interrupt()
            for connection in active:
                if connection.thread is not None:
                    connection.thread.join(timeout=10)
            self._listener.close()

    # -- embedding helpers (tests, benchmarks) ---------------------------------

    def start(self) -> "DetectionServer":
        """Run :meth:`serve_forever` on a background thread (for embedding)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Drain and stop an embedded server (idempotent)."""
        self.request_shutdown()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=30)
            self._accept_thread = None
        else:
            self._listener.close()

    def __enter__(self) -> "DetectionServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# -- CLI ----------------------------------------------------------------------


def _cmd_train(args) -> int:
    from ..experiments.common import ExperimentContext

    with ExperimentContext(
        scale=args.scale,
        jobs=args.jobs,
        backend=args.backend,
        store_path=args.store,
        trace_dir=args.trace_dir,
        trace_format=args.trace_format,
    ) as context:
        setup = context.detection_setup(engine=args.engine)
        started = time.perf_counter()
        model = train_model(
            setup,
            name=args.name,
            provenance={
                "scale": context.scale.name,
                "source": "ingested" if args.trace_dir else "synthetic",
            },
        )
        elapsed = time.perf_counter() - started
    save_model(model, args.registry)
    print(
        f"repro-serve: trained model {model.name!r} "
        f"({len(model.probes)} probes, engine {model.schema.ml_engine}, "
        f"{model.provenance['training_jobs']} training jobs, "
        f"digest {model.provenance['training_digest'][:12]}) "
        f"in {elapsed:.1f}s -> {args.registry}"
    )
    return 0


def _cmd_run(args) -> int:
    model = load_model(args.registry)
    store = ResultStore(args.store) if args.store else None
    server = DetectionServer(model, store=store, host=args.host, port=args.port)

    def _handle(_signum, _frame):
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)

    host, port = server.address
    print(f"repro-serve: listening on {host}:{port} (model {model.name!r}, "
          f"{len(model.probes)} probes, protocol v{PROTOCOL_VERSION})", flush=True)
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
    server.serve_forever()
    print(
        f"repro-serve: drained after {server.uptime()}s "
        f"({server.connections_served} connections, "
        f"{server.session.stats.verdicts} verdicts, "
        f"{server.session.stats.executed} simulations)",
        flush=True,
    )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser(
        "train", help="train a detection model once and persist it"
    )
    train.add_argument("registry", help="output model registry file (pickle)")
    train.add_argument("--scale", default="smoke", choices=["smoke", "small", "full"])
    train.add_argument("--name", default="default", help="model name in the registry")
    train.add_argument("--engine", default=None,
                       help="stage-1 ML engine (default: the scale's default)")
    train.add_argument("--jobs", type=int, default=None,
                       help="local worker processes for training simulations")
    train.add_argument("--backend", default=None,
                       help="execution backend spec for training simulations")
    train.add_argument("--store", default=None,
                       help="persistent result store for training simulations")
    train.add_argument("--trace-dir", default=None,
                       help="train on on-disk traces instead of synthetic workloads")
    train.add_argument("--trace-format", default=None, choices=["champsim", "gem5", "k6"])
    train.set_defaults(func=_cmd_train)

    run = commands.add_parser("run", help="serve a trained model over a socket")
    run.add_argument("registry", help="model registry file written by 'train'")
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=0,
                     help="TCP port (default 0: ephemeral, printed on startup)")
    run.add_argument("--port-file", default=None,
                     help="write the bound port to this file (for scripts/CI)")
    run.add_argument("--store", default=None,
                     help="persistent result store backing the warm path")
    run.set_defaults(func=_cmd_run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
