"""Serving-layer suite: model registry integrity and the detection daemon.

The registry half pins the train-once lifecycle: pickle round-trips are
lossless, training provenance is deterministic and content-addressed, and
corrupt or schema-tampered registry files refuse to load instead of serving
wrong verdicts.  The daemon half pins the serving guarantees: concurrent
clients get verdicts bit-identical to the offline ``SimulationCache`` path,
repeated batches are served entirely warm (``executed == 0``), protocol
garbage ends one connection but never the daemon, and SIGTERM drains a real
``repro-serve`` subprocess to a clean exit 0.
"""

import os
import pickle
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bugs.registry import core_bug_suite
from repro.coresim import native_available
from repro.coresim.native import build as native_build
from repro.detect.dataset import SimulationCache
from repro.ml import tree as tree_module
from repro.experiments.common import ExperimentContext
from repro.runtime import JobEngine, ResultStore
from repro.runtime.framing import (
    HELLO,
    PING,
    PROTOCOL_VERSION,
    read_frame,
    write_frame,
)
from repro.serve import (
    DetectionServer,
    RegistryError,
    ServeClient,
    ServingSession,
    load_model,
    offline_verdicts,
    save_model,
    train_model,
)
from repro.serve.registry import (
    REGISTRY_FORMAT_VERSION,
    _training_digest,
    training_job_keys,
)
from repro.uarch import core_microarch

# -- fixtures -----------------------------------------------------------------


def _smoke_setup(context):
    """A trimmed smoke-scale detection setup (2 probes keeps training fast)."""
    return context.detection_setup(probes=context.probes[:2])


@pytest.fixture(scope="module")
def model():
    """One trained registered model, shared by the whole module."""
    with ExperimentContext(scale="smoke") as context:
        return train_model(_smoke_setup(context), name="test")


@pytest.fixture(scope="module")
def model_path(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("registry") / "model.pkl"
    save_model(model, path)
    return path


@pytest.fixture(scope="module")
def request_items():
    """Three designs under test: one clean, two bugged."""
    suite = core_bug_suite()
    return [
        (core_microarch("Skylake"), None),
        (core_microarch("Skylake"), suite["Serialized"][0]),
        (core_microarch("Ivybridge"), suite["IssueXOnlyIfOldest"][0]),
    ]


@pytest.fixture(scope="module")
def offline_rows(model, request_items):
    """The offline reference path's verdict rows for the shared items."""
    with JobEngine(jobs=1) as engine:
        cache = SimulationCache(step_cycles=model.schema.step_cycles, engine=engine)
        verdicts = offline_verdicts(model, cache, request_items)
    return [v.row() for v in verdicts]


def _strip_serving_columns(row):
    """Drop the serving-cost columns a daemon adds to each verdict row."""
    return {
        k: v
        for k, v in row.items()
        if k not in ("index", "executed", "store_hits", "elapsed_ms")
    }


# -- registry: round trip and provenance --------------------------------------


def test_registry_round_trip_is_lossless(model, model_path):
    loaded = load_model(model_path)
    assert loaded.name == model.name
    assert loaded.schema == model.schema
    assert loaded.schema.digest() == model.schema.digest()
    assert loaded.provenance == model.provenance
    assert [p.name for p in loaded.probes] == [p.name for p in model.probes]
    assert sorted(loaded.models) == sorted(model.models)


def test_round_tripped_model_scores_identically(model, model_path, request_items):
    loaded = load_model(model_path)
    session_a = ServingSession(model)
    session_b = ServingSession(loaded)
    for config, bug in request_items:
        a = session_a.verdict_for(0, config, bug).verdict
        b = session_b.verdict_for(0, config, bug).verdict
        assert a.score == b.score
        assert a.errors == b.errors
        assert a.detected == b.detected


def test_training_provenance_is_content_addressed(model):
    """The recorded digest is recomputable from an untrained, equal setup."""
    with ExperimentContext(scale="smoke") as context:
        setup = _smoke_setup(context)
        keys = training_job_keys(setup, model.schema.step_cycles)
    assert model.provenance["training_jobs"] == len(keys)
    assert model.provenance["training_digest"] == _training_digest(keys)
    assert model.provenance["bug_types"] == sorted(setup.bug_suite)


# -- registry: rejection paths ------------------------------------------------


def test_load_rejects_garbage_bytes(tmp_path):
    path = tmp_path / "garbage.pkl"
    path.write_bytes(b"this is not a pickle at all")
    with pytest.raises(RegistryError, match="corrupt"):
        load_model(path)


def test_load_rejects_truncated_file(model_path, tmp_path):
    whole = Path(model_path).read_bytes()
    path = tmp_path / "truncated.pkl"
    path.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(RegistryError, match="corrupt"):
        load_model(path)


def test_load_rejects_wrong_payload_type(tmp_path):
    path = tmp_path / "list.pkl"
    with open(path, "wb") as handle:
        pickle.dump([1, 2, 3], handle)
    with pytest.raises(RegistryError, match="not a model registry"):
        load_model(path)


@pytest.mark.parametrize("version", [REGISTRY_FORMAT_VERSION - 1,
                                     REGISTRY_FORMAT_VERSION + 1],
                         ids=["older", "newer"])
def test_load_rejects_unknown_format_version(model_path, tmp_path, version):
    with open(model_path, "rb") as handle:
        record = pickle.load(handle)
    record["format"] = version
    path = tmp_path / "other-format.pkl"
    with open(path, "wb") as handle:
        pickle.dump(record, handle)
    with pytest.raises(RegistryError, match="format"):
        load_model(path)


def test_load_reads_the_format_before_unpickling_a_class(tmp_path):
    """A format-2 record pickled the model, classes and all, into itself;
    one naming a class this build lacks is refused for its format."""
    node = type("_Node", (), {"__module__": "repro.ml.tree"})
    path = tmp_path / "format-2.pkl"
    with pytest.MonkeyPatch.context() as patch, open(path, "wb") as handle:
        patch.setattr(tree_module, "_Node", node, raising=False)
        pickle.dump({"format": 2, "schema": {}, "schema_digest": "", "model": node()},
                    handle)
    assert not hasattr(tree_module, "_Node")
    with pytest.raises(RegistryError, match=(
            r"registry format before 3 unsupported \(this build reads format 3\): "
            r"its record names repro\.ml\.tree\._Node")):
        load_model(path)


def test_load_rejects_tampered_schema(model_path, tmp_path):
    with open(model_path, "rb") as handle:
        record = pickle.load(handle)
    record["schema"]["step_cycles"] = record["schema"]["step_cycles"] + 1
    path = tmp_path / "tampered.pkl"
    with open(path, "wb") as handle:
        pickle.dump(record, handle)
    with pytest.raises(RegistryError, match="schema mismatch"):
        load_model(path)


def test_load_rejects_drifted_payload(model_path, tmp_path):
    """Payload drift (a probe's counter set changed) is caught too."""
    with open(model_path, "rb") as handle:
        record = pickle.load(handle)
    drifted = pickle.loads(record["model"])
    drifted.probes[0].counters.append("core.fake_counter")
    record["model"] = pickle.dumps(drifted)
    path = tmp_path / "drifted.pkl"
    with open(path, "wb") as handle:
        pickle.dump(record, handle)
    with pytest.raises(RegistryError, match="schema mismatch"):
        load_model(path)


# -- daemon: serving guarantees -----------------------------------------------


def test_concurrent_clients_match_offline(model, request_items, offline_rows):
    """4 concurrent clients, same batch: every verdict bit-identical to the
    offline SimulationCache path, despite racing on one shared session."""
    results = {}
    errors = []

    def one_client(worker, host, port):
        try:
            with ServeClient(host, port) as client:
                results[worker] = list(client.probe_batch(request_items))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append((worker, exc))

    with DetectionServer(model).start() as server:
        host, port = server.address
        threads = [
            threading.Thread(target=one_client, args=(worker, host, port))
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not errors
    assert sorted(results) == [0, 1, 2, 3]
    for worker, rows in results.items():
        stripped = [_strip_serving_columns(row) for row in rows]
        assert stripped == offline_rows, f"client {worker} diverged from offline"


def test_repeated_batch_is_served_warm(model, request_items):
    with DetectionServer(model).start() as server:
        with ServeClient(*server.address) as client:
            list(client.probe_batch(request_items))
            first = client.last_batch
            list(client.probe_batch(request_items))
            second = client.last_batch
    assert first["executed"] > 0
    assert second["executed"] == 0


def test_store_backed_daemon_restarts_warm(model, request_items, tmp_path):
    """A fresh daemon over a populated store replays instead of simulating."""
    store_dir = tmp_path / "store"
    with DetectionServer(model, store=ResultStore(store_dir)).start() as server:
        with ServeClient(*server.address) as client:
            list(client.probe_batch(request_items))
            assert client.last_batch["executed"] > 0
    with DetectionServer(model, store=ResultStore(store_dir)).start() as server:
        with ServeClient(*server.address) as client:
            list(client.probe_batch(request_items))
            summary = client.last_batch
    assert summary["executed"] == 0
    assert summary["store_hits"] > 0


def test_ping_and_stats_report_daemon_state(model, request_items):
    with DetectionServer(model).start() as server:
        with ServeClient(*server.address) as client:
            pong = client.ping()
            assert pong["protocol"] == PROTOCOL_VERSION
            assert pong["model"] == model.name
            assert pong["uptime_seconds"] >= 0
            assert pong["stats"]["verdicts"] == 0
            list(client.probe_batch(request_items))
            stats = client.stats()
    assert stats["stats"]["verdicts"] == len(request_items)
    assert stats["stats"]["requests"] == 1
    assert stats["memory_entries"] > 0
    assert stats["store_entries"] is None  # no persistent store attached


def test_stats_report_the_kernel_that_runs(model, no_compiler, monkeypatch, tmp_path):
    """The stats frame names the kernel probe batches actually run on:
    scalar where no compiler is found or the core unit's layout check
    refuses the library, native where the core unit binds."""
    with DetectionServer(model).start() as server:
        with ServeClient(*server.address) as client:
            with no_compiler():
                assert client.stats()["kernel"] == "scalar"
            expected = "native" if native_available() else "scalar"
            assert client.stats()["kernel"] == expected
            if not native_available():
                return
            # A library built from a _core.c whose SimParams disagrees with
            # the ctypes mirror loads, but its core unit is refused.
            (source,) = [p for p in native_build.SOURCE_PATHS if p.name == "_core.c"]
            text, count = re.subn(
                r"X\(i64, rob_size, \)", "X(i32, rob_size, )",
                source.read_text(encoding="utf-8"),
            )
            assert count, "the rob_size field no longer matches _core.c"
            skewed = tmp_path / "_core.c"
            skewed.write_text(text, encoding="utf-8")
            monkeypatch.setattr(native_build, "SOURCE_PATHS", tuple(
                skewed if path.name == "_core.c" else path
                for path in native_build.SOURCE_PATHS
            ))
            monkeypatch.setenv(native_build.CACHE_ENV_VAR, str(tmp_path / "cache"))
            native_build._reset_for_tests()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    assert client.stats()["kernel"] == "scalar"
                    assert native_available()  # loaded: only the core unit is refused
            finally:
                monkeypatch.undo()
                native_build._reset_for_tests()
            assert client.stats()["kernel"] == "native"


class _ConstantModel:
    """The least a session serves: no probes, one constant verdict."""

    name = "constant"
    probes = ()
    schema = SimpleNamespace(step_cycles=256, ml_engine="none")
    provenance: dict = {}

    def verdict(self, series_by_probe, config, bug):
        return None


def test_counters_survive_concurrent_updates():
    """Every connection thread bumps the daemon's request counts and the
    session's request and verdict counts; with the interpreter switching
    threads every microsecond, no update may be lost."""
    threads, counts, batches = 8, 100_000, 1_000
    server = DetectionServer(_ConstantModel())
    session = server.session
    start = threading.Barrier(threads, timeout=60)

    def hammer():
        start.wait()
        for _ in range(counts):
            server.count_request(PING)
        for _ in range(batches):
            for _item in session.run_batch([(None, None)]):
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=hammer, daemon=True) for _ in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        server.close()
    assert not any(worker.is_alive() for worker in workers)
    health = server.health()
    assert health["requests"] == {PING: threads * counts}
    assert health["stats"]["requests"] == threads * batches
    assert health["stats"]["verdicts"] == threads * batches


def test_shutdown_request_stops_daemon(model):
    server = DetectionServer(model).start()
    with ServeClient(*server.address) as client:
        payload = client.shutdown()
    assert "uptime_seconds" in payload
    deadline = time.time() + 10
    while not server._shutdown.is_set() and time.time() < deadline:
        time.sleep(0.05)
    assert server._shutdown.is_set()
    server.close()


# -- daemon: protocol resilience ----------------------------------------------


def _raw_connection(server):
    sock = socket.create_connection(server.address, timeout=10)
    return sock, sock.makefile("rb"), sock.makefile("wb")


def test_version_mismatch_hello_is_rejected(model, request_items):
    with DetectionServer(model).start() as server:
        sock, reader, writer = _raw_connection(server)
        try:
            write_frame(writer, HELLO, {"protocol": PROTOCOL_VERSION + 41})
            kind, payload = read_frame(reader)
            assert kind == "error"
            assert "version mismatch" in payload
        finally:
            sock.close()
        _assert_daemon_still_serves(server, request_items)


def test_oversized_frame_kills_connection_not_daemon(model, request_items):
    with DetectionServer(model).start() as server:
        sock, reader, writer = _raw_connection(server)
        try:
            write_frame(writer, HELLO, {"protocol": PROTOCOL_VERSION})
            assert read_frame(reader)[0] == HELLO
            # A length prefix claiming a petabyte frame: stream is garbage.
            writer.write(struct.pack(">Q", 1 << 50))
            writer.flush()
            kind, payload = read_frame(reader)
            assert kind == "error"
            assert "oversized" in payload
        finally:
            sock.close()
        _assert_daemon_still_serves(server, request_items)


def test_undecodable_frame_kills_connection_not_daemon(model, request_items):
    with DetectionServer(model).start() as server:
        sock, reader, writer = _raw_connection(server)
        try:
            write_frame(writer, HELLO, {"protocol": PROTOCOL_VERSION})
            assert read_frame(reader)[0] == HELLO
            body = b"\x93not pickle"
            writer.write(struct.pack(">Q", len(body)) + body)
            writer.flush()
            kind, payload = read_frame(reader)
            assert kind == "error"
            assert "bad frame" in payload
        finally:
            sock.close()
        _assert_daemon_still_serves(server, request_items)


def test_truncated_frame_kills_connection_not_daemon(model, request_items):
    with DetectionServer(model).start() as server:
        sock, reader, writer = _raw_connection(server)
        try:
            write_frame(writer, HELLO, {"protocol": PROTOCOL_VERSION})
            assert read_frame(reader)[0] == HELLO
            # Claim 64 bytes, send 5, then half-close: EOF inside a frame.
            writer.write(struct.pack(">Q", 64) + b"stub!")
            writer.flush()
            sock.shutdown(socket.SHUT_WR)
            # Best-effort error frame (or clean close) — never a hang.
            read_frame(reader, allow_eof=True)
        finally:
            sock.close()
        _assert_daemon_still_serves(server, request_items)


def _assert_daemon_still_serves(server, request_items):
    with ServeClient(*server.address) as client:
        rows = list(client.probe_batch(request_items[:1]))
    assert len(rows) == 1


# -- daemon: subprocess lifecycle ---------------------------------------------


def _src_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _entry_point_modules() -> "list[str]":
    """Every ``python -m`` target under ``src/repro``: package ``__main__``
    files and modules with an ``if __name__ == "__main__"`` block."""
    src = Path(__file__).resolve().parents[1] / "src"
    modules = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__main__":
            modules.append(".".join(parts[:-1]))
        elif 'if __name__ == "__main__"' in path.read_text(encoding="utf-8"):
            modules.append(".".join(parts))
    return modules


@pytest.mark.parametrize("module", _entry_point_modules())
def test_module_entry_point_imports_cleanly(module):
    """``python -m <module>`` must not find its module already imported by
    the package (runpy's RuntimeWarning, an error here)."""
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_sigterm_drains_subprocess_to_exit_zero(model_path, tmp_path):
    """A real repro-serve process drains on SIGTERM and exits 0."""
    port_file = tmp_path / "port"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve.server",
            "run",
            str(model_path),
            "--port-file",
            str(port_file),
        ],
        env=_src_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.time() + 60
        while not port_file.exists() and time.time() < deadline:
            if process.poll() is not None:
                pytest.fail(f"daemon died on startup:\n{process.stdout.read()}")
            time.sleep(0.1)
        port = int(port_file.read_text().strip())
        with ServeClient("127.0.0.1", port) as client:
            pong = client.ping()
            assert pong["protocol"] == PROTOCOL_VERSION
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup on failure
            process.kill()
            process.communicate()
    assert process.returncode == 0, f"daemon exited {process.returncode}:\n{output}"
    assert "listening on" in output
    assert "drained" in output
