"""Pluggable execution backends for :class:`~repro.runtime.engine.JobEngine`.

A backend is selected by a **spec string** (or constructed directly):

==========================  ==================================================
Spec                        Meaning
==========================  ==================================================
``serial``                  Inline in the calling process (default).
``local`` / ``local:N``     Persistent local process pool, N workers
                            (default: CPU count).
``subprocess`` /            N local ``repro-worker`` processes (default N=2).
``subprocess:N``
``cluster[:N][,opts]``      The same N local workers, with the scheduler's
                            liveness and respawn tuning spelled out
                            (``heartbeat``, ``deadline``, ``backoff``,
                            ``respawns``).
``ssh://host:N,host2:M``    ``repro-worker`` over ``ssh`` on each host, N/M
                            worker processes per host (default 1).
==========================  ==================================================

``subprocess``, ``cluster`` and ``ssh://`` are one backend:
:class:`~repro.cluster.backend.ClusterBackend`, whose scheduler gives every
worker heartbeat liveness, respawn with backoff and chunk requeue.  They
differ only in the command that starts each worker slot and in the spec
label reports print.

``JobEngine(jobs=N)`` remains sugar: ``jobs=1`` maps to ``serial`` and
``jobs=N`` to ``local:N``.  The ``REPRO_BACKEND`` environment variable
(:data:`~repro.runtime.backends.base.BACKEND_ENV_VAR`) supplies the default
spec when neither ``backend=`` nor ``jobs=`` is given.  The spec grammar and
the worker wire protocol are documented in ``docs/RUNTIME.md``.
"""

from __future__ import annotations

import os
import warnings

from .base import BACKEND_ENV_VAR, BackendError, ExecutionBackend
from .local import LocalBackend
from ..framing import PROTOCOL_VERSION, ProtocolError
from .serial import SerialBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "PROTOCOL_VERSION",
    "BackendError",
    "ExecutionBackend",
    "LocalBackend",
    "ProtocolError",
    "SerialBackend",
    "default_backend_spec",
    "parse_backend",
    "spec_for_jobs",
]

_GRAMMAR = (
    "expected 'serial', 'local[:N]', 'subprocess[:N]', "
    "'cluster[:N][,key=value...]' or 'ssh://host[:N],host2[:N]'"
)


def spec_for_jobs(jobs: int) -> str:
    """The spec string ``jobs=N`` is sugar for."""
    jobs = max(1, int(jobs))
    return "serial" if jobs == 1 else f"local:{jobs}"


def _count(spec: str, body: str, default: int) -> int:
    if not body:
        return default
    try:
        count = int(body)
    except ValueError:
        raise ValueError(f"bad backend spec {spec!r}: {body!r} is not a count") from None
    if count < 1:
        raise ValueError(f"bad backend spec {spec!r}: count must be >= 1")
    return count


def _parse_hosts(spec: str, body: str) -> list[tuple[str, int]]:
    hosts: list[tuple[str, int]] = []
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        host, _, slots = part.partition(":")
        if not host:
            raise ValueError(f"bad backend spec {spec!r}: empty host in {part!r}")
        hosts.append((host, _count(spec, slots, default=1)))
    if not hosts:
        raise ValueError(f"bad backend spec {spec!r}: no hosts given")
    return hosts


def parse_backend(spec: "str | ExecutionBackend") -> ExecutionBackend:
    """Build an :class:`ExecutionBackend` from a spec string.

    An already-constructed backend passes through unchanged, so callers can
    hand :class:`JobEngine` a custom backend instance directly.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"backend spec must be a string, got {type(spec).__name__}")
    text = spec.strip()
    if text == "serial":
        return SerialBackend()
    # Sanitized native builds are serial-only: ASan shadow memory per pool
    # worker is wasteful and interleaved sanitizer reports are unreadable.
    from ...coresim.native.build import sanitize_mode

    if sanitize_mode() is not None:
        warnings.warn(
            f"REPRO_NATIVE_SANITIZE is set: forcing the serial backend "
            f"(requested {text!r})",
            RuntimeWarning,
            stacklevel=2,
        )
        return SerialBackend()
    if text == "local" or text.startswith("local:"):
        _, _, body = text.partition(":")
        return LocalBackend(_count(text, body, default=os.cpu_count() or 1))
    # Every worker-pool spec runs on the cluster scheduler.  Imported lazily:
    # repro.cluster and the worker build on the runtime (engine cost model,
    # framing, this very module), so top-level imports here would be
    # circular.
    from ...cluster.backend import (
        DEFAULT_CLUSTER_WORKERS,
        ClusterBackend,
        parse_cluster_spec,
    )
    from ..worker import ssh_worker_command

    if text == "cluster" or text.startswith("cluster:"):
        return parse_cluster_spec(text)
    if text == "subprocess" or text.startswith("subprocess:"):
        _, _, body = text.partition(":")
        workers = _count(text, body, default=DEFAULT_CLUSTER_WORKERS)
        return ClusterBackend(workers, spec=f"subprocess:{workers}")
    if text.startswith("ssh://"):
        hosts = _parse_hosts(text, text[len("ssh://"):])
        # Slot i runs on slot_hosts[i], so every respawn of a slot goes back
        # to its own host.
        slot_hosts = [host for host, slots in hosts for _ in range(slots)]
        canonical = ",".join(f"{host}:{slots}" for host, slots in hosts)
        return ClusterBackend(
            len(slot_hosts),
            command_factory=lambda index: ssh_worker_command(slot_hosts[index]),
            spec=f"ssh://{canonical}",
        )
    raise ValueError(f"unknown backend spec {spec!r}; {_GRAMMAR}")


def default_backend_spec() -> "str | None":
    """The spec named by ``REPRO_BACKEND``, or ``None`` when unset/empty."""
    value = os.environ.get(BACKEND_ENV_VAR, "").strip()
    return value or None
