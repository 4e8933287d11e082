"""``ClusterBackend``: the scheduler-managed worker pool (``cluster:N``,
``subprocess:N``, ``ssh://``).

The engine-facing face of :mod:`repro.cluster.scheduler`: an
:class:`~repro.runtime.backends.base.ExecutionBackend` that plans nothing
itself — the engine still consults the store, dedups the batch and bins
jobs into chunks, costliest first — but hands every chunk to the
:class:`~repro.cluster.scheduler.ClusterScheduler`, which dispatches them
in submission order.

Spec grammar (``REPRO_BACKEND``, ``JobEngine(backend=...)``,
``repro-experiments --backend``)::

    cluster[:N][,heartbeat=S][,deadline=S][,backoff=S][,respawns=K]

``N`` is the ``parallelmax`` worker budget (default 2); the remaining
options tune the liveness machinery (defaults: the canonical
:data:`~repro.runtime.framing.HEARTBEAT_INTERVAL` /
:data:`~repro.runtime.framing.LIVENESS_DEADLINE`).  ``subprocess[:N]`` is
the same backend with every default, and ``ssh://host:N,...`` the same
with each slot's worker started over ``ssh`` on its own host
(:func:`repro.runtime.backends.parse_backend`).  Workers are ``repro-worker``
processes, so results are bit-identical to every other backend; what the
scheduler adds is survival — worker death or hang requeues the chunk
instead of failing the sweep.

Fault injection for CI/tests: ``REPRO_CLUSTER_CHAOS=kill:<n>`` SIGKILLs
the worker that received the *n*-th chunk dispatch (once per backend).
"""

from __future__ import annotations

import os
from typing import Iterator, Mapping, Set

from ..runtime.backends.base import ExecutionBackend
from ..runtime.framing import HEARTBEAT_INTERVAL, LIVENESS_DEADLINE
from ..runtime.worker import local_worker_command
from .scheduler import BACKOFF_BASE, MAX_RESPAWNS, ChunkTicket, ClusterScheduler

#: Default ``parallelmax`` for a bare ``cluster`` or ``subprocess`` spec.
DEFAULT_CLUSTER_WORKERS = 2

#: Environment variable enabling scheduler fault injection (``kill:<n>``).
CHAOS_ENV_VAR = "REPRO_CLUSTER_CHAOS"


def _chaos_from_env() -> "tuple[str, int] | None":
    raw = os.environ.get(CHAOS_ENV_VAR, "").strip()
    if not raw:
        return None
    kind, _, arg = raw.partition(":")
    if kind != "kill":
        raise ValueError(
            f"bad {CHAOS_ENV_VAR} value {raw!r}: expected 'kill:<n>'"
        )
    try:
        nth = int(arg) if arg else 1
    except ValueError:
        raise ValueError(
            f"bad {CHAOS_ENV_VAR} value {raw!r}: {arg!r} is not a dispatch count"
        ) from None
    return ("kill", max(1, nth))


class ClusterBackend(ExecutionBackend):
    """Elastic scheduler-managed worker pool behind the backend seam.

    *command_factory* maps a slot index to the command that starts that
    slot's worker (default: a local ``repro-worker``).
    """

    remote = True

    def __init__(
        self,
        workers: int = DEFAULT_CLUSTER_WORKERS,
        *,
        command_factory=None,
        heartbeat: float = HEARTBEAT_INTERVAL,
        deadline: float = LIVENESS_DEADLINE,
        backoff: float = BACKOFF_BASE,
        max_respawns: int = MAX_RESPAWNS,
        spec: "str | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError("cluster backend needs at least one worker slot")
        super().__init__()
        self.slots = workers
        self.spec = spec if spec is not None else f"cluster:{workers}"
        poll = min(0.1, max(0.01, heartbeat / 4))
        self.scheduler = ClusterScheduler(
            command_factory or (lambda _slot: local_worker_command()),
            parallelmax=workers,
            stats=self.stats,
            heartbeat=heartbeat,
            deadline=deadline,
            backoff=backoff,
            max_respawns=max_respawns,
            poll_interval=poll,
            label=self.spec,
            chaos=_chaos_from_env(),
        )

    # -- elasticity and health -------------------------------------------------

    def resize(self, workers: int) -> None:
        """Elastically grow or shrink the worker budget mid-run."""
        self.scheduler.resize(workers)
        self.slots = workers

    def describe(self) -> dict:
        return self.scheduler.describe()

    # -- ExecutionBackend API --------------------------------------------------

    def start(self, traces: Mapping) -> None:
        # The engine rebinds ``self.stats`` after construction; re-point the
        # scheduler every batch so its counters land in the engine's object.
        self.scheduler.stats = self.stats
        self.scheduler.update_traces(traces)
        self.scheduler.begin_batch()
        if self.scheduler.live_workers() > 0:
            self.stats.pool_reuses += 1
        else:
            self.stats.pool_creates += 1

    def known_trace_ids(self) -> Set[str]:
        # Trace distribution is per-worker (shipped once per worker by
        # digest); the engine never attaches deltas.
        return self.scheduler.known_trace_ids()

    def submit(self, tag: int, chunk: list, trace_delta: Mapping) -> None:
        if trace_delta:  # pragma: no cover - engine never computes one here
            self.scheduler.update_traces(trace_delta)
        self.scheduler.submit(ChunkTicket(tag=tag, chunk=chunk))

    def drain(self) -> Iterator[tuple]:
        return self.scheduler.drain()

    def cancel_pending(self) -> None:
        self.scheduler.cancel_pending()

    def close(self) -> None:
        self.scheduler.close()


def parse_cluster_spec(text: str) -> ClusterBackend:
    """Build a :class:`ClusterBackend` from its spec string (see module doc)."""
    stripped = text.strip()
    if stripped != "cluster" and not stripped.startswith("cluster:"):
        raise ValueError(f"bad cluster spec {text!r}: must start with 'cluster'")
    body = stripped[len("cluster"):].lstrip(":")
    parts = [part.strip() for part in body.split(",") if part.strip()]
    workers = DEFAULT_CLUSTER_WORKERS
    options: dict[str, str] = {}
    for i, part in enumerate(parts):
        if i == 0 and "=" not in part:
            try:
                workers = int(part)
            except ValueError:
                raise ValueError(
                    f"bad cluster spec {text!r}: {part!r} is not a worker count"
                ) from None
            if workers < 1:
                raise ValueError(f"bad cluster spec {text!r}: count must be >= 1")
            continue
        key, sep, value = part.partition("=")
        if not sep or not value:
            raise ValueError(
                f"bad cluster spec {text!r}: expected key=value, got {part!r}"
            )
        options[key] = value
    kwargs: dict = {}
    for key, cast in (
        ("heartbeat", float),
        ("deadline", float),
        ("backoff", float),
    ):
        if key in options:
            try:
                kwargs[key] = cast(options.pop(key))
            except ValueError:
                raise ValueError(
                    f"bad cluster spec {text!r}: {key} must be a number"
                ) from None
    if "respawns" in options:
        try:
            kwargs["max_respawns"] = int(options.pop("respawns"))
        except ValueError:
            raise ValueError(
                f"bad cluster spec {text!r}: respawns must be an integer"
            ) from None
    if options:
        unknown = ", ".join(sorted(options))
        raise ValueError(
            f"bad cluster spec {text!r}: unknown option(s) {unknown} "
            "(known: heartbeat, deadline, backoff, respawns)"
        )
    return ClusterBackend(workers, spec=f"cluster:{workers}", **kwargs)
