"""``ClusterBackend``: the scheduler-managed worker pool (``cluster:N``,
``subprocess:N``, ``ssh://``).

The engine-facing face of :mod:`repro.cluster.scheduler`: an
:class:`~repro.runtime.backends.base.ExecutionBackend` that plans nothing
itself — the engine still consults the store, dedups the batch and bins
jobs into chunks — but hands every chunk to the
:class:`~repro.cluster.scheduler.ClusterScheduler` as a
:class:`~repro.cluster.policies.ChunkTicket` carrying the scheduling
inputs: the engine's cost proxy, plus the priority/deadline set through
:meth:`ClusterBackend.submit_context`.

Spec grammar (``REPRO_BACKEND``, ``JobEngine(backend=...)``,
``repro-experiments --backend``)::

    cluster[:N][,policy=fifo|ljf|edd|suspend][,heartbeat=S][,deadline=S]
              [,backoff=S][,respawns=K]

``N`` is the ``parallelmax`` worker budget (default 2); the remaining
options tune the dispatch policy and the liveness machinery (defaults: the
canonical :data:`~repro.runtime.framing.HEARTBEAT_INTERVAL` /
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
from ..runtime.engine import _job_cost
from ..runtime.framing import HEARTBEAT_INTERVAL, LIVENESS_DEADLINE
from ..runtime.worker import local_worker_command
from .policies import ChunkTicket, parse_policy
from .scheduler import BACKOFF_BASE, MAX_RESPAWNS, ClusterScheduler

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
        policy: str = "fifo",
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
        policy_obj = parse_policy(policy)
        self.slots = workers
        self.spec = spec if spec is not None else f"cluster:{workers}"
        poll = min(0.1, max(0.01, heartbeat / 4))
        self.scheduler = ClusterScheduler(
            command_factory or (lambda _slot: local_worker_command()),
            parallelmax=workers,
            policy=policy_obj,
            stats=self.stats,
            heartbeat=heartbeat,
            deadline=deadline,
            backoff=backoff,
            max_respawns=max_respawns,
            poll_interval=poll,
            label=self.spec,
            chaos=_chaos_from_env(),
        )
        self._seq = 0
        self._priority = 0
        self._deadline: "float | None" = None

    # -- scheduling context ----------------------------------------------------

    def submit_context(
        self, priority: int = 0, deadline: "float | None" = None
    ) -> "ClusterBackend":
        """Set the priority/deadline stamped onto subsequent submits.

        The engine's ``submit`` call carries no scheduling metadata, so
        callers that want ``edd``/``suspend`` behaviour set the context
        before running a batch::

            backend.submit_context(priority=1)        # a high-priority sweep
            backend.submit_context(deadline=30.0)     # due in 30s (edd)
            backend.submit_context()                  # reset to defaults
        """
        self._priority = int(priority)
        self._deadline = deadline if deadline is None else float(deadline)
        return self

    @property
    def dispatch_log(self) -> "list[dict]":
        """Per-dispatch scheduling record (see ``ClusterScheduler``)."""
        return self.scheduler.dispatch_log

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
        cost = sum(_job_cost(job, self.scheduler._traces) for _, job in chunk)
        self._seq += 1
        self.scheduler.submit(
            ChunkTicket(
                seq=self._seq,
                tag=tag,
                chunk=chunk,
                cost=cost,
                priority=self._priority,
                deadline=self._deadline,
            )
        )

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
    policy = options.pop("policy", "fifo")
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
            "(known: policy, heartbeat, deadline, backoff, respawns)"
        )
    canonical = f"cluster:{workers}"
    if policy != "fifo":
        canonical += f",policy={policy}"
    return ClusterBackend(workers, policy, spec=canonical, **kwargs)
