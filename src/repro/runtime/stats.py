"""Observable counters describing what one :class:`JobEngine` actually did.

Lives in its own module (rather than in :mod:`repro.runtime.engine`) because
both the engine and every :class:`~repro.runtime.backends.ExecutionBackend`
update the same stats object: the engine owns the batch/job/store/chunking
counters, the backend owns the worker-lifecycle and trace-shipping counters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineStats:
    """Counters describing what one :class:`JobEngine` actually did.

    Beyond the seed's batch/job/store counters, the scheduling fields let
    alternative schedulers and backends be compared from a progress callback:
    ``chunks`` (backend tasks dispatched), ``straggler_jobs`` (jobs in the
    chunk that finished last in the most recent parallel batch),
    ``pool_creates``/``pool_reuses`` (worker-set lifecycle: pool or worker
    set creation vs reuse across batches), ``traces_shipped`` (traces sent
    to workers — once per worker for the worker-pool backends) and
    ``trace_deltas`` (trace copies attached to chunks as deltas).

    The liveness counters are owned by the cluster scheduler
    (:mod:`repro.cluster`, behind ``subprocess``, ``cluster`` and ``ssh://``
    specs): ``workers_spawned`` (worker processes started, including
    respawns), ``workers_lost`` (workers that died or were killed for
    missing their liveness deadline), ``workers_respawned`` (spawns that
    replaced a previously-live worker) and ``chunks_requeued`` (in-flight
    chunks given back to the queue after their worker was lost).  They stay
    zero on the serial and local backends.
    """

    batches: int = 0
    jobs: int = 0
    store_hits: int = 0
    executed: int = 0
    chunks: int = 0
    straggler_jobs: int = 0
    pool_creates: int = 0
    pool_reuses: int = 0
    traces_shipped: int = 0
    trace_deltas: int = 0
    workers_spawned: int = 0
    workers_lost: int = 0
    workers_respawned: int = 0
    chunks_requeued: int = 0

    def reset(self) -> None:
        self.batches = self.jobs = self.store_hits = self.executed = 0
        self.chunks = self.straggler_jobs = 0
        self.pool_creates = self.pool_reuses = 0
        self.traces_shipped = self.trace_deltas = 0
        self.workers_spawned = self.workers_lost = 0
        self.workers_respawned = self.chunks_requeued = 0
