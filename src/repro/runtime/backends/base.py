"""The :class:`ExecutionBackend` protocol: how chunk execution plugs into
:class:`~repro.runtime.engine.JobEngine`.

The engine keeps everything backend-independent — store consultation,
batch-internal dedup, LJF chunk planning, stats, progress reporting
and :class:`~repro.runtime.engine.JobFailedError` semantics — and delegates
chunk *execution* and trace *distribution* to a backend:

1. ``start(traces)`` once per parallel batch, with every trace the batch
   references; the backend makes its worker set live (spawning, reusing or
   rebasing it as it sees fit) and absorbs the traces into its distribution
   plan.
2. ``submit(tag, chunk, trace_delta)`` for each planned chunk.
   *trace_delta* holds the traces the chunk references that
   ``known_trace_ids()`` did not include after ``start`` — i.e. what the
   engine believes the backend's workers still need pushed alongside the
   chunk.  Backends that distribute traces themselves (the cluster backend
   ships each trace once per worker, keyed by content digest) report every
   trace as known and always receive empty deltas.
3. ``drain()`` yields ``(tag, ChunkOutcome)`` pairs as chunks complete, in
   completion order.  A transport-level problem (dead worker, lost
   connection) raises :class:`BackendError` — job-level exceptions travel
   *inside* the outcome as a :class:`~repro.runtime.execution.ChunkFailure`.
4. ``cancel_pending()`` after a job failure: forget chunks that have not
   started, keep the workers (the failure was the job's fault, not the
   worker's).  ``close()`` after a transport failure or on engine shutdown:
   tear the worker set down; a later ``start`` must bring up a fresh one.

Capability flags describe the backend to the engine: ``inline`` backends
execute jobs in the calling process (the engine then bypasses chunking for
per-job progress and persistence granularity), ``remote`` backends cross a
process or host boundary and therefore need every trace shipped by value.
"""

from __future__ import annotations

import abc
from typing import Iterator, Mapping, Set

from ..stats import EngineStats

#: Environment variable naming the default backend spec string
#: (e.g. ``serial``, ``local:8``, ``subprocess:4``, ``ssh://hostA:4,hostB:4``).
BACKEND_ENV_VAR = "REPRO_BACKEND"


class BackendError(RuntimeError):
    """The execution backend itself failed (worker death, lost connection).

    Distinct from :class:`~repro.runtime.engine.JobFailedError`: a job
    failure means the *work* was bad and the workers are fine; a backend
    error means the workers are gone and the engine must tear the backend
    down before the next batch.
    """


class ExecutionBackend(abc.ABC):
    """Executes planned job chunks on some worker set (see module docstring)."""

    #: Canonical spec string (``"serial"``, ``"local:4"``, ...), for reports.
    spec: str = "?"
    #: Concurrent worker slots; the engine sizes chunk plans against this.
    slots: int = 1
    #: Executes jobs in the calling process (no pickling, per-job progress).
    inline: bool = False
    #: Crosses a process/host boundary: traces must ship by value.
    remote: bool = False

    def __init__(self) -> None:
        # The engine rebinds this to its own stats object so backend
        # lifecycle counters (pool_creates/pool_reuses/traces_shipped) land
        # in the same place as the engine's own counters.
        self.stats = EngineStats()

    @abc.abstractmethod
    def start(self, traces: Mapping) -> None:
        """Make the worker set live and register the batch's trace table."""

    @abc.abstractmethod
    def known_trace_ids(self) -> Set[str]:
        """Digests the engine may assume workers hold (post-``start``)."""

    @abc.abstractmethod
    def submit(self, tag: int, chunk: list, trace_delta: Mapping) -> None:
        """Queue one chunk for execution, shipping *trace_delta* with it."""

    @abc.abstractmethod
    def drain(self) -> Iterator[tuple]:
        """Yield ``(tag, ChunkOutcome)`` as submitted chunks complete."""

    @abc.abstractmethod
    def cancel_pending(self) -> None:
        """Drop not-yet-started chunks; keep the worker set for reuse."""

    @abc.abstractmethod
    def close(self) -> None:
        """Tear down the worker set (idempotent); ``start`` revives it."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec}>"
