"""Simulation job engine with pluggable execution backends and a result store.

Every experiment in the reproduction reduces to thousands of independent
(microarchitecture x bug x probe) simulation jobs.  This package provides
the runtime that makes broad sweeps tractable:

* :class:`SimulationJob` — a pure-data, picklable job spec, with
  content-hash identity (:meth:`SimulationJob.key`; :func:`job_keys` for
  a batch),
* :class:`JobEngine` — plans job batches into cost-balanced chunks and runs
  them on a pluggable :class:`ExecutionBackend`, selected by spec string:
  ``serial`` (inline), ``local:N`` (persistent process pool), or a pool of
  ``repro-worker`` processes speaking a stdio frame protocol under the
  :mod:`repro.cluster` scheduler — ``subprocess:N`` / ``cluster:N`` locally,
  ``ssh://hostA:4,hostB:4`` over ssh —
  with chunked dispatch, deterministic per-job seeds, progress callbacks,
  incremental result persistence and uniform worker-failure propagation
  (:class:`JobFailedError`).  ``jobs=N`` / ``REPRO_JOBS`` remain sugar for
  the local backend; ``REPRO_BACKEND`` names a default spec,
* :class:`ResultStore` — persists counter series to disk keyed by the
  content hash of (config, bug, trace, step), so repeated experiment runs
  and CI never re-simulate; mergeable across runs
  (:meth:`ResultStore.merge_from`, ``repro-store merge``).

The simulation caches in :mod:`repro.detect.dataset` batch their misses
through this engine, and ``repro.experiments.runner --backend SPEC --store
PATH`` threads it under all figure/table experiments.  The backend API and
the worker wire protocol are documented in ``docs/RUNTIME.md``.
"""

from .backends import (
    BACKEND_ENV_VAR,
    BackendError,
    ExecutionBackend,
    LocalBackend,
    ProtocolError,
    SerialBackend,
    parse_backend,
    spec_for_jobs,
)
from .engine import (
    JOBS_ENV_VAR,
    JobEngine,
    JobFailedError,
    default_jobs,
)
from .job import (
    CORE_STUDY,
    MEMORY_STUDY,
    SimulationJob,
    TraceRegistry,
    bug_fingerprint,
    config_fingerprint,
    job_keys,
    trace_digest,
)
from .stats import EngineStats
from .store import ResultStore, StoredResult, StoreStats

__all__ = [
    "BACKEND_ENV_VAR",
    "CORE_STUDY",
    "MEMORY_STUDY",
    "JOBS_ENV_VAR",
    "BackendError",
    "EngineStats",
    "ExecutionBackend",
    "JobEngine",
    "JobFailedError",
    "LocalBackend",
    "ProtocolError",
    "ResultStore",
    "SerialBackend",
    "SimulationJob",
    "StoreStats",
    "StoredResult",
    "TraceRegistry",
    "bug_fingerprint",
    "config_fingerprint",
    "default_jobs",
    "job_keys",
    "parse_backend",
    "spec_for_jobs",
    "trace_digest",
]
