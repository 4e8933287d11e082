"""Backend-independent simulation job engine.

:class:`JobEngine` executes batches of :class:`~repro.runtime.job.SimulationJob`
specs.  Each batch first consults the optional persistent
:class:`~repro.runtime.store.ResultStore`, so only genuinely new
(config, bug, trace, step) combinations are ever simulated; computed results
are written back **as each chunk completes**, so a mid-batch failure never
discards finished work (re-running after a failure executes only the
unfinished jobs).

Where those jobs actually execute is a pluggable
:class:`~repro.runtime.backends.ExecutionBackend`, selected by spec string::

    JobEngine(backend="serial")                  # inline (default)
    JobEngine(backend="local:8")                 # persistent process pool
    JobEngine(backend="subprocess:4")            # repro-worker pool over stdio
    JobEngine(backend="cluster:4,heartbeat=0.5") # the same, options spelled out
    JobEngine(backend="ssh://hostA:4,hostB:4")   # the same, workers over ssh
    JobEngine(jobs=8)                            # sugar for "local:8"

``jobs=1`` (the default) maps to ``serial``; the ``REPRO_JOBS`` and
``REPRO_BACKEND`` environment variables supply defaults when neither
argument is given.  Every backend produces bit-identical results: the
simulators are deterministic functions of (config, bug, trace, step), and a
conformance suite pins serial ≡ local ≡ subprocess ≡ cluster output.

The engine keeps what is backend-independent — store consultation,
batch-internal dedup, cost-aware longest-job-first chunk planning
(see docs/PERFORMANCE.md), :class:`EngineStats`, progress reporting and
:class:`JobFailedError` semantics — and delegates chunk execution plus trace
distribution to the backend (see ``docs/RUNTIME.md`` and
:mod:`repro.runtime.backends`).
"""

from __future__ import annotations

import os
import traceback
from heapq import heappop, heappush
from typing import Callable, Mapping, Sequence

from .backends import (
    ExecutionBackend,
    default_backend_spec,
    parse_backend,
    spec_for_jobs,
)
from .execution import _execute_unit, plan_batches
from .job import Fingerprints, SimulationJob
from .stats import EngineStats
from .store import ResultStore, StoredResult

#: Environment variable naming the default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Hard ceiling on the per-chunk job count (bounds pickling latency and
#: keeps progress callbacks responsive on long batches).
MAX_CHUNK_SIZE = 32


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``, defaulting to serial execution."""
    value = os.environ.get(JOBS_ENV_VAR, "").strip()
    if not value:
        return 1
    try:
        jobs = int(value)
    except ValueError:
        raise ValueError(f"{JOBS_ENV_VAR} must be an integer, got {value!r}") from None
    return max(1, jobs)


class JobFailedError(RuntimeError):
    """A job raised inside a worker; carries the remote traceback."""

    def __init__(self, description: str, remote_traceback: str) -> None:
        super().__init__(
            f"simulation job {description} failed in worker:\n{remote_traceback}"
        )
        self.description = description
        self.remote_traceback = remote_traceback


def _job_cost(job: SimulationJob, traces: Mapping) -> int:
    """Cost proxy for one job: trace length × design width.

    Simulated cycles scale with trace length, and per-cycle work scales with
    the machine width (more dispatch/issue/commit slots per cycle), so the
    product tracks wall-clock within the accuracy LJF binning needs.
    """
    trace = traces.get(job.trace_id)
    length = len(trace) if trace is not None else 1
    config = job.config
    width = getattr(config, "width", None)
    if width is None:
        width = getattr(config, "issue_width", 1)
    return max(1, length * int(width))


def _resolve_backend(
    jobs: "int | None", backend: "str | ExecutionBackend | None"
) -> ExecutionBackend:
    """Pick the backend: explicit backend > explicit jobs > env > serial."""
    if backend is not None and jobs is not None:
        raise ValueError("pass either jobs= or backend=, not both")
    if backend is None:
        if jobs is not None:
            backend = spec_for_jobs(jobs)
        else:
            backend = default_backend_spec() or spec_for_jobs(default_jobs())
    return parse_backend(backend)


class JobEngine:
    """Executes simulation job batches on a pluggable execution backend.

    Parameters
    ----------
    jobs:
        Worker count sugar: ``1`` is the ``serial`` backend, ``N`` is
        ``local:N``.  ``None`` defers to *backend*, then to the
        ``REPRO_BACKEND`` / ``REPRO_JOBS`` environment variables (default
        serial).  Mutually exclusive with *backend*.
    backend:
        Backend spec string (``"serial"``, ``"local:8"``, ``"subprocess:4"``,
        ``"cluster:4"``, ``"ssh://hostA:4,hostB:4"`` — see
        :mod:`repro.runtime.backends`) or
        an :class:`~repro.runtime.backends.ExecutionBackend` instance.
    store:
        Optional persistent :class:`ResultStore` consulted before every
        batch and updated as results complete (so interrupted batches
        resume instead of recomputing).
    chunk_size:
        Jobs per backend task; ``None`` sizes chunks to roughly four tasks
        per worker slot, capped at :data:`MAX_CHUNK_SIZE`.
    progress:
        Optional ``callback(done, total)`` invoked as batch jobs finish
        (store hits report immediately).  The live :class:`EngineStats`
        (chunking, worker reuse) are on :attr:`stats`.

    Parallel batches are planned longest-job-first: pending jobs are binned
    costliest-first into cost-balanced chunks, and the costliest chunks are
    submitted first (:meth:`_plan_chunks`).

    The engine may be used as a context manager; ``close()`` shuts down the
    backend's worker set (each backend also installs its own finalizer, so
    garbage-collecting the engine cannot leak worker processes).
    """

    def __init__(
        self,
        jobs: int | None = None,
        store: ResultStore | None = None,
        chunk_size: int | None = None,
        progress: Callable[[int, int], None] | None = None,
        backend: "str | ExecutionBackend | None" = None,
    ) -> None:
        self.stats = EngineStats()
        self.backend = _resolve_backend(jobs, backend)
        self.backend.stats = self.stats
        #: Worker slot count, kept for backward compatibility with the
        #: seed's ``engine.jobs`` (chunk sizing also derives from it).
        self.jobs = self.backend.slots
        self.store = store
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size
        self.progress = progress

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Shut down the backend's worker set (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- internals -------------------------------------------------------------

    def _pick_chunk_size(self, pending: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        spread = max(1, pending // (self.jobs * 4))
        return min(spread, MAX_CHUNK_SIZE)

    def _plan_chunks(
        self,
        pending: list[tuple[int, SimulationJob]],
        traces: Mapping,
    ) -> list[list[tuple[int, SimulationJob]]]:
        """Split *pending* into backend chunks, costliest chunk first.

        Longest-processing-time binning: jobs sorted by descending cost go
        to the least-loaded chunk with room, and chunks are returned
        costliest-first so the heaviest work starts earliest.  The plan is a
        deterministic function of the batch.
        """
        chunk_size = self._pick_chunk_size(len(pending))
        num_chunks = (len(pending) + chunk_size - 1) // chunk_size
        if num_chunks <= 1:
            return [list(pending)]
        costs = [_job_cost(job, traces) for _, job in pending]
        order = sorted(range(len(pending)), key=lambda i: (-costs[i], i))
        bins: list[list[tuple[int, SimulationJob]]] = [[] for _ in range(num_chunks)]
        bin_costs = [0] * num_chunks
        # Least-loaded-first heap; bins at capacity drop out of the heap.
        heap: list[tuple[int, int]] = [(0, b) for b in range(num_chunks)]
        for i in order:
            while True:
                load, b = heappop(heap)
                if len(bins[b]) < chunk_size:
                    break
            bins[b].append(pending[i])
            bin_costs[b] = load + costs[i]
            if len(bins[b]) < chunk_size:
                heappush(heap, (bin_costs[b], b))
        plan = [b for b in range(num_chunks) if bins[b]]
        plan.sort(key=lambda b: (-bin_costs[b], b))
        return [bins[b] for b in plan]

    def _report(self, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(done, total)

    def _persist(self, key: str, result: StoredResult) -> None:
        """Write one finished result to the store immediately (resumability)."""
        if self.store is not None:
            self.store.put(key, result)

    # -- API -------------------------------------------------------------------

    def run(
        self,
        jobs: Sequence[SimulationJob],
        traces: Mapping,
    ) -> list[StoredResult]:
        """Execute *jobs*, returning results in input order.

        *traces* maps each job's ``trace_id`` to the actual instruction
        trace (a micro-op list or a
        :class:`~repro.workloads.decoded.DecodedTrace`); only the traces the
        batch references are shipped to workers.  Duplicate job contents
        within one batch are simulated once.
        """
        self.stats.batches += 1
        self.stats.jobs += len(jobs)
        total = len(jobs)
        results: list[StoredResult | None] = [None] * total

        # Resolve store hits and batch-internal duplicates first.
        fingerprints = Fingerprints()
        keys: list[str] = []
        pending: list[tuple[int, SimulationJob]] = []
        first_index_of_key: dict[str, int] = {}
        duplicates: list[tuple[int, int]] = []
        for index, job in enumerate(jobs):
            if job.trace_id not in traces:
                raise KeyError(
                    f"job {job.describe()} references unknown trace {job.trace_id!r}"
                )
            key = fingerprints.key(job)
            keys.append(key)
            if key in first_index_of_key:
                duplicates.append((index, first_index_of_key[key]))
                continue
            first_index_of_key[key] = index
            if self.store is not None:
                stored = self.store.get(key)
                if stored is not None:
                    results[index] = stored
                    self.stats.store_hits += 1
                    continue
            pending.append((index, job))
        self._report(total - len(pending) - len(duplicates), total)

        if pending:
            # A single pending job skips worker spin-up and runs inline —
            # but only for local backends: a remote backend was chosen to
            # place work *elsewhere*, so even one job goes through it.
            if self.backend.inline or (len(pending) == 1 and not self.backend.remote):
                done = total - len(pending) - len(duplicates)
                for unit in plan_batches(pending, fingerprints):
                    try:
                        unit_results = _execute_unit(
                            unit, {j.trace_id: traces[j.trace_id] for _, j in unit}
                        )
                    except Exception as exc:
                        raise JobFailedError(
                            unit[0][1].describe(), traceback.format_exc()
                        ) from exc
                    for index, stored in unit_results:
                        results[index] = stored
                        self._persist(keys[index], stored)
                        done += 1
                        self._report(done, total)
            else:
                self._run_parallel(pending, keys, traces, results, total, len(duplicates))
            self.stats.executed += len(pending)

        for index, source in duplicates:
            results[index] = results[source]
        if duplicates:
            self._report(total, total)
        return results  # type: ignore[return-value]

    def _run_parallel(
        self,
        pending: list[tuple[int, SimulationJob]],
        keys: list[str],
        traces: Mapping,
        results: list[StoredResult | None],
        total: int,
        num_duplicates: int,
    ) -> None:
        needed_ids = {job.trace_id for _, job in pending}
        batch_traces = {tid: traces[tid] for tid in needed_ids}
        backend = self.backend
        backend.start(batch_traces)
        known_ids = backend.known_trace_ids()
        chunks = self._plan_chunks(pending, traces)
        self.stats.chunks += len(chunks)
        done = total - len(pending) - num_duplicates

        try:
            for tag, chunk in enumerate(chunks):
                # Per-chunk trace delta: whatever this chunk references that
                # the backend's workers do not already hold.  Backends that
                # distribute traces themselves (cluster) report everything as
                # known and receive empty deltas.
                delta = {
                    tid: batch_traces[tid]
                    for tid in sorted({job.trace_id for _, job in chunk})
                    if tid not in known_ids
                }
                self.stats.trace_deltas += len(delta)
                backend.submit(tag, chunk, delta)

            outstanding = len(chunks)
            for tag, (chunk_results, failure) in backend.drain():
                outstanding -= 1
                # Persist whatever the chunk finished — including the jobs
                # that completed before a failure — so an interrupted batch
                # resumes instead of recomputing.
                for index, stored in chunk_results:
                    results[index] = stored
                    self._persist(keys[index], stored)
                    done += 1
                if failure is not None:
                    raise JobFailedError(failure.description, failure.remote_traceback)
                self.stats.straggler_jobs = len(chunks[tag])
                self._report(done, total)
                if outstanding == 0:
                    break
        except JobFailedError:
            # The workers themselves are healthy (job failures travel as
            # values): drop what has not started and keep the backend warm
            # for the next batch.
            backend.cancel_pending()
            raise
        except BaseException:
            # Backend-level failure (worker death, lost connection,
            # KeyboardInterrupt): tear the worker set down so the next
            # batch starts from a clean slate.
            backend.close()
            raise
