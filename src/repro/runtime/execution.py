"""Job execution shared by every backend: inline, pool worker, remote worker.

One :class:`~repro.runtime.job.SimulationJob` always executes the same way —
dispatch on the study kind into a deterministic simulator — no matter which
:class:`~repro.runtime.backends.ExecutionBackend` is driving it.  This module
is the single implementation all of them call, so serial, local-pool and
remote execution cannot drift apart.

Core-study jobs that share a (config, bug, step) — the shape every sweep
produces — are grouped into batch units by :func:`plan_batches` and
executed through :func:`~repro.coresim.simulator.simulate_trace_batch`.
Results are bit-identical to per-job execution (the native kernel is pinned
counter-identical to the scalar one), so store keys and stored content do
not depend on the kernel or the grouping.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..coresim.simulator import simulate_trace, simulate_trace_batch
from ..memsim.simulator import simulate_memory_trace
from .job import CORE_STUDY, MEMORY_STUDY, SimulationJob, bug_fingerprint, config_fingerprint
from .store import StoredResult


def execute_job(job: SimulationJob, trace) -> StoredResult:
    """Run one job to completion on *trace* (in-process or in a worker)."""
    if job.study == CORE_STUDY:
        return StoredResult.from_core(
            simulate_trace(job.config, trace, bug=job.bug, step_cycles=job.step)
        )
    if job.study == MEMORY_STUDY:
        return StoredResult.from_memory(
            simulate_memory_trace(
                job.config, trace, bug=job.bug, step_instructions=job.step
            )
        )
    raise ValueError(f"unknown study kind {job.study!r}")


@dataclass
class ChunkFailure:
    """Picklable stand-in for an exception raised while executing a job."""

    description: str
    remote_traceback: str


#: What executing one chunk produces: the results of every job that finished
#: (in chunk order) plus the failure that stopped the chunk, if any.  Jobs
#: completed before the failure are preserved so the engine can persist them
#: (resumable batches) even when a later job in the same chunk explodes.
ChunkOutcome = "tuple[list[tuple[int, StoredResult]], ChunkFailure | None]"


def batch_group_key(job: SimulationJob) -> "tuple | None":
    """Batching key of *job*, or ``None`` if the job can't batch.

    Core-study jobs group by (config, bug, step) content; memory-study jobs
    execute singly.
    """
    if job.study != CORE_STUDY:
        return None
    return (config_fingerprint(job.config), bug_fingerprint(job.bug), job.step)


def plan_batches(
    chunk: Sequence["tuple[int, SimulationJob]"],
) -> "list[list[tuple[int, SimulationJob]]]":
    """Split *chunk* into execution units: singles, or same-group batches.

    Jobs sharing a :func:`batch_group_key` merge into one unit, anchored at
    the position of the group's first job, and execute as one
    :func:`~repro.coresim.simulator.simulate_trace_batch` call.  Planning
    is a pure function of the chunk, so every backend produces the same
    units.
    """
    units: list[list[tuple[int, SimulationJob]]] = []
    group_unit: dict[tuple, list[tuple[int, SimulationJob]]] = {}
    for index, job in chunk:
        key = batch_group_key(job)
        if key is None:
            units.append([(index, job)])
            continue
        unit = group_unit.get(key)
        if unit is None:
            unit = [(index, job)]
            group_unit[key] = unit
            units.append(unit)
        else:
            unit.append((index, job))
    return units


def _execute_unit(
    unit: "list[tuple[int, SimulationJob]]", traces: Mapping
) -> "list[tuple[int, StoredResult]]":
    """Execute one planned unit (a single job or a same-group batch)."""
    if len(unit) == 1:
        index, job = unit[0]
        return [(index, execute_job(job, traces[job.trace_id]))]
    first = unit[0][1]
    results = simulate_trace_batch(
        first.config,
        [traces[job.trace_id] for _, job in unit],
        bug=first.bug,
        step_cycles=first.step,
    )
    return [
        (index, StoredResult.from_core(result))
        for (index, _job), result in zip(unit, results)
    ]


def run_chunk_items(
    chunk: Sequence["tuple[int, SimulationJob]"], traces: Mapping
) -> "tuple[list[tuple[int, StoredResult]], ChunkFailure | None]":
    """Execute every ``(index, job)`` in *chunk* against the *traces* table.

    Stops at the first failing unit, returning the results completed so far
    together with a :class:`ChunkFailure` carrying the formatted traceback
    (exceptions from user bug models may not survive pickling, so the
    traceback ships as text).  A failure inside a batch unit is attributed
    to the batch's first job.
    """
    results: list[tuple[int, StoredResult]] = []
    for unit in plan_batches(chunk):
        try:
            results.extend(_execute_unit(unit, traces))
        except Exception:
            return results, ChunkFailure(unit[0][1].describe(), traceback.format_exc())
    return results, None
