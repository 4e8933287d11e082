"""Simulation data collection and caching for the detection pipeline.

Running a probe on a microarchitecture (with or without an injected bug) is by
far the most expensive operation in the methodology, and the same (probe,
design, bug) observation is reused by several experiments — stage-1 training,
stage-2 training, every leave-one-bug-type-out fold, and the ablations.  The
:class:`SimulationCache` memoises those runs.

Both caches route their misses through a :class:`~repro.runtime.JobEngine`
as batches of :class:`~repro.runtime.SimulationJob` specs rather than looping
the simulators inline: callers that know their working set up front (the
detector, the experiments) call :meth:`SimulationCache.warm` with every
(probe, design, bug) triple they will need, and the engine shards the misses
across worker processes and/or serves them from its persistent result store.
Single :meth:`get` calls degrade to one-job batches, so the serial behaviour
is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..coresim.counters import CounterTimeSeries
from ..coresim.hooks import CoreBugModel
from ..runtime import CORE_STUDY, MEMORY_STUDY, JobEngine, SimulationJob, TraceRegistry
from ..uarch.config import MicroarchConfig
from .probe import Probe

#: Bug key used for bug-free observations.
BUG_FREE_KEY = "bug-free"


def bug_key(bug) -> str:
    """The name an observation of *bug* (``None`` for bug-free) is keyed by."""
    return bug.name if bug is not None else BUG_FREE_KEY


@dataclass
class Observation:
    """One simulated (probe, design, bug) data point."""

    probe_name: str
    config_name: str
    bug_name: str
    series: CounterTimeSeries
    ipc: float
    target_metric: float


class SimulationCache:
    """Memoised core-simulator runs keyed by (probe, design, bug)."""

    study = CORE_STUDY

    def __init__(self, step_cycles: int = 2048, engine: JobEngine | None = None) -> None:
        self.step_cycles = step_cycles
        self.engine = engine if engine is not None else JobEngine(jobs=1)
        self._cache: dict[tuple[str, str, str], Observation] = {}
        self._registry = TraceRegistry()
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)

    def _job(self, probe: Probe, config, bug) -> SimulationJob:
        # Register the pre-decoded trace: the digest (and therefore every job
        # key and store entry) is identical to the plain list's, but workers
        # receive compact column arrays plus an amortised per-trace decode.
        return SimulationJob(
            study=self.study,
            config=config,
            bug=bug,
            trace_id=self._registry.register(probe.decoded),
            step=self.step_cycles,
        )

    def _observe(self, probe: Probe, config, bug, stored) -> Observation:
        result = stored.to_core()
        return Observation(
            probe_name=probe.name,
            config_name=config.name,
            bug_name=bug_key(bug),
            series=result.series,
            ipc=result.ipc,
            target_metric=result.ipc,
        )

    def warm(self, requests: Iterable[Sequence]) -> int:
        """Simulate every not-yet-cached request as one engine batch.

        *requests* yields ``(probe, config, bug-or-None)`` triples.  Returns
        the number of jobs dispatched (in-memory cache misses); engine-level
        store hits still count as dispatched jobs here.
        """
        jobs: list[SimulationJob] = []
        meta: list[tuple[tuple[str, str, str], Probe, object, object]] = []
        seen: set[tuple[str, str, str]] = set()
        for probe, config, bug in requests:
            key = (probe.name, config.name, bug_key(bug))
            if key in self._cache or key in seen:
                continue
            seen.add(key)
            jobs.append(self._job(probe, config, bug))
            meta.append((key, probe, config, bug))
        if not jobs:
            return 0
        self.misses += len(jobs)
        stored_results = self.engine.run(jobs, self._registry.traces)
        for (key, probe, config, bug), stored in zip(meta, stored_results):
            self._cache[key] = self._observe(probe, config, bug, stored)
        return len(jobs)

    def get(
        self,
        probe: Probe,
        config: MicroarchConfig,
        bug: CoreBugModel | None = None,
    ) -> Observation:
        """Return the observation, simulating on first use."""
        key = (probe.name, config.name, bug_key(bug))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        self.warm([(probe, config, bug)])
        return self._cache[key]


class MemorySimulationCache(SimulationCache):
    """Memoised memory-hierarchy runs keyed by (probe, design, bug)."""

    study = MEMORY_STUDY

    def __init__(
        self,
        step_instructions: int = 2000,
        target_metric: str = "amat",
        engine: JobEngine | None = None,
    ) -> None:
        if target_metric not in ("amat", "ipc"):
            raise ValueError("target_metric must be 'amat' or 'ipc'")
        super().__init__(step_cycles=step_instructions, engine=engine)
        self.step_instructions = step_instructions
        self.target_metric = target_metric

    def _observe(self, probe: Probe, config, bug, stored) -> Observation:
        result = stored.to_memory()
        series = result.series
        if self.target_metric == "amat":
            # Swap the target series so the generic stage-1 machinery (which
            # regresses ``series.ipc``) models AMAT instead.
            series = CounterTimeSeries(
                series.step_cycles, series.names, series.values,
                series.row("mem.amat").copy(),
            )
        return Observation(
            probe_name=probe.name,
            config_name=config.name,
            bug_name=bug_key(bug),
            series=series,
            ipc=result.ipc,
            target_metric=result.amat if self.target_metric == "amat" else result.ipc,
        )
