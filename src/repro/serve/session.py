"""The request path of the detection daemon: dedup, batch, simulate, score.

One :class:`ServingSession` owns everything a probe→verdict request touches
after the socket layer peels the frames off:

* a warm :class:`~repro.serve.registry.RegisteredModel` (trained stage-1
  models + stage-2 classifier, loaded once),
* a :class:`~repro.runtime.TraceRegistry` holding every registered probe's
  pre-decoded trace (digests computed once at startup),
* an in-memory result overlay plus an optional persistent
  :class:`~repro.runtime.ResultStore` — incoming probe jobs are deduped
  against both, so a repeated request never re-simulates,
* the batched warm path: per request item, all store-missing probe jobs
  share one (config, bug, step) and are grouped by
  :func:`~repro.runtime.execution.plan_batches` into a single batch unit
  through :func:`~repro.coresim.simulator.simulate_trace_batch`.

Sessions are shared by every connection thread of the daemon.  Simulation
and store mutation run under one lock (it guards the in-memory overlay and
the simulation/store counters, whose read-modify-write updates are not
thread-safe); scoring is pure and runs outside it, and the request and
verdict counters have a lock of their own, so a scored verdict never waits
for another connection's simulation.  Verdicts are yielded per request item
as they complete, so the server can stream them back immediately.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..coresim.native import core_kernel
from ..runtime import ResultStore, SimulationJob, TraceRegistry
from ..runtime.execution import _execute_unit, plan_batches
from ..runtime.job import Fingerprints
from ..runtime.store import StoredResult
from .registry import RegisteredModel, Verdict


@dataclass
class SessionStats:
    """Observable counters of one serving session (reported by ``stats``)."""

    requests: int = 0
    verdicts: int = 0
    executed: int = 0
    memory_hits: int = 0
    store_hits: int = 0

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "verdicts": self.verdicts,
            "executed": self.executed,
            "memory_hits": self.memory_hits,
            "store_hits": self.store_hits,
        }


@dataclass
class ItemVerdict:
    """One streamed verdict: the scored answer plus its serving cost."""

    index: int
    verdict: Verdict
    executed: int
    store_hits: int
    elapsed_ms: float

    def row(self) -> dict:
        payload = self.verdict.row()
        payload.update(
            index=self.index,
            executed=self.executed,
            store_hits=self.store_hits,
            elapsed_ms=self.elapsed_ms,
        )
        return payload


class ServingSession:
    """Warm serving state shared by every connection of one daemon."""

    def __init__(
        self,
        model: RegisteredModel,
        store: ResultStore | None = None,
    ) -> None:
        self.model = model
        self.store = store
        self.stats = SessionStats()
        self._registry = TraceRegistry()
        #: probe name -> trace digest, computed once — serving never re-hashes.
        self._trace_ids = {
            probe.name: self._registry.register(probe.decoded)
            for probe in model.probes
        }
        #: In-memory overlay over the persistent store: repeated requests are
        #: served without touching disk, and a store-less daemon still dedups.
        self._memory: dict[str, StoredResult] = {}
        self._lock = threading.Lock()
        self._count_lock = threading.Lock()

    # -- probe jobs ------------------------------------------------------------

    def _jobs_for(self, config, bug) -> list[tuple[SimulationJob, str]]:
        """The (job, probe name) list one request item expands into."""
        step = self.model.schema.step_cycles
        return [
            (
                SimulationJob(
                    study="core",
                    config=config,
                    bug=bug,
                    trace_id=self._trace_ids[probe.name],
                    step=step,
                ),
                probe.name,
            )
            for probe in self.model.probes
        ]

    def _lookup(self, key: str) -> StoredResult | None:
        cached = self._memory.get(key)
        if cached is not None:
            self.stats.memory_hits += 1
            return cached
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                self.stats.store_hits += 1
                self._memory[key] = stored
                return stored
        return None

    def _persist(self, key: str, stored: StoredResult) -> None:
        self._memory[key] = stored
        if self.store is not None:
            self.store.put(key, stored)

    # -- the request path ------------------------------------------------------

    def _simulate_item(self, config, bug) -> tuple[dict, int, int]:
        """Simulate one item's probes, dedup-first, batched misses.

        Returns ``(series_by_probe, executed, store_hits)``.
        """
        jobs = self._jobs_for(config, bug)
        results: dict[str, StoredResult] = {}
        with self._lock:
            hits_before = self.stats.store_hits
            pending: list[tuple[int, SimulationJob]] = []
            pending_names: dict[int, tuple[str, str]] = {}
            fingerprints = Fingerprints()
            for index, (job, probe_name) in enumerate(jobs):
                key = fingerprints.key(job)
                stored = self._lookup(key)
                if stored is not None:
                    results[probe_name] = stored
                    continue
                pending.append((index, job))
                pending_names[index] = (probe_name, key)
            executed = len(pending)
            # All of an item's misses share (config, bug, step), so
            # plan_batches folds them into one batch unit.
            for unit in plan_batches(pending, fingerprints):
                for index, stored in _execute_unit(unit, self._registry.traces):
                    probe_name, key = pending_names[index]
                    results[probe_name] = stored
                    self._persist(key, stored)
            self.stats.executed += executed
            store_hits = self.stats.store_hits - hits_before
        series_by_probe = {name: stored.series for name, stored in results.items()}
        return series_by_probe, executed, store_hits

    def verdict_for(self, index: int, config, bug=None) -> ItemVerdict:
        """Serve one request item end to end (thread-safe)."""
        started = time.perf_counter()
        series_by_probe, executed, store_hits = self._simulate_item(config, bug)
        verdict = self.model.verdict(series_by_probe, config, bug)
        with self._count_lock:
            self.stats.verdicts += 1
        return ItemVerdict(
            index=index,
            verdict=verdict,
            executed=executed,
            store_hits=store_hits,
            elapsed_ms=round((time.perf_counter() - started) * 1000.0, 3),
        )

    def run_batch(self, items: Iterable[tuple]) -> Iterator[ItemVerdict]:
        """Serve a probe batch, yielding per-item verdicts as they complete.

        *items* yields ``(config, bug-or-None)`` pairs.  Within an item the
        store-missing probes execute as one batch; across items the
        generator streams, so the first verdict leaves the daemon while
        later items are still simulating.
        """
        with self._count_lock:
            self.stats.requests += 1
        for index, (config, bug) in enumerate(items):
            yield self.verdict_for(index, config, bug)

    # -- introspection ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Health/statistics payload for ``ping`` and ``stats`` requests."""
        payload = {
            "model": self.model.name,
            "probes": len(self.model.probes),
            "step_cycles": self.model.schema.step_cycles,
            "ml_engine": self.model.schema.ml_engine,
            "training_digest": self.model.provenance.get("training_digest"),
            "kernel": core_kernel(),
            "memory_entries": len(self._memory),
            "store_entries": len(self.store) if self.store is not None else None,
            "stats": self.stats.snapshot(),
        }
        return payload
