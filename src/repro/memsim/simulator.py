"""Trace-driven memory-hierarchy simulator (ChampSim stand-in).

Processes a dynamic instruction trace, sending loads and stores through an
L1D/L2/LLC hierarchy with a prefetcher, and produces a counter time series
whose per-step target metrics are AMAT (average memory access time) and a
simple-core IPC proxy.  This is the substrate for the memory-system bug study
of Section IV-D.

Two bit-identical kernels back :func:`simulate_memory_trace`, and both read
a bug as the :class:`~repro.memsim.hooks.MemoryBugRecord` its model
compiles: the compiled C loop of :mod:`repro.memsim.native` runs every
request it can, and :class:`MemoryHierarchySim`, the Python memsim, runs
when no compiler exists or the trace or configuration is past a native
kernel limit (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..coresim.counters import CounterTimeSeries
from ..uarch.config import MemoryHierarchyConfig
from ..workloads.decoded import DecodedTrace, as_uops
from ..workloads.isa import MicroOp
from .cache import ReplacementCache
from .hooks import MEM_BUG_FREE, MemoryBugModel
from .prefetcher import build_prefetcher

#: Default sampling step, in instructions (the memory study samples by
#: retired-instruction count rather than cycles).
DEFAULT_STEP_INSTRUCTIONS = 2000

#: How much of a miss's latency the out-of-order core is assumed to overlap.
MLP_FACTOR = 3.0

#: Leading share of a trace that only warms the caches.
WARMUP_FRACTION = 0.1


@dataclass
class MemSimResult:
    """Outcome of one memory-hierarchy simulation."""

    config_name: str
    bug_name: str
    instructions: int
    cycles: float
    series: CounterTimeSeries
    amat: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def amat_series(self) -> np.ndarray:
        return self.series.counters["mem.amat"]


class MemoryHierarchySim:
    """Simulates the cache hierarchy of one :class:`MemoryHierarchyConfig`."""

    def __init__(
        self,
        config: MemoryHierarchyConfig,
        bug: MemoryBugModel | None = None,
        step_instructions: int = DEFAULT_STEP_INSTRUCTIONS,
    ) -> None:
        self.config = config
        self.bug = bug if bug is not None else MEM_BUG_FREE
        self.step_instructions = step_instructions
        self.bug.on_simulation_start(config)
        record = self.bug.compile()
        (self._l1d_threshold, self._l1d_delay), (self._l2_threshold, self._l2_delay) = (
            record.load_miss_delay
        )

        self.l1d = ReplacementCache("l1d", config.l1d, record)
        self.l2 = ReplacementCache("l2", config.l2, record)
        self.llc = ReplacementCache("llc", config.llc, record)
        self.prefetcher = build_prefetcher(
            config.prefetcher, config.l1d.line_size, config.prefetch_degree, record
        )

    # -- access path -----------------------------------------------------------

    def _access(self, address: int, is_load: bool) -> int:
        """One demand access; returns its latency in cycles."""
        cfg = self.config
        latency = cfg.l1d.latency
        if not self.l1d.access(address, is_load):
            latency += cfg.l2.latency
            if is_load and self.l1d.load_misses > self._l1d_threshold:
                latency += self._l1d_delay
            if not self.l2.access(address, is_load):
                latency += cfg.llc.latency
                if is_load and self.l2.load_misses > self._l2_threshold:
                    latency += self._l2_delay
                if not self.llc.access(address, is_load):
                    latency += cfg.dram_latency
        # Prefetcher observes demand accesses at L1D and fills into L2/LLC
        # (filling L1D directly would pollute the small L1 working set).
        for request in self.prefetcher.observe(address):
            self.l2.prefetch_fill(request.address)
            self.llc.prefetch_fill(request.address)
        return latency

    # -- driver ------------------------------------------------------------------

    def run(
        self, trace: list[MicroOp], warmup_fraction: float = WARMUP_FRACTION
    ) -> MemSimResult:
        """Simulate *trace*; the first *warmup_fraction* of it warms the caches."""
        if not trace:
            raise ValueError("cannot simulate an empty trace")
        warmup_count = int(len(trace) * warmup_fraction)
        for uop in trace[:warmup_count]:
            if uop.address is not None:
                self._access(uop.address, uop.is_load)
        for cache in (self.l1d, self.l2, self.llc):
            cache.reset_stats()

        measured = trace[warmup_count:]
        rows: list[dict[str, float]] = []
        ipc_values: list[float] = []
        step_latency = 0.0
        step_accesses = 0
        step_instructions = 0
        total_latency = 0.0
        total_accesses = 0
        total_cycles = 0.0
        previous_stats = self._stats()

        def flush_step() -> None:
            nonlocal step_latency, step_accesses, step_instructions, previous_stats
            current = self._stats()
            deltas = {k: current[k] - previous_stats.get(k, 0.0) for k in current}
            previous_stats = current
            amat = step_latency / step_accesses if step_accesses else float(
                self.config.l1d.latency
            )
            stall = max(0.0, step_latency - step_accesses * self.config.l1d.latency)
            cycles = step_instructions / self.config.issue_width + stall / MLP_FACTOR
            deltas["mem.amat"] = amat
            deltas["mem.accesses"] = float(step_accesses)
            deltas["mem.instructions"] = float(step_instructions)
            deltas["mem.stall_cycles"] = stall
            rows.append(deltas)
            ipc_values.append(step_instructions / cycles if cycles > 0 else 0.0)
            step_latency = 0.0
            step_accesses = 0
            step_instructions = 0

        for uop in measured:
            step_instructions += 1
            if uop.address is not None:
                latency = self._access(uop.address, uop.is_load)
                step_latency += latency
                step_accesses += 1
                total_latency += latency
                total_accesses += 1
                total_cycles += max(0.0, latency - self.config.l1d.latency) / MLP_FACTOR
            if step_instructions >= self.step_instructions:
                flush_step()
        if step_instructions >= self.step_instructions // 2:
            flush_step()
        if not rows:
            flush_step()

        total_cycles += len(measured) / self.config.issue_width
        names = sorted({name for row in rows for name in row})
        counters = {
            name: np.array([row.get(name, 0.0) for row in rows], dtype=float)
            for name in names
        }
        series = CounterTimeSeries(
            step_cycles=self.step_instructions,
            counters=counters,
            ipc=np.array(ipc_values, dtype=float),
        )
        amat = (
            total_latency / total_accesses
            if total_accesses
            else float(self.config.l1d.latency)
        )
        return MemSimResult(
            config_name=self.config.name,
            bug_name=self.bug.name,
            instructions=len(measured),
            cycles=total_cycles,
            series=series,
            amat=amat,
        )

    def _stats(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for cache in (self.l1d, self.l2, self.llc):
            merged.update(cache.stats())
        merged["mem.prefetches_issued"] = float(self.prefetcher.issued)
        return merged


def simulate_memory_trace(
    config: MemoryHierarchyConfig,
    trace: "list[MicroOp] | DecodedTrace",
    bug: MemoryBugModel | None = None,
    step_instructions: int = DEFAULT_STEP_INSTRUCTIONS,
) -> MemSimResult:
    """Simulate *trace* on the hierarchy *config*, optionally with *bug*.

    Accepts a plain micro-op list or a pre-decoded
    :class:`~repro.workloads.decoded.DecodedTrace` (as shipped to job-engine
    workers).  The compiled kernel of :mod:`repro.memsim.native` runs it
    from three marshalled columns (access flag, address, load flag); when
    that kernel is unavailable (no compiler, failed build) or the request is
    past one of its limits, :class:`MemoryHierarchySim` walks the micro-op
    objects instead.  Results are identical either way.
    """
    # Imported here: repro.memsim.native imports this module.
    from .native import NativeKernelUnavailable, simulate_memory_native

    try:
        return simulate_memory_native(
            config, trace, bug=bug, step_instructions=step_instructions
        )
    except NativeKernelUnavailable:
        sim = MemoryHierarchySim(config, bug=bug, step_instructions=step_instructions)
        return sim.run(as_uops(trace))


def llc_mpki(result: MemSimResult) -> float:
    """Last-level-cache misses per kilo-instruction of a finished run."""
    counters = result.series.counters
    misses = float(counters["mem.llc.misses"].sum())
    instructions = float(counters["mem.instructions"].sum())
    return 1000.0 * misses / max(1.0, instructions)
