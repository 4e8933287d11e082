"""Trace-driven memory-hierarchy simulator (ChampSim stand-in).

Processes a dynamic instruction trace, sending loads and stores through an
L1D/L2/LLC hierarchy with a prefetcher, and produces a counter time series
whose per-step target metrics are AMAT (average memory access time) and a
simple-core IPC proxy.  This is the substrate for the memory-system bug study
of Section IV-D.

Two bit-identical models back :func:`simulate_memory_trace`, and both read
a bug as the :class:`~repro.memsim.hooks.MemoryBugRecord` its model
compiles: the compiled C loop of :mod:`repro.memsim.native` runs every
request it can, and :func:`simulate_memory_python`, the frozen memsim of
:mod:`repro.memsim._reference` fed the record through
:class:`~repro.memsim.hooks.MemoryRecordHooks`, runs when no compiler
exists or the trace or configuration is past a native kernel limit (see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

from ..uarch.config import MemoryHierarchyConfig
from ..workloads.decoded import DecodedTrace, as_uops
from ..workloads.isa import MicroOp
# The frozen memsim defines the result type, its step size and llc_mpki;
# they are re-exported from here.
from ._reference import (
    DEFAULT_STEP_INSTRUCTIONS,
    MemoryHierarchySim,
    MemSimResult,
    llc_mpki,
)
from .hooks import MEM_BUG_FREE, MemoryBugModel, MemoryRecordHooks

#: Leading share of a trace that only warms the caches.
WARMUP_FRACTION = 0.1


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
    past one of its limits, :func:`simulate_memory_python` runs it instead.
    Results are identical either way.
    """
    # Imported here: repro.memsim.native imports this module.
    from .native import NativeKernelUnavailable, simulate_memory_native

    try:
        return simulate_memory_native(
            config, trace, bug=bug, step_instructions=step_instructions
        )
    except NativeKernelUnavailable:
        return simulate_memory_python(
            config, trace, bug=bug, step_instructions=step_instructions
        )


def simulate_memory_python(
    config: MemoryHierarchyConfig,
    trace: "list[MicroOp] | DecodedTrace",
    bug: MemoryBugModel | None = None,
    step_instructions: int = DEFAULT_STEP_INSTRUCTIONS,
) -> MemSimResult:
    """Simulate *trace* on the frozen memsim, which reads *bug*'s compiled
    record through :class:`MemoryRecordHooks`."""
    bug = bug if bug is not None else MEM_BUG_FREE
    bug.on_simulation_start(config)
    hooks = MemoryRecordHooks(bug.name, bug.compile())
    sim = MemoryHierarchySim(config, bug=hooks, step_instructions=step_instructions)
    return sim.run(as_uops(trace), warmup_fraction=WARMUP_FRACTION)
