"""Trace-driven memory-hierarchy simulator (ChampSim stand-in)."""

from .hooks import (
    MEM_BUG_FREE,
    NO_MEMORY_BUG,
    MemoryBugModel,
    MemoryBugRecord,
    MemoryRecordHooks,
)
from .simulator import (
    DEFAULT_STEP_INSTRUCTIONS,
    MemSimResult,
    llc_mpki,
    simulate_memory_python,
    simulate_memory_trace,
)

__all__ = [
    "MemoryBugModel",
    "MemoryBugRecord",
    "MemoryRecordHooks",
    "MEM_BUG_FREE",
    "NO_MEMORY_BUG",
    "MemSimResult",
    "simulate_memory_trace",
    "simulate_memory_python",
    "llc_mpki",
    "DEFAULT_STEP_INSTRUCTIONS",
]
