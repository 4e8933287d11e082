"""Trace-driven memory-hierarchy simulator (ChampSim stand-in)."""

from .cache import ReplacementCache
from .hooks import MEM_BUG_FREE, NO_MEMORY_BUG, MemoryBugModel, MemoryBugRecord
from .prefetcher import (
    NextLinePrefetcher,
    NoPrefetcher,
    PrefetchRequest,
    Prefetcher,
    SignaturePathPrefetcher,
    build_prefetcher,
)
from .simulator import (
    DEFAULT_STEP_INSTRUCTIONS,
    MemoryHierarchySim,
    MemSimResult,
    llc_mpki,
    simulate_memory_trace,
)

__all__ = [
    "ReplacementCache",
    "MemoryBugModel",
    "MemoryBugRecord",
    "MEM_BUG_FREE",
    "NO_MEMORY_BUG",
    "Prefetcher",
    "NoPrefetcher",
    "NextLinePrefetcher",
    "SignaturePathPrefetcher",
    "PrefetchRequest",
    "build_prefetcher",
    "MemoryHierarchySim",
    "MemSimResult",
    "simulate_memory_trace",
    "llc_mpki",
    "DEFAULT_STEP_INSTRUCTIONS",
]
