"""Cycle-level out-of-order core simulator (gem5 O3CPU stand-in)."""

from .branch import BranchPredictor
from .caches import Cache, CacheHierarchy
from .counters import CounterTimeSeries, TimeSeriesSampler, derived_counters
from .hooks import BUG_FREE, BugRecord, CoreBugModel, DispatchContext
from .pipeline import O3Pipeline, PipelineError
from .native import native_available, simulate_batch_native
from .simulator import (
    DEFAULT_STEP_CYCLES,
    SimulationResult,
    simulate_batch_scalar,
    simulate_trace,
    simulate_trace_batch,
)

__all__ = [
    "BranchPredictor",
    "Cache",
    "CacheHierarchy",
    "CounterTimeSeries",
    "TimeSeriesSampler",
    "derived_counters",
    "BugRecord",
    "CoreBugModel",
    "DispatchContext",
    "BUG_FREE",
    "O3Pipeline",
    "PipelineError",
    "SimulationResult",
    "simulate_trace",
    "simulate_trace_batch",
    "simulate_batch_scalar",
    "native_available",
    "simulate_batch_native",
    "DEFAULT_STEP_CYCLES",
]
