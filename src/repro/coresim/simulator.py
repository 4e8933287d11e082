"""High-level simulation API: run a probe trace on a microarchitecture.

:func:`simulate_trace` is the main entry point used by the probes, the
experiments and the examples.  It packages the sampled counter time series
plus whole-run aggregates into a :class:`SimulationResult`.

Two counter-bit-identical models back it (see docs/PERFORMANCE.md), and
both read a bug as the :class:`~repro.coresim.hooks.BugRecord` its model
compiles for the trace.  :func:`simulate_trace_batch` picks between them:

* the compiled C cycle loop of :mod:`repro.coresim.native`, built lazily
  from the shipped source with whatever system compiler is found, runs
  every request it can;
* :func:`simulate_batch_scalar`, the frozen seed pipeline of
  :mod:`repro.coresim._reference` fed the record through
  :class:`~repro.coresim.hooks.RecordHooks`, runs when no compiler exists
  or the build fails (with a one-time warning, never an exception) and
  for configurations past a native kernel limit.  Tests call it
  directly as native's reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..uarch.config import MicroarchConfig
from ..workloads.decoded import DecodedTrace, decode_trace
from ..workloads.isa import MicroOp
from ._reference import reference_simulate_trace
from .counters import CounterTimeSeries
from .hooks import BUG_FREE, CoreBugModel, RecordHooks

#: Default time-step size in cycles.  The paper uses 500 k cycles on ~10 M
#: instruction SimPoints; probes here are scaled down proportionally.
DEFAULT_STEP_CYCLES = 2048

@dataclass
class SimulationResult:
    """Outcome of simulating one trace on one configuration."""

    config_name: str
    bug_name: str
    instructions: int
    cycles: int
    series: CounterTimeSeries

    @property
    def ipc(self) -> float:
        """Whole-run committed instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def ipc_series(self) -> np.ndarray:
        """Per-time-step IPC."""
        return self.series.ipc

    def runtime_seconds(self, clock_ghz: float) -> float:
        """Wall-clock execution time implied by the cycle count."""
        return self.cycles / (clock_ghz * 1e9)


def simulate_trace(
    config: MicroarchConfig,
    trace: "list[MicroOp] | DecodedTrace",
    bug: CoreBugModel | None = None,
    step_cycles: int = DEFAULT_STEP_CYCLES,
    warmup: bool = True,
) -> SimulationResult:
    """Simulate *trace* on *config*, optionally with an injected *bug*.

    Parameters
    ----------
    config:
        The microarchitecture to model (see :mod:`repro.uarch.presets`).
    trace:
        Dynamic instruction stream (e.g. a SimPoint probe's trace), either a
        plain micro-op list or a pre-decoded
        :class:`~repro.workloads.decoded.DecodedTrace`.  Passing the decoded
        form (or re-passing the same list object) amortises per-op decoding
        across every (design x bug) simulation of the trace.
    bug:
        Bug model to inject, or ``None`` for the bug-free design.
    step_cycles:
        Counter-sampling time-step size in cycles.
    warmup:
        Functionally warm caches and branch predictors before the timed run,
        compensating for the scaled-down probe length (see DESIGN.md §2).
    """
    return simulate_trace_batch(
        config, [trace], bug=bug, step_cycles=step_cycles, warmup=warmup
    )[0]


def simulate_trace_batch(
    config: MicroarchConfig,
    traces: "Sequence[list[MicroOp] | DecodedTrace]",
    bug: CoreBugModel | None = None,
    step_cycles: int = DEFAULT_STEP_CYCLES,
    warmup: bool = True,
) -> "list[SimulationResult]":
    """Simulate many probes of one design in one call.

    Every trace runs through the compiled C cycle loop in one call — the
    batched path the runtime's same-config job grouping exercises — unless
    the kernel is unavailable (no compiler, failed build) or *config* is
    past one of its limits; then :func:`simulate_batch_scalar` runs them.
    Results are identical either way, in input order.
    """
    # Looked up at call time, so a wrapper set on the package is honoured.
    from .native import NativeKernelUnavailable, simulate_batch_native

    traces = list(traces)  # the fallback re-reads what native may consume
    try:
        return simulate_batch_native(
            config, traces, bug=bug, step_cycles=step_cycles, warmup=warmup
        )
    except NativeKernelUnavailable:
        return simulate_batch_scalar(
            config, traces, bug=bug, step_cycles=step_cycles, warmup=warmup
        )


def simulate_batch_scalar(
    config: MicroarchConfig,
    traces: "Sequence[list[MicroOp] | DecodedTrace]",
    bug: CoreBugModel | None = None,
    step_cycles: int = DEFAULT_STEP_CYCLES,
    warmup: bool = True,
) -> "list[SimulationResult]":
    """Simulate each of *traces* on the frozen seed pipeline, which reads
    *bug*'s compiled record through :class:`RecordHooks`."""
    bug = bug if bug is not None else BUG_FREE
    results = []
    for trace in traces:
        decoded = decode_trace(trace)
        if len(decoded) == 0:
            raise ValueError("cannot simulate an empty trace")
        bug.on_simulation_start(config)
        record = bug.compile(decoded)
        record.check_length(len(decoded))
        hooks = RecordHooks(bug, record)
        results.append(
            reference_simulate_trace(
                config, hooks.indexed(decoded.uops), bug=hooks,
                step_cycles=step_cycles, warmup=warmup,
            )
        )
    return results
