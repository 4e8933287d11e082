"""High-level simulation API: run a probe trace on a microarchitecture.

:func:`simulate_trace` is the main entry point used by the probes, the
experiments and the examples.  It wraps :class:`~repro.coresim.pipeline.O3Pipeline`
and packages the sampled counter time series plus whole-run aggregates into a
:class:`SimulationResult`.

Two counter-bit-identical kernels back it (see docs/PERFORMANCE.md):

* ``"scalar"`` — the per-trace :class:`O3Pipeline` cycle loop (the default);
* ``"native"`` — the compiled C cycle loop of :mod:`repro.coresim.native`,
  built lazily from the shipped source with whatever system compiler is
  found.  When no compiler exists (or the build fails) it degrades to the
  scalar kernel with a one-time warning, never an exception.

Kernel selection: the explicit ``kernel=`` argument wins, then the
``REPRO_KERNEL`` environment variable, then ``"scalar"``.  Bug models that
override dynamic hooks always fall back to the scalar kernel regardless of
the selection (the native kernel cannot honour per-cycle hooks; see
:func:`~repro.coresim.hooks.dynamic_hook_free`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..uarch.config import MicroarchConfig
from ..workloads.decoded import DecodedTrace
from ..workloads.isa import MicroOp
from .counters import CounterTimeSeries
from .hooks import CoreBugModel
from .pipeline import O3Pipeline

#: Default time-step size in cycles.  The paper uses 500 k cycles on ~10 M
#: instruction SimPoints; probes here are scaled down proportionally.
DEFAULT_STEP_CYCLES = 2048

#: Environment variable naming the default simulation kernel.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Kernel names understood by :func:`simulate_trace`.
KERNELS = ("scalar", "native")


def resolve_kernel(kernel: "str | None" = None) -> str:
    """The effective kernel name: argument, else ``REPRO_KERNEL``, else scalar."""
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV_VAR, "").strip() or "scalar"
    if kernel not in KERNELS:
        raise ValueError(f"unknown simulation kernel {kernel!r}; available: {KERNELS}")
    return kernel


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
    kernel: "str | None" = None,
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
    kernel:
        ``"scalar"``, ``"native"`` or ``None`` (use ``REPRO_KERNEL``,
        default scalar).  Both kernels are counter-bit-identical; bug models
        that override dynamic hooks silently use the scalar kernel, and a
        missing/unbuildable native library degrades to scalar with a
        one-time warning.
    """
    if resolve_kernel(kernel) == "native":
        from .native import NativeKernelUnavailable, native_available, supports_native

        if supports_native(bug) and native_available():
            from .native import simulate_batch_native

            try:
                return simulate_batch_native(
                    config, [trace], bug=bug, step_cycles=step_cycles, warmup=warmup
                )[0]
            except NativeKernelUnavailable:
                pass  # config exceeds a kernel limit: scalar fallback
    pipeline = O3Pipeline(config, bug=bug, step_cycles=step_cycles)
    if warmup:
        pipeline.warmup(trace)
    series = pipeline.run(trace)
    return SimulationResult(
        config_name=config.name,
        bug_name=pipeline.bug.name,
        instructions=pipeline.committed,
        cycles=pipeline.cycle,
        series=series,
    )


def simulate_trace_batch(
    config: MicroarchConfig,
    traces: "Sequence[list[MicroOp] | DecodedTrace]",
    bug: CoreBugModel | None = None,
    step_cycles: int = DEFAULT_STEP_CYCLES,
    warmup: bool = True,
    kernel: "str | None" = None,
) -> "list[SimulationResult]":
    """Simulate many probes of one design in one call.

    With the ``native`` kernel (and a native-eligible bug model) every trace
    runs through the compiled C cycle loop in one call — the batched path
    the runtime's same-config job grouping exercises.  Otherwise this is
    exactly a loop over :func:`simulate_trace`.  Results are identical
    either way, in input order.
    """
    if resolve_kernel(kernel) == "native":
        from .native import NativeKernelUnavailable, native_available, supports_native

        if supports_native(bug) and native_available():
            from .native import simulate_batch_native

            try:
                return simulate_batch_native(
                    config,
                    list(traces),
                    bug=bug,
                    step_cycles=step_cycles,
                    warmup=warmup,
                )
            except NativeKernelUnavailable:
                pass  # config exceeds a kernel limit: scalar fallback
    return [
        simulate_trace(
            config,
            trace,
            bug=bug,
            step_cycles=step_cycles,
            warmup=warmup,
            kernel="scalar",
        )
        for trace in traces
    ]
