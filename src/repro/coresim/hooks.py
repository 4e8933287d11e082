"""Bug-injection interface for the out-of-order core model.

The paper injects 14 classes of performance bugs into gem5's O3 pipeline.
In this reproduction a bug is a :class:`CoreBugModel`, and
:mod:`repro.bugs.core_bugs` provides one subclass per bug type.  A model
speaks to the simulators in two ways:

* **Structural hooks** — :meth:`~CoreBugModel.on_simulation_start`,
  :meth:`~CoreBugModel.register_reduction` and
  :meth:`~CoreBugModel.bp_table_entries` — run once when a simulation
  starts, in every kernel.
* **The bug record.**  :meth:`CoreBugModel.compile` turns the model, for
  one decoded trace, into a :class:`BugRecord`: per-uop flag and delay
  columns plus a few scalars.  The scalar pipeline and the native kernel
  read only this record (see docs/PERFORMANCE.md).

The per-cycle hooks (``serialize`` … ``cache_extra_latency``) are the
input of the frozen seed pipeline in :mod:`repro.coresim._reference`, the
differential oracle, and of nothing else.  The seed pipeline calls the
dispatch-time hooks exactly once per dynamic instruction, in program
order, which is why the trace-prefix bugs reduce to precomputed columns;
the differential fuzz proves every bug type's record equal to its hooks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workloads.isa import MicroOp, Opcode


@dataclass
class DispatchContext:
    """Pipeline state visible to dispatch-time hooks."""

    iq_free: int
    rob_free: int
    producer_opcodes: tuple[Opcode, ...]


@dataclass(frozen=True, eq=False)
class BugRecord:
    """What one bug does to one trace, in the form the kernels read.

    Column fields hold one entry per uop of the trace, or ``None`` when the
    bug leaves that behaviour alone.  Every extra issue delay applies at
    dispatch and sums: ``extra_delay[i]``, plus ``iq_delay`` when fewer than
    ``iq_free_below`` IQ slots are free, plus ``rob_delay`` likewise for the
    ROB, plus the ``dependency`` delay when the uop has opcode ``consumer``
    and an in-flight producer with opcode ``producer``.
    """

    #: Per-uop flags: serialising / may issue only when oldest in the IQ /
    #: while oldest in the IQ, nothing else may issue.
    serialize: "np.ndarray | None" = None
    issue_only_if_oldest: "np.ndarray | None" = None
    oldest_blocks_others: "np.ndarray | None" = None
    #: Per-uop extra issue delay that depends only on the trace prefix.
    extra_delay: "np.ndarray | None" = None
    iq_free_below: int = 0
    iq_delay: int = 0
    rob_free_below: int = 0
    rob_delay: int = 0
    #: ``(consumer opcode, producer opcode, delay)`` as ints, or ``None``.
    dependency: "tuple[int, int, int] | None" = None
    #: Extra front-end redirect cycles after a mispredicted branch resolves.
    mispredict_penalty: int = 0
    #: Extra L2 hit latency in cycles.
    l2_extra_latency: int = 0


#: The record of the bug-free design.
NO_BUG = BugRecord()


class CoreBugModel:
    """No-op bug model: the bug-free pipeline behaviour.

    Subclasses override :meth:`compile` plus the hooks of the bug they
    model.  Hooks must be deterministic functions of their arguments plus
    internal state.
    """

    #: Human-readable identifier, overridden by concrete bugs.
    name: str = "bug-free"

    def compile(self, trace) -> BugRecord:
        """The :class:`BugRecord` of this bug on *trace* (a ``DecodedTrace``)."""
        return NO_BUG

    # -- structural hooks --------------------------------------------------

    def on_simulation_start(self, config) -> None:
        """Called once before simulation; may reset internal state."""

    def register_reduction(self) -> int:
        """Number of physical registers removed from the free pool (bug 11)."""
        return 0

    def bp_table_entries(self, configured: int) -> int:
        """Effective branch-predictor table size (bug 14)."""
        return configured

    # -- per-cycle hooks (input of the seed pipeline only) -------------------

    def cache_extra_latency(self, level: int) -> int:
        """Extra hit latency, in cycles, for cache *level* (1-based; bug 10)."""
        return 0

    def serialize(self, uop: MicroOp) -> bool:
        """True if *uop* must be treated as a serialising instruction (bug 1)."""
        return False

    def issue_only_if_oldest(self, uop: MicroOp) -> bool:
        """True if *uop* may only issue once it is the oldest in the IQ (bug 2)."""
        return False

    def oldest_blocks_others(self, uop: MicroOp) -> bool:
        """True if, while *uop* is oldest in the IQ, only it may issue (bug 3)."""
        return False

    def extra_issue_delay(self, uop: MicroOp, context: DispatchContext) -> int:
        """Extra cycles *uop* must wait before becoming issue-eligible.

        Called exactly once per dynamic instruction at dispatch, in program
        order.  Covers bugs 4, 5, 6, 8, 9, 12 and 13.
        """
        return 0

    def branch_extra_penalty(self, uop: MicroOp, mispredicted: bool) -> int:
        """Extra front-end redirect penalty for *uop* (bug 7)."""
        return 0


#: Singleton bug-free model shared by default simulations.
BUG_FREE = CoreBugModel()
