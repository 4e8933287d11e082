"""Bug-injection interface for the out-of-order core model.

The paper injects 14 classes of performance bugs into gem5's O3 pipeline.
In this reproduction a bug is a :class:`CoreBugModel`, and
:mod:`repro.bugs.core_bugs` provides one subclass per bug type.  A model
speaks to the simulators in two ways:

* **Structural hooks** — :meth:`~CoreBugModel.on_simulation_start`,
  :meth:`~CoreBugModel.register_reduction` and
  :meth:`~CoreBugModel.bp_table_entries` — run once when a simulation
  starts, on every path.
* **The bug record.**  :meth:`CoreBugModel.compile` turns the model, for
  one decoded trace, into a :class:`BugRecord`: per-uop flag and delay
  columns plus a few scalars.  The native kernel and the Python fallback
  read only this record (see docs/PERFORMANCE.md).

The per-cycle hooks (``serialize`` … ``cache_extra_latency``) are what the
frozen seed pipeline in :mod:`repro.coresim._reference` asks.  The Python
fallback runs that pipeline on a :class:`RecordHooks`, which answers them
from the record; fed a bug model directly, the same pipeline is the
differential oracle that holds each bug type's record equal to its hooks.
The seed pipeline calls the dispatch-time hooks exactly once per dynamic
instruction, in program order, which is why the trace-prefix bugs reduce
to precomputed columns.
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

    def check_length(self, n: int) -> None:
        """Refuse columns that do not hold one entry per uop of an
        *n*-uop trace; every path indexes them by uop."""
        columns = (
            self.serialize,
            self.issue_only_if_oldest,
            self.oldest_blocks_others,
            self.extra_delay,
        )
        if any(column is not None and len(column) != n for column in columns):
            raise ValueError(f"bug record columns must hold one entry per uop ({n})")


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

    # -- per-cycle hooks (asked by the seed pipeline) --------------------------

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


@dataclass(slots=True)
class IndexedMicroOp(MicroOp):
    """A copy of a trace's micro-op that carries its position in the trace."""

    index: int = 0


def _flags(column) -> "list | None":
    """A record column as a plain list (fast per-uop indexing)."""
    return None if column is None else np.asarray(column).tolist()


class RecordHooks(CoreBugModel):
    """A bug's :class:`BugRecord` for one trace, served through the hooks.

    The per-uop hooks look a uop up by its ``index``, so the pipeline runs
    over :meth:`indexed` copies of the trace.  The structural hooks ask
    *bug* itself, whose ``on_simulation_start`` ran before ``compile``.
    """

    def __init__(self, bug: CoreBugModel, record: BugRecord) -> None:
        self.name = bug.name
        self._bug = bug
        self._record = record
        self._serialize = _flags(record.serialize)
        self._only_if_oldest = _flags(record.issue_only_if_oldest)
        self._oldest_blocks = _flags(record.oldest_blocks_others)
        self._extra_delay = _flags(record.extra_delay)

    @staticmethod
    def indexed(uops: "list[MicroOp]") -> "list[IndexedMicroOp]":
        """Copies of *uops* that carry their trace index."""
        return [
            IndexedMicroOp(u.opcode, u.srcs, u.dest, u.pc, u.address, u.taken,
                           u.target, u.indirect, u.size, u.block_id, index)
            for index, u in enumerate(uops)
        ]

    def compile(self, trace) -> BugRecord:
        return self._record

    def register_reduction(self) -> int:
        return self._bug.register_reduction()

    def bp_table_entries(self, configured: int) -> int:
        return self._bug.bp_table_entries(configured)

    def cache_extra_latency(self, level: int) -> int:
        return self._record.l2_extra_latency if level == 2 else 0

    def serialize(self, uop: IndexedMicroOp) -> bool:
        return self._serialize is not None and self._serialize[uop.index]

    def issue_only_if_oldest(self, uop: IndexedMicroOp) -> bool:
        return self._only_if_oldest is not None and self._only_if_oldest[uop.index]

    def oldest_blocks_others(self, uop: IndexedMicroOp) -> bool:
        return self._oldest_blocks is not None and self._oldest_blocks[uop.index]

    def extra_issue_delay(self, uop: IndexedMicroOp, context: DispatchContext) -> int:
        record = self._record
        extra = 0 if self._extra_delay is None else self._extra_delay[uop.index]
        if context.iq_free < record.iq_free_below:
            extra += record.iq_delay
        if context.rob_free < record.rob_free_below:
            extra += record.rob_delay
        if record.dependency is not None:
            consumer, producer, delay = record.dependency
            if uop.opcode == consumer and producer in context.producer_opcodes:
                extra += delay
        return extra

    def branch_extra_penalty(self, uop: MicroOp, mispredicted: bool) -> int:
        return self._record.mispredict_penalty if mispredicted else 0
