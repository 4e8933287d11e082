"""Bug-injection hook interface for the out-of-order core model.

The paper injects 14 classes of performance bugs into gem5's O3 pipeline.  In
this reproduction every injection point in :mod:`repro.coresim.pipeline` calls
into a :class:`CoreBugModel`; the bug-free simulator uses the no-op base class
and :mod:`repro.bugs.core_bugs` provides one subclass per bug type.

A hook object may keep internal state (e.g. per-cache-line store counts) —
the pipeline guarantees that dispatch-time hooks are invoked exactly once per
dynamic instruction, in program order.

Fast-path contract (see docs/PERFORMANCE.md): the pipeline detects, once at
construction, which hooks a bug model overrides (class-level comparison
against :class:`CoreBugModel`) and never calls the unoverridden ones — they
are pure no-ops by definition.  Consequently hooks must be overridden at
class level (not assigned as instance attributes), and a model must not rely
on base-class hooks being *called*.  Overridden hooks keep their documented
call guarantees exactly.

Every hook is classified below as structural (:data:`STRUCTURAL_HOOKS`,
evaluated once at construction) or dynamic (:data:`DYNAMIC_HOOKS`, consulted
per cycle).  :func:`dynamic_hook_free` is the one kernel-eligibility rule:
the native kernel honours structural hooks only, so a model overriding any
dynamic hook runs on the scalar pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads.isa import MicroOp, Opcode


@dataclass
class DispatchContext:
    """Pipeline state visible to dispatch-time hooks."""

    iq_free: int
    rob_free: int
    producer_opcodes: tuple[Opcode, ...]


class CoreBugModel:
    """No-op bug model: the bug-free pipeline behaviour.

    Subclasses override the hooks relevant to the bug they model.  All hooks
    must be deterministic functions of their arguments plus internal state.
    """

    #: Human-readable identifier, overridden by concrete bugs.
    name: str = "bug-free"

    def on_simulation_start(self, config) -> None:
        """Called once before simulation; may reset internal state."""

    # -- structural hooks --------------------------------------------------

    def register_reduction(self) -> int:
        """Number of physical registers removed from the free pool (bug 11)."""
        return 0

    def bp_table_entries(self, configured: int) -> int:
        """Effective branch-predictor table size (bug 14)."""
        return configured

    def cache_extra_latency(self, level: int) -> int:
        """Extra hit latency, in cycles, for cache *level* (1-based; bug 10)."""
        return 0

    # -- scheduling hooks ---------------------------------------------------

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
        order.  Covers bugs 4, 5, 6, 8, 9 and 13.
        """
        return 0

    def branch_extra_penalty(self, uop: MicroOp, mispredicted: bool) -> int:
        """Extra front-end redirect penalty for *uop* (bugs 7 and 12)."""
        return 0


#: Singleton bug-free model shared by default simulations.
BUG_FREE = CoreBugModel()


#: Hooks evaluated once at construction, never per cycle: a bug model may
#: override these and still run on the native kernel.
STRUCTURAL_HOOKS = frozenset(
    {"on_simulation_start", "register_reduction", "bp_table_entries"}
)

#: Every hook the scalar pipeline may consult dynamically.
DYNAMIC_HOOKS = (
    "serialize",
    "issue_only_if_oldest",
    "oldest_blocks_others",
    "extra_issue_delay",
    "branch_extra_penalty",
    "cache_extra_latency",
)


def dynamic_hook_free(bug: "CoreBugModel | None") -> bool:
    """True if *bug* (or ``None``) leaves every dynamic hook at its default.

    This is the same class-level override detection the scalar pipeline uses
    for hook hoisting: such a model never perturbs per-cycle behaviour, so a
    kernel only needs its structural hooks (evaluated once).
    """
    if bug is None:
        return True
    bug_type = type(bug)
    for hook in DYNAMIC_HOOKS:
        if getattr(bug_type, hook) is not getattr(CoreBugModel, hook):
            return False
    return True
