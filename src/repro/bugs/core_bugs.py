"""The 14 core performance-bug types of Section IV-C.

Each bug is a :class:`~repro.coresim.hooks.CoreBugModel` subclass.  Its
``compile`` method gives the :class:`~repro.coresim.hooks.BugRecord` the
native kernel and the Python fallback read; its hooks state the same bug
per uop for the frozen seed pipeline fed the bug directly, and the
differential fuzz holds the two equal.
Every type is parameterised (opcode X/Y, threshold N, register R, delay T)
so that multiple variants with different severities can be instantiated,
mirroring the paper's configurable-impact bug suite.

Bug numbering follows the paper:

 1. Serialize X
 2. Issue X only if oldest
 3. If X is oldest, issue only X
 4. If X depends on Y, delay T cycles
 5. If fewer than N IQ slots free, delay T cycles
 6. If fewer than N ROB slots free, delay T cycles
 7. If mispredicted branch, delay T cycles
 8. If N stores to a cache line, delay T cycles
 9. After N stores to the same register, delay T cycles
10. L2 latency increased by T cycles
11. Available registers reduced by N
12. If branch longer than N bytes, delay T cycles
13. If X uses register R, delay T cycles
14. Branch predictor table reduced by N entries
"""

from __future__ import annotations

import numpy as np

from ..coresim.hooks import BugRecord, CoreBugModel, DispatchContext
from ..workloads.isa import MicroOp, Opcode
from .base import BugInfo


def _opcode_is(trace, opcode: Opcode) -> np.ndarray:
    """Per-uop mask: the uop's opcode is *opcode*."""
    return trace.columns["opcode"] == int(opcode)


def _running_count(keys: np.ndarray) -> np.ndarray:
    """1-based count of each key's occurrences so far, in sequence order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    position = np.arange(len(keys))
    run_start = np.ones(len(keys), dtype=bool)
    run_start[1:] = ordered[1:] != ordered[:-1]
    first = np.maximum.accumulate(np.where(run_start, position, 0))
    count = np.empty(len(keys), dtype=np.int64)
    count[order] = position - first + 1
    return count


def _delay_where(mask: np.ndarray, delay: int) -> np.ndarray:
    """Per-uop delay column: *delay* where *mask* holds, else 0."""
    return np.where(mask, delay, 0).astype(np.int64)


class CoreBug(CoreBugModel):
    """Base class for injected core bugs; adds descriptive metadata."""

    bug_type: str = "abstract"

    def __init__(self, name: str, params: dict[str, object], description: str) -> None:
        self.name = name
        self.info = BugInfo(
            name=name, bug_type=self.bug_type, params=params, description=description
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class SerializeOpcode(CoreBug):
    """Bug 1: every instruction with opcode X is marked serialising."""

    bug_type = "Serialized"

    def __init__(self, opcode: Opcode) -> None:
        super().__init__(
            name=f"serialize_{opcode.name.lower()}",
            params={"opcode": opcode.name},
            description=f"Every {opcode.name} is treated as a serialising instruction",
        )
        self.opcode = opcode

    def compile(self, trace) -> BugRecord:
        return BugRecord(serialize=_opcode_is(trace, self.opcode))

    def serialize(self, uop: MicroOp) -> bool:
        return uop.opcode is self.opcode


class IssueOnlyIfOldest(CoreBug):
    """Bug 2: instructions with opcode X issue only once oldest in the IQ."""

    bug_type = "IssueXOnlyIfOldest"

    def __init__(self, opcode: Opcode) -> None:
        super().__init__(
            name=f"issue_only_if_oldest_{opcode.name.lower()}",
            params={"opcode": opcode.name},
            description=f"{opcode.name} may only issue when oldest in the IQ",
        )
        self.opcode = opcode

    def compile(self, trace) -> BugRecord:
        return BugRecord(issue_only_if_oldest=_opcode_is(trace, self.opcode))

    def issue_only_if_oldest(self, uop: MicroOp) -> bool:
        return uop.opcode is self.opcode


class IfOldestIssueOnly(CoreBug):
    """Bug 3: while an X is the oldest IQ entry, only that X may issue."""

    bug_type = "IfOldestIssueOnlyX"

    def __init__(self, opcode: Opcode) -> None:
        super().__init__(
            name=f"if_oldest_issue_only_{opcode.name.lower()}",
            params={"opcode": opcode.name},
            description=f"While the oldest IQ entry is a {opcode.name}, "
            "no other instruction may issue",
        )
        self.opcode = opcode

    def compile(self, trace) -> BugRecord:
        return BugRecord(oldest_blocks_others=_opcode_is(trace, self.opcode))

    def oldest_blocks_others(self, uop: MicroOp) -> bool:
        return uop.opcode is self.opcode


class DependencyDelay(CoreBug):
    """Bug 4: if X consumes a value produced by Y, delay X by T cycles."""

    bug_type = "IfXDependsOnYDelayT"

    def __init__(self, opcode: Opcode, producer: Opcode, delay: int) -> None:
        super().__init__(
            name=f"dep_delay_{opcode.name.lower()}_on_{producer.name.lower()}_{delay}",
            params={"opcode": opcode.name, "producer": producer.name, "delay": delay},
            description=f"{opcode.name} consuming a {producer.name} result is "
            f"delayed {delay} cycles",
        )
        self.opcode = opcode
        self.producer = producer
        self.delay = delay

    def compile(self, trace) -> BugRecord:
        return BugRecord(
            dependency=(int(self.opcode), int(self.producer), self.delay)
        )

    def extra_issue_delay(self, uop: MicroOp, context: DispatchContext) -> int:
        if uop.opcode is self.opcode and self.producer in context.producer_opcodes:
            return self.delay
        return 0


class IQPressureDelay(CoreBug):
    """Bug 5: if fewer than N IQ slots are free at dispatch, delay T cycles."""

    bug_type = "IQPressureDelay"

    def __init__(self, threshold: int, delay: int) -> None:
        super().__init__(
            name=f"iq_pressure_{threshold}_{delay}",
            params={"threshold": threshold, "delay": delay},
            description=f"Instructions dispatched with fewer than {threshold} free "
            f"IQ slots are delayed {delay} cycles",
        )
        self.threshold = threshold
        self.delay = delay

    def compile(self, trace) -> BugRecord:
        return BugRecord(iq_free_below=self.threshold, iq_delay=self.delay)

    def extra_issue_delay(self, uop: MicroOp, context: DispatchContext) -> int:
        return self.delay if context.iq_free < self.threshold else 0


class ROBPressureDelay(CoreBug):
    """Bug 6: if fewer than N ROB slots are free at dispatch, delay T cycles."""

    bug_type = "ROBPressureDelay"

    def __init__(self, threshold: int, delay: int) -> None:
        super().__init__(
            name=f"rob_pressure_{threshold}_{delay}",
            params={"threshold": threshold, "delay": delay},
            description=f"Instructions dispatched with fewer than {threshold} free "
            f"ROB slots are delayed {delay} cycles",
        )
        self.threshold = threshold
        self.delay = delay

    def compile(self, trace) -> BugRecord:
        return BugRecord(rob_free_below=self.threshold, rob_delay=self.delay)

    def extra_issue_delay(self, uop: MicroOp, context: DispatchContext) -> int:
        return self.delay if context.rob_free < self.threshold else 0


class MispredictPenalty(CoreBug):
    """Bug 7: mispredicted branches incur an extra T-cycle redirect penalty."""

    bug_type = "MispredictDelay"

    def __init__(self, delay: int) -> None:
        super().__init__(
            name=f"mispredict_penalty_{delay}",
            params={"delay": delay},
            description=f"Each mispredicted branch costs an extra {delay} cycles",
        )
        self.delay = delay

    def compile(self, trace) -> BugRecord:
        return BugRecord(mispredict_penalty=self.delay)

    def branch_extra_penalty(self, uop: MicroOp, mispredicted: bool) -> int:
        return self.delay if mispredicted else 0


class StoresToLineDelay(CoreBug):
    """Bug 8: after N stores to the same cache line, later stores stall T cycles."""

    bug_type = "NStoresToLineDelay"

    def __init__(self, threshold: int, delay: int, line_size: int = 64) -> None:
        super().__init__(
            name=f"stores_to_line_{threshold}_{delay}",
            params={"threshold": threshold, "delay": delay},
            description=f"After {threshold} stores to a cache line, further stores "
            f"to it are delayed {delay} cycles",
        )
        self.threshold = threshold
        self.delay = delay
        self.line_size = line_size
        self._counts: dict[int, int] = {}

    def compile(self, trace) -> BugRecord:
        columns = trace.columns
        stores = np.flatnonzero(
            _opcode_is(trace, Opcode.STORE) & (columns["has_address"] != 0)
        )
        lines = columns["address"][stores].astype(np.int64) // self.line_size
        late = np.zeros(len(trace), dtype=bool)
        late[stores[_running_count(lines) > self.threshold]] = True
        return BugRecord(extra_delay=_delay_where(late, self.delay))

    def on_simulation_start(self, config) -> None:
        self._counts = {}

    def extra_issue_delay(self, uop: MicroOp, context: DispatchContext) -> int:
        if uop.opcode is not Opcode.STORE or uop.address is None:
            return 0
        line = uop.address // self.line_size
        count = self._counts.get(line, 0) + 1
        self._counts[line] = count
        return self.delay if count > self.threshold else 0


class StoresToRegisterDelay(CoreBug):
    """Bug 9: after N writes to the same register, further writes stall T cycles.

    ``mode="after"`` delays every write past the N-th (the TI GPMC-style
    behaviour); ``mode="every"`` delays only once every N writes (the second
    variant the paper describes).
    """

    bug_type = "NStoresToRegisterDelay"

    def __init__(self, threshold: int, delay: int, mode: str = "after") -> None:
        if mode not in ("after", "every"):
            raise ValueError("mode must be 'after' or 'every'")
        super().__init__(
            name=f"writes_to_reg_{mode}_{threshold}_{delay}",
            params={"threshold": threshold, "delay": delay, "mode": mode},
            description=f"Register write bursts of {threshold} incur {delay}-cycle "
            f"delays ({mode})",
        )
        self.threshold = threshold
        self.delay = delay
        self.mode = mode
        self._counts: dict[int, int] = {}

    def compile(self, trace) -> BugRecord:
        columns = trace.columns
        writes = np.flatnonzero(columns["has_dest"] != 0)
        count = _running_count(columns["dest"][writes].astype(np.int64))
        if self.mode == "after":
            hit = count > self.threshold
        else:
            hit = count % self.threshold == 0
        late = np.zeros(len(trace), dtype=bool)
        late[writes[hit]] = True
        return BugRecord(extra_delay=_delay_where(late, self.delay))

    def on_simulation_start(self, config) -> None:
        self._counts = {}

    def extra_issue_delay(self, uop: MicroOp, context: DispatchContext) -> int:
        if uop.dest is None:
            return 0
        count = self._counts.get(uop.dest, 0) + 1
        self._counts[uop.dest] = count
        if self.mode == "after":
            return self.delay if count > self.threshold else 0
        return self.delay if count % self.threshold == 0 else 0


class L2LatencyBug(CoreBug):
    """Bug 10: L2 hit latency is increased by T cycles."""

    bug_type = "L2LatencyIncrease"

    def __init__(self, extra: int) -> None:
        super().__init__(
            name=f"l2_latency_plus_{extra}",
            params={"extra": extra},
            description=f"L2 cache latency increased by {extra} cycles",
        )
        self.extra = extra

    def compile(self, trace) -> BugRecord:
        return BugRecord(l2_extra_latency=self.extra)

    def cache_extra_latency(self, level: int) -> int:
        return self.extra if level == 2 else 0


class RegisterReduction(CoreBug):
    """Bug 11: N physical registers are unavailable for renaming."""

    bug_type = "RegisterReduction"

    def __init__(self, reduction: int) -> None:
        super().__init__(
            name=f"register_reduction_{reduction}",
            params={"reduction": reduction},
            description=f"{reduction} physical registers removed from the free pool",
        )
        self.reduction = reduction

    def register_reduction(self) -> int:
        return self.reduction


class LongBranchDelay(CoreBug):
    """Bug 12: branches whose displacement exceeds N bytes cost T extra cycles."""

    bug_type = "LongBranchDelay"

    def __init__(self, distance_bytes: int, delay: int) -> None:
        super().__init__(
            name=f"long_branch_{distance_bytes}_{delay}",
            params={"distance_bytes": distance_bytes, "delay": delay},
            description=f"Branches spanning more than {distance_bytes} bytes incur "
            f"{delay} extra cycles",
        )
        self.distance_bytes = distance_bytes
        self.delay = delay

    def compile(self, trace) -> BugRecord:
        columns = trace.columns
        branch = np.isin(columns["opcode"], [Opcode.BRANCH, Opcode.CALL, Opcode.RET])
        span = np.abs(
            columns["target"].astype(np.int64) - columns["pc"].astype(np.int64)
        )
        far = branch & (columns["has_target"] != 0) & (span > self.distance_bytes)
        return BugRecord(extra_delay=_delay_where(far, self.delay))

    def extra_issue_delay(self, uop: MicroOp, context: DispatchContext) -> int:
        if not uop.is_branch or uop.target is None:
            return 0
        if abs(uop.target - uop.pc) > self.distance_bytes:
            return self.delay
        return 0


class OpcodeUsesRegisterDelay(CoreBug):
    """Bug 13: if an X reads or writes register R, delay it T cycles."""

    bug_type = "IfXUsesRegNDelayT"

    def __init__(self, opcode: Opcode, register: int, delay: int) -> None:
        super().__init__(
            name=f"uses_reg_{opcode.name.lower()}_r{register}_{delay}",
            params={"opcode": opcode.name, "register": register, "delay": delay},
            description=f"{opcode.name} touching register {register} is delayed "
            f"{delay} cycles",
        )
        self.opcode = opcode
        self.register = register
        self.delay = delay

    def compile(self, trace) -> BugRecord:
        columns = trace.columns
        register = self.register
        touches = (columns["has_dest"] != 0) & (
            columns["dest"].astype(np.int64) == register
        )
        offsets = columns["srcs_offset"].astype(np.int64)
        owner = np.repeat(np.arange(len(trace)), np.diff(offsets))
        touches[owner[columns["srcs_flat"].astype(np.int64) == register]] = True
        hit = _opcode_is(trace, self.opcode) & touches
        return BugRecord(extra_delay=_delay_where(hit, self.delay))

    def extra_issue_delay(self, uop: MicroOp, context: DispatchContext) -> int:
        if uop.opcode is not self.opcode:
            return 0
        if uop.dest == self.register or self.register in uop.srcs:
            return self.delay
        return 0


class BPTableReduction(CoreBug):
    """Bug 14: the branch predictor's effective table size shrinks by N entries."""

    bug_type = "BPTableReduction"

    def __init__(self, reduction: int) -> None:
        super().__init__(
            name=f"bp_table_minus_{reduction}",
            params={"reduction": reduction},
            description=f"Branch-predictor table index covers {reduction} fewer entries",
        )
        self.reduction = reduction

    def bp_table_entries(self, configured: int) -> int:
        return max(4, configured - self.reduction)
