"""Cycle-level out-of-order pipeline model (gem5 O3CPU stand-in).

The model implements the classic O3 stages — fetch (with branch prediction),
rename/dispatch (ROB/IQ/LSQ allocation, physical-register renaming), issue
(oldest-first over the issue ports of Table III), execute (per-class
functional-unit latencies, D-cache accesses for loads/stores), writeback
(dependence wake-up) and in-order commit — with the structure sizes and
latencies of a :class:`~repro.uarch.config.MicroarchConfig`.

Simplifications versus gem5 (documented in DESIGN.md): no wrong-path
execution (fetch stalls from a mispredicted branch until it resolves plus a
redirect penalty), stores complete in one cycle after their D-cache lookup,
and the instruction cache is assumed perfect.  None of these affect the
counter↔IPC correlation structure the methodology relies on.

A bug enters as the :class:`~repro.coresim.hooks.BugRecord` its model
compiles for the trace (per-uop flag and delay columns plus scalars), read
at the same points where the seed pipeline calls the per-cycle hooks; the
structural hooks run once at construction.

Performance structure (see docs/PERFORMANCE.md).  This loop is the scalar
kernel, the native kernel's fallback; it deviates from the textbook seed
version (frozen in :mod:`repro.coresim._reference`) in five ways that are
pinned counter-bit-identical by ``tests/test_perf_equivalence.py``:

* traces are consumed through the pre-decoded per-op scalars of a
  :class:`~repro.workloads.decoded.DecodedTrace` (no ``MicroOp`` property
  calls per simulated instruction);
* the issue queue keeps an explicit *ready* min-heap ordered by sequence
  number plus a wake-up calendar, so each cycle touches only issue-eligible
  instructions instead of scanning the whole IQ, and issued entries leave via
  tombstones instead of rebuilding the queue list every cycle;
* bugs are data: the pipeline indexes the record's columns by sequence
  number and never calls into the bug model per cycle, and the bug-free
  record (every column ``None``) skips every bug branch;
* all five stages are inlined into one cycle loop in :meth:`run` whose
  mutable state and counters live in local variables, synced back to the
  instance only at sampling boundaries;
* provably-idle stretches of cycles (drained or structurally blocked machine
  waiting on one completion) are fast-forwarded in one step with
  batch-applied stall counters.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from ..uarch.config import MicroarchConfig
from ..workloads.decoded import DecodedTrace, decode_trace
from ..workloads.isa import NUM_ARCH_REGS, MicroOp, OpClass
from .branch import BranchPredictor
from .caches import CacheHierarchy
from .counters import CounterTimeSeries, TimeSeriesSampler
from .hooks import BUG_FREE, CoreBugModel

#: Base front-end redirect penalty (cycles) after a mispredicted branch resolves.
BASE_REDIRECT_PENALTY = 4

#: Hard safety limit: cycles per trace instruction before the model aborts.
MAX_CYCLES_PER_INSTRUCTION = 500

# Integer OpClass values compared against in the cycle loop.
_INT_DIV = int(OpClass.INT_DIV)
_FP_ALU = int(OpClass.FP_ALU)
_FP_DIV = int(OpClass.FP_DIV)
_VECTOR = int(OpClass.VECTOR)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)

#: Counter names for per-class issue counts, indexed by int(OpClass).
_ISSUE_CLASS_NAMES = [f"issue.class.{op_class.name}" for op_class in OpClass]


class _InflightOp:
    """One dynamic instruction in flight between dispatch and commit."""

    __slots__ = (
        "uop",
        "seq",
        "op_class",
        "srcs",
        "dest",
        "address",
        "pending",
        "consumers",
        "min_issue_cycle",
        "issued",
        "completed",
        "mispredicted",
        "blocks_fetch",
        "is_mem",
        "has_dest",
    )

    def __init__(
        self,
        uop: MicroOp,
        seq: int,
        op_class: int,
        srcs: tuple,
        dest,
        address,
    ) -> None:
        self.uop = uop
        self.seq = seq
        self.op_class = op_class
        self.srcs = srcs
        self.dest = dest
        self.address = address
        self.pending = 0
        self.consumers: list[_InflightOp] = []
        self.min_issue_cycle = 0
        self.issued = False
        self.completed = False
        self.mispredicted = False
        self.blocks_fetch = False
        self.is_mem = op_class == _LOAD or op_class == _STORE
        self.has_dest = dest is not None


class PipelineError(RuntimeError):
    """Raised when the pipeline deadlocks or exceeds its cycle budget."""


def _column(values) -> "list | None":
    """A bug-record column as a plain list (fast per-uop indexing)."""
    return None if values is None else values.tolist()


class O3Pipeline:
    """Executes one dynamic trace on one microarchitecture configuration."""

    def __init__(
        self,
        config: MicroarchConfig,
        bug: CoreBugModel | None = None,
        step_cycles: int = 2048,
    ) -> None:
        self.config = config
        self.bug = bug if bug is not None else BUG_FREE
        self.step_cycles = step_cycles
        self.bug.on_simulation_start(config)

        self.caches = CacheHierarchy(config)
        self.branch_predictor = BranchPredictor(config, self.bug)

        # Physical register pool: architectural state plus rename registers,
        # possibly reduced by bug 11.
        reduction = max(0, self.bug.register_reduction())
        self.free_regs = max(1, config.num_phys_regs - NUM_ARCH_REGS - reduction)

        # Per-operation-class execution latencies, indexed by int(OpClass).
        latency_of = {
            OpClass.INT_ALU: 1,
            OpClass.INT_MULT: config.mult_latency,
            OpClass.INT_DIV: config.div_latency,
            OpClass.FP_ALU: config.fp_latency,
            OpClass.FP_MULT: config.fp_latency,
            OpClass.FP_DIV: config.div_latency,
            OpClass.VECTOR: config.fp_latency,
            OpClass.LOAD: 0,  # computed per access
            OpClass.STORE: 1,
            OpClass.BRANCH: 1,
        }
        self._latency = [latency_of[op_class] for op_class in OpClass]
        self._class_ports = [
            [p.index for p in config.ports.ports_for(op_class)]
            for op_class in OpClass
        ]
        self._port_busy_until = [0] * config.ports.num_ports

        # Pipeline structures.  The issue queue is a count plus a ready heap
        # (seq-ordered) and a wake-up calendar; `_iq_order` (a seq-ordered
        # deque with lazy tombstone removal) is maintained only when an
        # oldest-sensitive bug needs the oldest un-issued entry.
        self._fetch_queue: deque[_InflightOp] = deque()
        self._rob: deque[_InflightOp] = deque()
        self._iq_count = 0
        self._ready: list[tuple[int, _InflightOp]] = []
        self._ready_at: dict[int, list[_InflightOp]] = {}
        self._iq_order: deque[_InflightOp] = deque()
        self._lsq_occupancy = 0
        self._reg_producer: dict[int, _InflightOp] = {}
        self._store_queue: deque[_InflightOp] = deque()
        self._completing: dict[int, list[_InflightOp]] = {}
        self._serialize_op: _InflightOp | None = None
        self._fetch_blocked_by: _InflightOp | None = None
        self._fetch_resume_cycle = 0

        self.counters: dict[str, float] = {}
        self.cycle = 0
        self.committed = 0
        self._rob_occupancy_sum = 0
        self._iq_occupancy_sum = 0
        self._lsq_occupancy_sum = 0

        # Batched counter slots, flushed into `self.counters` at sampling
        # boundaries (only non-zero slots materialise, matching the lazily
        # populated dict of the seed implementation).
        self._c_commit_instructions = 0
        self._c_commit_register_writes = 0
        self._c_commit_branches = 0
        self._c_commit_loads = 0
        self._c_commit_stores = 0
        self._c_commit_fp = 0
        self._c_commit_idle = 0
        self._c_commit_max_width = 0
        self._c_writeback = 0
        self._c_issue_instructions = 0
        self._c_issue_empty = 0
        self._c_issue_stall = 0
        self._c_issue_max_width = 0
        self._c_issue_port_conflicts = 0
        self._c_issue_class = [0] * len(_ISSUE_CLASS_NAMES)
        self._c_dispatch_instructions = 0
        self._c_dispatch_stall = 0
        self._c_dispatch_serializing = 0
        self._c_dispatch_serialized = 0
        self._c_dispatch_rob_full = 0
        self._c_dispatch_iq_full = 0
        self._c_dispatch_lsq_full = 0
        self._c_rename_stall_regs = 0
        self._c_bug_extra_delay = 0
        self._c_fetch_instructions = 0
        self._c_fetch_branches = 0
        self._c_fetch_mispredicted = 0
        self._c_fetch_stall = 0
        self._c_fetch_active = 0
        self._c_lsq_forwarded = 0

    # ------------------------------------------------------------------ utils

    def _flush_counters(self) -> None:
        """Materialise the batched integer slots into the counters dict.

        Zero-valued slots stay absent, mirroring the seed implementation's
        lazily populated dict (and therefore its sampled counter name sets).
        """
        counters = self.counters
        for name, value in (
            ("commit.instructions", self._c_commit_instructions),
            ("commit.register_writes", self._c_commit_register_writes),
            ("commit.branches", self._c_commit_branches),
            ("commit.loads", self._c_commit_loads),
            ("commit.stores", self._c_commit_stores),
            ("commit.fp_instructions", self._c_commit_fp),
            ("commit.idle_cycles", self._c_commit_idle),
            ("commit.max_width_cycles", self._c_commit_max_width),
            ("writeback.instructions", self._c_writeback),
            ("issue.instructions", self._c_issue_instructions),
            ("issue.empty_cycles", self._c_issue_empty),
            ("issue.stall_cycles", self._c_issue_stall),
            ("issue.max_width_cycles", self._c_issue_max_width),
            ("issue.port_conflicts", self._c_issue_port_conflicts),
            ("dispatch.instructions", self._c_dispatch_instructions),
            ("dispatch.stall_cycles", self._c_dispatch_stall),
            ("dispatch.serializing_stalls", self._c_dispatch_serializing),
            ("dispatch.serialized_instructions", self._c_dispatch_serialized),
            ("dispatch.stall_rob_full", self._c_dispatch_rob_full),
            ("dispatch.stall_iq_full", self._c_dispatch_iq_full),
            ("dispatch.stall_lsq_full", self._c_dispatch_lsq_full),
            ("rename.stall_cycles_regs", self._c_rename_stall_regs),
            ("bug.extra_delay_cycles", self._c_bug_extra_delay),
            ("fetch.instructions", self._c_fetch_instructions),
            ("fetch.branches", self._c_fetch_branches),
            ("fetch.mispredicted_branches", self._c_fetch_mispredicted),
            ("fetch.stall_cycles", self._c_fetch_stall),
            ("fetch.cycles_active", self._c_fetch_active),
            ("lsq.forwarded_loads", self._c_lsq_forwarded),
        ):
            if value:
                counters[name] = float(value)
        for index, value in enumerate(self._c_issue_class):
            if value:
                counters[_ISSUE_CLASS_NAMES[index]] = float(value)

    def _cumulative_counters(self) -> dict[str, float]:
        self._flush_counters()
        merged = dict(self.counters)
        merged["rob.occupancy_sum"] = float(self._rob_occupancy_sum)
        merged["iq.occupancy_sum"] = float(self._iq_occupancy_sum)
        merged["lsq.occupancy_sum"] = float(self._lsq_occupancy_sum)
        merged.update({k: float(v) for k, v in self.branch_predictor.stats().items()})
        merged.update({k: float(v) for k, v in self.caches.stats().items()})
        return merged

    # ------------------------------------------------------------------ driver

    def warmup(self, trace: "list[MicroOp] | DecodedTrace") -> None:
        """Functionally warm the caches and branch predictor with *trace*.

        The paper's probes are ~10 M instructions, long enough that cold-start
        effects are negligible; the scaled-down probes used here are not, so a
        functional warm-up pass (a standard SimPoint practice) is applied
        before timed simulation.  Statistics accumulated during warm-up are
        discarded.
        """
        caches_access = self.caches.access
        predict = self.branch_predictor.predict_and_update
        for uop, _op_class, _srcs, _dest, address, taken in decode_trace(
            trace
        ).pipeline_ops:
            if address is not None:
                caches_access(address)
            elif taken is not None:
                predict(uop)
        for cache in self.caches.levels:
            cache.reset_stats()
        self.branch_predictor.reset_stats()

    def run(self, trace: "list[MicroOp] | DecodedTrace") -> CounterTimeSeries:
        """Simulate *trace* to completion and return the sampled time series.

        The five pipeline stages are inlined into one cycle loop, processed in
        the seed order (commit, writeback, issue, dispatch, fetch).  All
        mutable machine state and every stall/throughput counter live in local
        variables; they are synced back onto the instance by the
        ``_materialise`` blocks at sampling boundaries, on abort, and at the
        end of the run.
        """
        decoded = decode_trace(trace)
        ops = decoded.pipeline_ops
        total = len(ops)
        if total == 0:
            raise ValueError("cannot simulate an empty trace")
        sampler = TimeSeriesSampler(self.step_cycles)
        record = self.bug.compile(decoded)
        self.caches.latency[1] = self.config.l2.latency + record.l2_extra_latency

        # -- invariants hoisted out of the loop --------------------------------
        config = self.config
        width = config.width
        rob_size = config.rob_size
        iq_size = config.iq_size
        lsq_size = config.lsq_size
        capacity = config.fetch_buffer
        step_cycles = self.step_cycles
        # Bug record: columns as lists indexed by seq (== trace index).
        serialize = _column(record.serialize)
        only_oldest = _column(record.issue_only_if_oldest)
        oldest_blocks = _column(record.oldest_blocks_others)
        extra_delay = _column(record.extra_delay)
        iq_free_below, iq_delay = record.iq_free_below, record.iq_delay
        rob_free_below, rob_delay = record.rob_free_below, record.rob_delay
        dependency = record.dependency
        dep_consumer, dep_producer, dep_delay = dependency or (None, None, 0)
        delayed = (
            extra_delay is not None
            or iq_free_below > 0
            or rob_free_below > 0
            or dependency is not None
        )
        redirect_penalty = BASE_REDIRECT_PENALTY + record.mispredict_penalty
        track_oldest = only_oldest is not None or oldest_blocks is not None
        latency_by_class = self._latency
        class_ports = self._class_ports
        port_busy = self._port_busy_until
        caches_access = self.caches.access
        predict = self.branch_predictor.predict_and_update
        rob = self._rob
        fetch_queue = self._fetch_queue
        iq_order = self._iq_order
        ready = self._ready
        ready_at = self._ready_at
        completing = self._completing
        store_queue = self._store_queue
        reg_producer = self._reg_producer
        c_issue_class = self._c_issue_class
        inflight_op = _InflightOp
        new_op = _InflightOp.__new__
        max_cycles = total * MAX_CYCLES_PER_INSTRUCTION + 10_000

        # -- mutable machine state in locals ----------------------------------
        cycle = self.cycle
        committed = self.committed
        free_regs = self.free_regs
        lsq_occupancy = self._lsq_occupancy
        iq_count = self._iq_count
        serialize_op = self._serialize_op
        fetch_blocked_by = self._fetch_blocked_by
        fetch_resume = self._fetch_resume_cycle
        rob_occ_sum = self._rob_occupancy_sum
        iq_occ_sum = self._iq_occupancy_sum
        lsq_occ_sum = self._lsq_occupancy_sum
        next_index = 0
        seq = 0
        last_sample_cycle = 0
        # Ops whose wake-up is simply "next cycle" (every bug-free dispatch)
        # bypass the ready_at calendar through this list.
        wake_next: list[_InflightOp] = []

        # -- counters in locals ------------------------------------------------
        c_commit_instr = self._c_commit_instructions
        c_commit_regw = self._c_commit_register_writes
        c_commit_br = self._c_commit_branches
        c_commit_ld = self._c_commit_loads
        c_commit_st = self._c_commit_stores
        c_commit_fp = self._c_commit_fp
        c_commit_idle = self._c_commit_idle
        c_commit_maxw = self._c_commit_max_width
        c_writeback = self._c_writeback
        c_issue_instr = self._c_issue_instructions
        c_issue_empty = self._c_issue_empty
        c_issue_stall = self._c_issue_stall
        c_issue_maxw = self._c_issue_max_width
        c_issue_conflicts = self._c_issue_port_conflicts
        c_disp_instr = self._c_dispatch_instructions
        c_disp_stall = self._c_dispatch_stall
        c_disp_serializing = self._c_dispatch_serializing
        c_disp_serialized = self._c_dispatch_serialized
        c_disp_robfull = self._c_dispatch_rob_full
        c_disp_iqfull = self._c_dispatch_iq_full
        c_disp_lsqfull = self._c_dispatch_lsq_full
        c_rename_stall = self._c_rename_stall_regs
        c_bug_delay = self._c_bug_extra_delay
        c_fetch_instr = self._c_fetch_instructions
        c_fetch_br = self._c_fetch_branches
        c_fetch_mispred = self._c_fetch_mispredicted
        c_fetch_stall = self._c_fetch_stall
        c_fetch_active = self._c_fetch_active
        c_lsq_fwd = self._c_lsq_forwarded

        # NOTE: the _materialise blocks below are intentionally pasted inline
        # (a closure would turn every hot local into a cell variable).  Keep
        # the three copies in sync.
        while committed < total:
            cycle += 1
            if cycle > max_cycles:
                # _materialise (abort path)
                self.cycle = cycle
                self.committed = committed
                self.free_regs = free_regs
                self._lsq_occupancy = lsq_occupancy
                self._iq_count = iq_count
                self._serialize_op = serialize_op
                self._fetch_blocked_by = fetch_blocked_by
                self._fetch_resume_cycle = fetch_resume
                self._rob_occupancy_sum = rob_occ_sum
                self._iq_occupancy_sum = iq_occ_sum
                self._lsq_occupancy_sum = lsq_occ_sum
                self._c_commit_instructions = c_commit_instr
                self._c_commit_register_writes = c_commit_regw
                self._c_commit_branches = c_commit_br
                self._c_commit_loads = c_commit_ld
                self._c_commit_stores = c_commit_st
                self._c_commit_fp = c_commit_fp
                self._c_commit_idle = c_commit_idle
                self._c_commit_max_width = c_commit_maxw
                self._c_writeback = c_writeback
                self._c_issue_instructions = c_issue_instr
                self._c_issue_empty = c_issue_empty
                self._c_issue_stall = c_issue_stall
                self._c_issue_max_width = c_issue_maxw
                self._c_issue_port_conflicts = c_issue_conflicts
                self._c_dispatch_instructions = c_disp_instr
                self._c_dispatch_stall = c_disp_stall
                self._c_dispatch_serializing = c_disp_serializing
                self._c_dispatch_serialized = c_disp_serialized
                self._c_dispatch_rob_full = c_disp_robfull
                self._c_dispatch_iq_full = c_disp_iqfull
                self._c_dispatch_lsq_full = c_disp_lsqfull
                self._c_rename_stall_regs = c_rename_stall
                self._c_bug_extra_delay = c_bug_delay
                self._c_fetch_instructions = c_fetch_instr
                self._c_fetch_branches = c_fetch_br
                self._c_fetch_mispredicted = c_fetch_mispred
                self._c_fetch_stall = c_fetch_stall
                self._c_fetch_active = c_fetch_active
                self._c_lsq_forwarded = c_lsq_fwd
                raise PipelineError(
                    f"pipeline exceeded {max_cycles} cycles for {total} instructions "
                    f"on {self.config.name} with bug {self.bug.name!r}"
                )

            # ---------------------------------------------------------- commit
            if rob and rob[0].completed:
                committed_now = 0
                while rob and committed_now < width:
                    op = rob[0]
                    if not op.completed:
                        break
                    rob.popleft()
                    committed_now += 1
                    op_class = op.op_class
                    if op.has_dest:
                        c_commit_regw += 1
                        free_regs += 1
                        dest = op.dest
                        if reg_producer.get(dest) is op:
                            del reg_producer[dest]
                    if op_class == _BRANCH:
                        c_commit_br += 1
                    elif op_class == _LOAD:
                        c_commit_ld += 1
                        lsq_occupancy -= 1
                    elif op_class == _STORE:
                        c_commit_st += 1
                        lsq_occupancy -= 1
                        # Stores commit in program order, so the committing
                        # store is the store queue's front entry; the fallback
                        # keeps hand-driven pipeline states safe.
                        if store_queue and store_queue[0] is op:
                            store_queue.popleft()
                        elif op in store_queue:
                            store_queue.remove(op)
                    if _FP_ALU <= op_class <= _VECTOR:
                        c_commit_fp += 1
                committed += committed_now
                c_commit_instr += committed_now
                if committed_now >= width:
                    c_commit_maxw += 1
            else:
                c_commit_idle += 1

            # ------------------------------------------------------- writeback
            finishing = completing.pop(cycle, None)
            if finishing is not None:
                for op in finishing:
                    op.completed = True
                    consumers = op.consumers
                    if consumers:
                        for consumer in consumers:
                            pending = consumer.pending - 1
                            consumer.pending = pending
                            if pending == 0:
                                min_issue = consumer.min_issue_cycle
                                if cycle >= min_issue:
                                    heappush(ready, (consumer.seq, consumer))
                                else:
                                    waiters = ready_at.get(min_issue)
                                    if waiters is None:
                                        ready_at[min_issue] = [consumer]
                                    else:
                                        waiters.append(consumer)
                        op.consumers = []
                    if op.blocks_fetch and fetch_blocked_by is op:
                        fetch_resume = cycle + redirect_penalty
                        fetch_blocked_by = None
                    if serialize_op is op:
                        serialize_op = None
                c_writeback += len(finishing)

            # ----------------------------------------------------- issue wake
            if wake_next:
                for op in wake_next:
                    heappush(ready, (op.seq, op))
                wake_next = []
            if ready_at:
                activated = ready_at.pop(cycle, None)
                if activated is not None:
                    for op in activated:
                        heappush(ready, (op.seq, op))

            # ------------------------------------------------------------ issue
            if ready:
                if iq_count == 0:
                    c_issue_empty += 1
                else:
                    restrict_to_oldest = False
                    oldest = None
                    if track_oldest:
                        while iq_order[0].issued:
                            iq_order.popleft()
                        oldest = iq_order[0]
                        if oldest_blocks is not None:
                            restrict_to_oldest = oldest_blocks[oldest.seq]
                    if restrict_to_oldest and ready[0][1] is not oldest:
                        # Nothing issue-eligible this cycle (the seed scan
                        # would visit every IQ entry and issue nothing).
                        c_issue_stall += 1
                    else:
                        issued = 0
                        ports_used = 0  # bitmask over port indices
                        deferred = None
                        while ready and issued < width:
                            entry = ready[0]
                            op = entry[1]
                            if restrict_to_oldest and op is not oldest:
                                break
                            heappop(ready)
                            if (
                                only_oldest is not None
                                and op is not oldest
                                and only_oldest[op.seq]
                            ):
                                if deferred is None:
                                    deferred = []
                                deferred.append(entry)
                                continue
                            # No younger-than-serialising check: dispatch
                            # stops behind a serialising uop until it
                            # completes, so the IQ never holds a younger one.
                            op_class = op.op_class
                            port = -1
                            for candidate in class_ports[op_class]:
                                if ports_used >> candidate & 1:
                                    continue
                                if port_busy[candidate] > cycle:
                                    continue
                                port = candidate
                                break
                            if port < 0:
                                c_issue_conflicts += 1
                                if deferred is None:
                                    deferred = []
                                deferred.append(entry)
                                continue
                            ports_used |= 1 << port
                            # -- execute: latency + D-cache access
                            if op_class == _LOAD:
                                address = op.address
                                op_seq = op.seq
                                forwarded = False
                                for store in store_queue:
                                    if store.address == address and store.seq < op_seq:
                                        forwarded = True
                                        break
                                if forwarded:
                                    c_lsq_fwd += 1
                                    latency = 1
                                else:
                                    latency = caches_access(address)
                            elif op_class == _STORE:
                                caches_access(op.address)
                                latency = 1
                            else:
                                latency = latency_by_class[op_class]
                                if op_class == _INT_DIV or op_class == _FP_DIV:
                                    # Non-pipelined units block their port.
                                    port_busy[port] = cycle + latency
                            op.issued = True
                            finish = cycle + (latency if latency > 1 else 1)
                            finish_list = completing.get(finish)
                            if finish_list is None:
                                completing[finish] = [op]
                            else:
                                finish_list.append(op)
                            issued += 1
                            c_issue_class[op_class] += 1
                        if deferred:
                            for entry in deferred:
                                heappush(ready, entry)
                        if issued == 0:
                            c_issue_stall += 1
                        else:
                            iq_count -= issued
                            c_issue_instr += issued
                            if issued >= width:
                                c_issue_maxw += 1
            elif iq_count:
                c_issue_stall += 1
            else:
                c_issue_empty += 1

            # --------------------------------------------------------- dispatch
            if fetch_queue:
                dispatched = 0
                while dispatched < width:
                    if serialize_op is not None:
                        c_disp_serializing += 1
                        break
                    op = fetch_queue[0]
                    if len(rob) >= rob_size:
                        c_disp_robfull += 1
                        break
                    if iq_count >= iq_size:
                        c_disp_iqfull += 1
                        break
                    if op.is_mem and lsq_occupancy >= lsq_size:
                        c_disp_lsqfull += 1
                        break
                    if op.has_dest and free_regs <= 0:
                        c_rename_stall += 1
                        break

                    fetch_queue.popleft()
                    dispatched += 1

                    # Rename: link sources to in-flight producers, noting
                    # a dependency bug's producer opcode among them.
                    pending = 0
                    dep_hit = False
                    for src in op.srcs:
                        producer = reg_producer.get(src)
                        if producer is not None and not producer.completed:
                            pending += 1
                            producer.consumers.append(op)
                            if (
                                dependency is not None
                                and producer.uop.opcode == dep_producer
                            ):
                                dep_hit = True
                    op.pending = pending
                    if op.has_dest:
                        free_regs -= 1
                        reg_producer[op.dest] = op

                    min_issue = cycle + 1
                    if delayed:
                        extra = 0 if extra_delay is None else extra_delay[op.seq]
                        if iq_size - iq_count < iq_free_below:
                            extra += iq_delay
                        if rob_size - len(rob) < rob_free_below:
                            extra += rob_delay
                        if dep_hit and op.uop.opcode == dep_consumer:
                            extra += dep_delay
                        if extra > 0:
                            min_issue += extra
                            c_bug_delay += extra
                    op.min_issue_cycle = min_issue

                    if serialize is not None and serialize[op.seq]:
                        serialize_op = op
                        c_disp_serialized += 1

                    rob.append(op)
                    iq_count += 1
                    if track_oldest:
                        iq_order.append(op)
                    if pending == 0:
                        if min_issue == cycle + 1:
                            wake_next.append(op)
                        else:
                            waiters = ready_at.get(min_issue)
                            if waiters is None:
                                ready_at[min_issue] = [op]
                            else:
                                waiters.append(op)
                    if op.is_mem:
                        lsq_occupancy += 1
                        if op.op_class == _STORE:
                            store_queue.append(op)
                    if not fetch_queue:
                        break
                if dispatched:
                    c_disp_instr += dispatched
                elif fetch_queue:
                    c_disp_stall += 1

            # ------------------------------------------------------------ fetch
            if fetch_blocked_by is not None or cycle < fetch_resume:
                c_fetch_stall += 1
            elif next_index < total and len(fetch_queue) < capacity:
                fetched = 0
                while (
                    fetched < width
                    and next_index < total
                    and len(fetch_queue) < capacity
                ):
                    uop, op_class, srcs, dest, address, _taken = ops[next_index]
                    # Record-style construction: __new__ plus direct slot
                    # stores beats a Python-level __init__ call in the
                    # per-instruction path.
                    op = new_op(inflight_op)
                    op.uop = uop
                    op.seq = seq
                    op.op_class = op_class
                    op.srcs = srcs
                    op.dest = dest
                    op.address = address
                    op.pending = 0
                    op.consumers = []
                    op.min_issue_cycle = 0
                    op.issued = False
                    op.completed = False
                    op.mispredicted = False
                    op.blocks_fetch = False
                    op.is_mem = op_class == _LOAD or op_class == _STORE
                    op.has_dest = dest is not None
                    next_index += 1
                    seq += 1
                    fetched += 1
                    if op_class == _BRANCH:
                        c_fetch_br += 1
                        if predict(uop):
                            op.mispredicted = True
                            op.blocks_fetch = True
                            fetch_blocked_by = op
                            c_fetch_mispred += 1
                            fetch_queue.append(op)
                            break
                    fetch_queue.append(op)
                c_fetch_instr += fetched
                c_fetch_active += 1

            # ------------------------------------------------- occupancy/sample
            rob_len = len(rob)
            rob_occ_sum += rob_len
            iq_occ_sum += iq_count
            lsq_occ_sum += lsq_occupancy

            if cycle - last_sample_cycle >= step_cycles:
                # _materialise (sampling path)
                self.cycle = cycle
                self.committed = committed
                self.free_regs = free_regs
                self._lsq_occupancy = lsq_occupancy
                self._iq_count = iq_count
                self._serialize_op = serialize_op
                self._fetch_blocked_by = fetch_blocked_by
                self._fetch_resume_cycle = fetch_resume
                self._rob_occupancy_sum = rob_occ_sum
                self._iq_occupancy_sum = iq_occ_sum
                self._lsq_occupancy_sum = lsq_occ_sum
                self._c_commit_instructions = c_commit_instr
                self._c_commit_register_writes = c_commit_regw
                self._c_commit_branches = c_commit_br
                self._c_commit_loads = c_commit_ld
                self._c_commit_stores = c_commit_st
                self._c_commit_fp = c_commit_fp
                self._c_commit_idle = c_commit_idle
                self._c_commit_max_width = c_commit_maxw
                self._c_writeback = c_writeback
                self._c_issue_instructions = c_issue_instr
                self._c_issue_empty = c_issue_empty
                self._c_issue_stall = c_issue_stall
                self._c_issue_max_width = c_issue_maxw
                self._c_issue_port_conflicts = c_issue_conflicts
                self._c_dispatch_instructions = c_disp_instr
                self._c_dispatch_stall = c_disp_stall
                self._c_dispatch_serializing = c_disp_serializing
                self._c_dispatch_serialized = c_disp_serialized
                self._c_dispatch_rob_full = c_disp_robfull
                self._c_dispatch_iq_full = c_disp_iqfull
                self._c_dispatch_lsq_full = c_disp_lsqfull
                self._c_rename_stall_regs = c_rename_stall
                self._c_bug_extra_delay = c_bug_delay
                self._c_fetch_instructions = c_fetch_instr
                self._c_fetch_branches = c_fetch_br
                self._c_fetch_mispredicted = c_fetch_mispred
                self._c_fetch_stall = c_fetch_stall
                self._c_fetch_active = c_fetch_active
                self._c_lsq_forwarded = c_lsq_fwd
                sampler.sample(self._cumulative_counters())
                last_sample_cycle = cycle

            # ---------------------------------------------------- fast-forward
            # When nothing is issue-eligible, the ROB head is incomplete, the
            # fetch stage is provably idle next cycle and dispatch is either
            # empty-handed or provably blocked, no stage can make progress
            # until the next completion / wake-up / fetch-resume event.  Jump
            # there in one step, batch-applying the per-cycle stall counters
            # every skipped cycle would have accumulated (the blocking state
            # is constant across the window, so the same counters fire every
            # cycle).  Bug flags are per uop, so they cannot change inside the
            # window either.
            if (
                not ready
                and not wake_next
                and (not rob or not rob[0].completed)
            ):
                blocked = fetch_blocked_by is not None
                if (
                    blocked
                    or cycle + 1 < fetch_resume
                    or next_index >= total
                    or len(fetch_queue) >= capacity
                ):
                    # Which dispatch-stall counter (if any) fires every cycle
                    # of the window; -1 means dispatch can progress → no skip.
                    dispatch_reason = 0
                    if fetch_queue:
                        head = fetch_queue[0]
                        if serialize_op is not None:
                            dispatch_reason = 1
                        elif len(rob) >= rob_size:
                            dispatch_reason = 2
                        elif iq_count >= iq_size:
                            dispatch_reason = 3
                        elif head.is_mem and lsq_occupancy >= lsq_size:
                            dispatch_reason = 4
                        elif head.has_dest and free_regs <= 0:
                            dispatch_reason = 5
                        else:
                            dispatch_reason = -1
                    if dispatch_reason >= 0 and (completing or ready_at):
                        event = last_sample_cycle + step_cycles
                        if completing:
                            first_finish = min(completing)
                            if first_finish < event:
                                event = first_finish
                        if ready_at:
                            wake = min(ready_at)
                            if wake < event:
                                event = wake
                        if (
                            not blocked
                            and next_index < total
                            and len(fetch_queue) < capacity
                            and fetch_resume < event
                        ):
                            event = fetch_resume
                        if event > max_cycles + 1:
                            event = max_cycles + 1
                        skipped = event - cycle - 1
                        if skipped > 0:
                            c_commit_idle += skipped
                            if iq_count == 0:
                                c_issue_empty += skipped
                            else:
                                c_issue_stall += skipped
                            if dispatch_reason:
                                c_disp_stall += skipped
                                if dispatch_reason == 1:
                                    c_disp_serializing += skipped
                                elif dispatch_reason == 2:
                                    c_disp_robfull += skipped
                                elif dispatch_reason == 3:
                                    c_disp_iqfull += skipped
                                elif dispatch_reason == 4:
                                    c_disp_lsqfull += skipped
                                else:
                                    c_rename_stall += skipped
                            if blocked:
                                c_fetch_stall += skipped
                            elif fetch_resume > cycle + 1:
                                # Stall cycles only while the redirect window
                                # is still open (the skip may extend past it
                                # when the trace is exhausted or the fetch
                                # buffer is full).
                                stop = event - 1
                                if fetch_resume - 1 < stop:
                                    stop = fetch_resume - 1
                                c_fetch_stall += stop - cycle
                            rob_occ_sum += rob_len * skipped
                            iq_occ_sum += iq_count * skipped
                            lsq_occ_sum += lsq_occupancy * skipped
                            cycle = event - 1

        # _materialise (end of run)
        self.cycle = cycle
        self.committed = committed
        self.free_regs = free_regs
        self._lsq_occupancy = lsq_occupancy
        self._iq_count = iq_count
        self._serialize_op = serialize_op
        self._fetch_blocked_by = fetch_blocked_by
        self._fetch_resume_cycle = fetch_resume
        self._rob_occupancy_sum = rob_occ_sum
        self._iq_occupancy_sum = iq_occ_sum
        self._lsq_occupancy_sum = lsq_occ_sum
        self._c_commit_instructions = c_commit_instr
        self._c_commit_register_writes = c_commit_regw
        self._c_commit_branches = c_commit_br
        self._c_commit_loads = c_commit_ld
        self._c_commit_stores = c_commit_st
        self._c_commit_fp = c_commit_fp
        self._c_commit_idle = c_commit_idle
        self._c_commit_max_width = c_commit_maxw
        self._c_writeback = c_writeback
        self._c_issue_instructions = c_issue_instr
        self._c_issue_empty = c_issue_empty
        self._c_issue_stall = c_issue_stall
        self._c_issue_max_width = c_issue_maxw
        self._c_issue_port_conflicts = c_issue_conflicts
        self._c_dispatch_instructions = c_disp_instr
        self._c_dispatch_stall = c_disp_stall
        self._c_dispatch_serializing = c_disp_serializing
        self._c_dispatch_serialized = c_disp_serialized
        self._c_dispatch_rob_full = c_disp_robfull
        self._c_dispatch_iq_full = c_disp_iqfull
        self._c_dispatch_lsq_full = c_disp_lsqfull
        self._c_rename_stall_regs = c_rename_stall
        self._c_bug_extra_delay = c_bug_delay
        self._c_fetch_instructions = c_fetch_instr
        self._c_fetch_branches = c_fetch_br
        self._c_fetch_mispredicted = c_fetch_mispred
        self._c_fetch_stall = c_fetch_stall
        self._c_fetch_active = c_fetch_active
        self._c_lsq_forwarded = c_lsq_fwd
        sampler.finalize(self._cumulative_counters(), cycle - last_sample_cycle)
        return sampler.build()
