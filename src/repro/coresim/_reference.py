"""Frozen seed implementation of the O3 pipeline.

This module is a verbatim copy of the pre-optimization ``O3Pipeline`` from the
seed tree, with its cache hierarchy and branch predictor.  It asks the bug
model through per-cycle hooks, and it is the one Python core model, in two
roles:

* **the fallback** — :func:`repro.coresim.simulate_batch_scalar` runs it on
  a :class:`~repro.coresim.hooks.RecordHooks`, which answers the hooks from
  the bug's compiled :class:`~repro.coresim.hooks.BugRecord`, whenever the
  native kernel cannot run (no compiler, or a configuration past a kernel
  limit); ``repro-bench`` times the native kernel against that path;
* **the oracle** — :func:`reference_simulate_trace` fed a bug model
  directly reads the bug's own hooks, and the golden and differential
  suites (``tests/test_perf_equivalence.py``,
  ``tests/test_differential.py``) hold the fallback and the native kernel
  bit-identical to it.

Do not optimize or "fix" this file; behavioural changes here silently weaken
the equivalence oracle.  If the modelled microarchitecture itself changes,
update this file, the native kernel and the tests together.
"""


from __future__ import annotations

from collections import deque

from ..uarch.config import CacheConfig, MicroarchConfig  # noqa: F401 (annotations)
from ..workloads.isa import MicroOp, NUM_ARCH_REGS, OpClass, Opcode
from .counters import CounterTimeSeries, TimeSeriesSampler
from .hooks import BUG_FREE, CoreBugModel, DispatchContext

# -- frozen seed cache hierarchy and branch predictor ----------------------

class _SeedCache:
    """One cache level: tag store with true-LRU replacement."""

    def __init__(self, name: str, config: CacheConfig) -> None:
        self.name = name
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.line_shift = config.line_size.bit_length() - 1
        # One dict per set: tag -> last-use timestamp.
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._tick = 0
        self.accesses = 0
        self.misses = 0

    def reset_stats(self) -> None:
        self.accesses = 0
        self.misses = 0

    def lookup(self, address: int) -> bool:
        """Access *address*; returns True on hit.  Misses allocate the line."""
        self._tick += 1
        line = address >> self.line_shift
        set_index = line % self.num_sets
        tag = line // self.num_sets
        cache_set = self._sets[set_index]
        self.accesses += 1
        if tag in cache_set:
            cache_set[tag] = self._tick
            return True
        self.misses += 1
        if len(cache_set) >= self.associativity:
            victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
        cache_set[tag] = self._tick
        return False

    def fill(self, address: int) -> None:
        """Install the line containing *address* without touching statistics.

        Used for prefetch fills and warm-up.
        """
        self._tick += 1
        line = address >> self.line_shift
        set_index = line % self.num_sets
        tag = line // self.num_sets
        cache_set = self._sets[set_index]
        if tag in cache_set:
            cache_set[tag] = self._tick
            return
        if len(cache_set) >= self.associativity:
            victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
        cache_set[tag] = self._tick

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class _SeedCacheHierarchy:
    """The L1D/L2/(L3)/memory data hierarchy of one core configuration."""

    #: Main-memory access time in nanoseconds (converted to cycles per design).
    MEMORY_LATENCY_NS = 60.0

    def __init__(self, config: MicroarchConfig, bug: CoreBugModel) -> None:
        self.config = config
        self.bug = bug
        self.levels: list[_SeedCache] = [_SeedCache("l1d", config.l1), _SeedCache("l2", config.l2)]
        if config.l3 is not None:
            self.levels.append(_SeedCache("l3", config.l3))
        self.memory_latency = max(
            30, int(round(self.MEMORY_LATENCY_NS * config.clock_ghz))
        )

    def access(self, address: int) -> int:
        """Access *address* and return the total latency in core cycles."""
        latency = 0
        hit_level = 0
        for index, cache in enumerate(self.levels, start=1):
            latency += cache.config.latency + self.bug.cache_extra_latency(index)
            if cache.lookup(address):
                hit_level = index
                break
        if hit_level == 0:
            latency += self.memory_latency
        if hit_level != 1:
            # Next-line prefetch on an L1 miss: all modern cores covered by
            # Table II ship hardware prefetchers; modelling one keeps the
            # scaled-down probes from being artificially memory bound.
            next_line = address + self.levels[0].config.line_size
            for cache in self.levels:
                cache.fill(next_line)
        return latency

    def stats(self) -> dict[str, int]:
        """Cumulative access/miss counters for every level."""
        result: dict[str, int] = {}
        for cache in self.levels:
            result[f"cache.{cache.name}.accesses"] = cache.accesses
            result[f"cache.{cache.name}.misses"] = cache.misses
        return result


class _SeedBranchPredictor:
    """gshare + BTB + indirect predictor with hit/miss accounting."""

    HISTORY_BITS = 12

    def __init__(self, config: MicroarchConfig, bug: CoreBugModel) -> None:
        self.config = config
        entries = bug.bp_table_entries(config.bp_table_entries)
        self.table_entries = max(4, entries)
        self.counters = [2] * self.table_entries  # weakly taken
        self.history = 0
        self.history_mask = (1 << self.HISTORY_BITS) - 1
        self.btb: dict[int, int] = {}
        self.btb_entries = config.btb_entries
        self.indirect_sets = max(4, config.indirect_predictor_sets)
        self.indirect_table: dict[int, int] = {}

        self.lookups = 0
        self.mispredicts = 0
        self.direction_mispredicts = 0
        self.indirect_lookups = 0
        self.indirect_mispredicts = 0
        self.btb_hits = 0
        self.btb_lookups = 0

    # -- direction prediction ------------------------------------------------

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) % self.table_entries

    def _predict_direction(self, pc: int) -> bool:
        return self.counters[self._index(pc)] >= 2

    def _update_direction(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self.counters[index]
        if taken:
            self.counters[index] = min(3, counter + 1)
        else:
            self.counters[index] = max(0, counter - 1)
        self.history = ((self.history << 1) | int(taken)) & self.history_mask

    # -- target prediction ----------------------------------------------------

    def _predict_target(self, uop: MicroOp) -> int | None:
        if uop.indirect:
            self.indirect_lookups += 1
            key = ((uop.pc >> 2) ^ self.history) % self.indirect_sets
            return self.indirect_table.get(key)
        self.btb_lookups += 1
        target = self.btb.get(uop.pc)
        if target is not None:
            self.btb_hits += 1
        return target

    def _update_target(self, uop: MicroOp) -> None:
        if uop.target is None:
            return
        if uop.indirect:
            key = ((uop.pc >> 2) ^ self.history) % self.indirect_sets
            self.indirect_table[key] = uop.target
        else:
            if uop.pc not in self.btb and len(self.btb) >= self.btb_entries:
                # Evict an arbitrary (oldest-inserted) entry.
                self.btb.pop(next(iter(self.btb)))
            self.btb[uop.pc] = uop.target

    # -- public API -------------------------------------------------------------

    def predict_and_update(self, uop: MicroOp) -> bool:
        """Predict *uop* and update predictor state; returns True on mispredict.

        The trace carries the architecturally-correct outcome, so prediction
        and training happen in one call (prediction uses the state *before*
        the update, as in hardware).
        """
        if not uop.is_branch or uop.taken is None:
            return False
        self.lookups += 1
        predicted_taken = self._predict_direction(uop.pc)
        predicted_target = self._predict_target(uop) if predicted_taken else None

        mispredicted = predicted_taken != uop.taken
        if mispredicted:
            self.direction_mispredicts += 1
        elif uop.taken and predicted_target != uop.target:
            mispredicted = True
            if uop.indirect:
                self.indirect_mispredicts += 1

        self._update_direction(uop.pc, uop.taken)
        if uop.taken:
            self._update_target(uop)
        if mispredicted:
            self.mispredicts += 1
        return mispredicted

    def reset_stats(self) -> None:
        """Clear the counters while keeping the learned predictor state."""
        self.lookups = 0
        self.mispredicts = 0
        self.direction_mispredicts = 0
        self.indirect_lookups = 0
        self.indirect_mispredicts = 0
        self.btb_hits = 0
        self.btb_lookups = 0

    def stats(self) -> dict[str, int]:
        """Cumulative predictor counters."""
        return {
            "bp.lookups": self.lookups,
            "bp.mispredicts": self.mispredicts,
            "bp.direction_mispredicts": self.direction_mispredicts,
            "bp.indirect_lookups": self.indirect_lookups,
            "bp.indirect_mispredicts": self.indirect_mispredicts,
            "bp.btb_lookups": self.btb_lookups,
            "bp.btb_hits": self.btb_hits,
        }


#: Base front-end redirect penalty (cycles) after a mispredicted branch resolves.
BASE_REDIRECT_PENALTY = 4

#: Hard safety limit: cycles per trace instruction before the model aborts.
MAX_CYCLES_PER_INSTRUCTION = 500


class _InflightOp:
    """One dynamic instruction in flight between dispatch and commit."""

    __slots__ = (
        "uop",
        "seq",
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

    def __init__(self, uop: MicroOp, seq: int) -> None:
        self.uop = uop
        self.seq = seq
        self.pending = 0
        self.consumers: list[_InflightOp] = []
        self.min_issue_cycle = 0
        self.issued = False
        self.completed = False
        self.mispredicted = False
        self.blocks_fetch = False
        self.is_mem = uop.is_mem
        self.has_dest = uop.dest is not None


class PipelineError(RuntimeError):
    """Raised when the pipeline deadlocks or exceeds its cycle budget."""


class ReferenceO3Pipeline:
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

        self.caches = _SeedCacheHierarchy(config, self.bug)
        self.branch_predictor = _SeedBranchPredictor(config, self.bug)

        # Physical register pool: architectural state plus rename registers,
        # possibly reduced by bug 11.
        reduction = max(0, self.bug.register_reduction())
        self.free_regs = max(1, config.num_phys_regs - NUM_ARCH_REGS - reduction)

        # Per-operation-class execution latencies.
        self._latency = {
            OpClass.INT_ALU: 1,
            OpClass.INT_MULT: config.mult_latency,
            OpClass.INT_DIV: config.div_latency,
            OpClass.FP_ALU: config.fp_latency,
            OpClass.FP_MULT: config.fp_latency,
            OpClass.FP_DIV: config.div_latency,
            OpClass.VECTOR: config.fp_latency,
            OpClass.BRANCH: 1,
            OpClass.STORE: 1,
        }
        self._class_ports = {
            op_class: [p.index for p in config.ports.ports_for(op_class)]
            for op_class in OpClass
        }
        self._port_busy_until = [0] * config.ports.num_ports
        self._nonpipelined = {OpClass.INT_DIV, OpClass.FP_DIV}

        # Pipeline structures.
        self._fetch_queue: deque[_InflightOp] = deque()
        self._rob: deque[_InflightOp] = deque()
        self._iq: list[_InflightOp] = []
        self._lsq_occupancy = 0
        self._reg_producer: dict[int, _InflightOp] = {}
        self._store_queue: list[_InflightOp] = []
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

    # ------------------------------------------------------------------ utils

    def _bump(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _cumulative_counters(self) -> dict[str, float]:
        merged = dict(self.counters)
        merged["rob.occupancy_sum"] = float(self._rob_occupancy_sum)
        merged["iq.occupancy_sum"] = float(self._iq_occupancy_sum)
        merged["lsq.occupancy_sum"] = float(self._lsq_occupancy_sum)
        merged.update({k: float(v) for k, v in self.branch_predictor.stats().items()})
        merged.update({k: float(v) for k, v in self.caches.stats().items()})
        return merged

    # ------------------------------------------------------------------ stages

    def _commit_stage(self) -> None:
        width = self.config.width
        committed_now = 0
        while self._rob and committed_now < width:
            op = self._rob[0]
            if not op.completed:
                break
            self._rob.popleft()
            committed_now += 1
            self.committed += 1
            uop = op.uop
            self._bump("commit.instructions")
            if op.has_dest:
                self._bump("commit.register_writes")
                self.free_regs += 1
                if self._reg_producer.get(uop.dest) is op:
                    del self._reg_producer[uop.dest]
            if uop.is_branch:
                self._bump("commit.branches")
            elif uop.opcode is Opcode.LOAD:
                self._bump("commit.loads")
                self._lsq_occupancy -= 1
            elif uop.opcode is Opcode.STORE:
                self._bump("commit.stores")
                self._lsq_occupancy -= 1
                if op in self._store_queue:
                    self._store_queue.remove(op)
            if uop.op_class in (
                OpClass.FP_ALU,
                OpClass.FP_MULT,
                OpClass.FP_DIV,
                OpClass.VECTOR,
            ):
                self._bump("commit.fp_instructions")
        if committed_now == 0:
            self._bump("commit.idle_cycles")
        elif committed_now >= width:
            self._bump("commit.max_width_cycles")

    def _writeback_stage(self) -> None:
        finishing = self._completing.pop(self.cycle, None)
        if not finishing:
            return
        for op in finishing:
            op.completed = True
            for consumer in op.consumers:
                consumer.pending -= 1
            op.consumers = []
            if op.blocks_fetch and self._fetch_blocked_by is op:
                penalty = BASE_REDIRECT_PENALTY + self.bug.branch_extra_penalty(
                    op.uop, True
                )
                self._fetch_resume_cycle = self.cycle + penalty
                self._fetch_blocked_by = None
            if self._serialize_op is op:
                self._serialize_op = None
            self._bump("writeback.instructions")

    def _execute(self, op: _InflightOp) -> int:
        """Compute the execution latency of *op* and do its cache access."""
        uop = op.uop
        op_class = uop.op_class
        if op_class is OpClass.LOAD:
            forwarded = any(
                s.uop.address == uop.address and s.seq < op.seq
                for s in self._store_queue
            )
            if forwarded:
                self._bump("lsq.forwarded_loads")
                return 1
            return self.caches.access(uop.address)
        if op_class is OpClass.STORE:
            self.caches.access(uop.address)
            return self._latency[OpClass.STORE]
        return self._latency[op_class]

    def _issue_stage(self) -> None:
        if not self._iq:
            self._bump("issue.empty_cycles")
            return
        width = self.config.width
        issued = 0
        ports_used: set[int] = set()
        oldest = self._iq[0]
        restrict_to_oldest = self.bug.oldest_blocks_others(oldest.uop)
        to_remove: list[_InflightOp] = []

        for op in self._iq:
            if issued >= width:
                break
            if restrict_to_oldest and op is not oldest:
                break
            if op.pending > 0 or self.cycle < op.min_issue_cycle:
                continue
            uop = op.uop
            if op is not oldest and self.bug.issue_only_if_oldest(uop):
                continue
            if self._serialize_op is not None and op is not self._serialize_op:
                # A serialising instruction blocks younger instructions from
                # issuing until it has itself issued.
                if op.seq > self._serialize_op.seq:
                    continue
            port = self._find_port(uop.op_class, ports_used)
            if port is None:
                self._bump("issue.port_conflicts")
                continue
            ports_used.add(port)
            latency = self._execute(op)
            if uop.op_class in self._nonpipelined:
                self._port_busy_until[port] = self.cycle + latency
            op.issued = True
            finish = self.cycle + max(1, latency)
            self._completing.setdefault(finish, []).append(op)
            to_remove.append(op)
            issued += 1
            self._bump("issue.instructions")
            self._bump(f"issue.class.{uop.op_class.name}")

        if to_remove:
            remove_set = set(id(op) for op in to_remove)
            self._iq = [op for op in self._iq if id(op) not in remove_set]
        if issued == 0:
            self._bump("issue.stall_cycles")
        elif issued >= width:
            self._bump("issue.max_width_cycles")

    def _find_port(self, op_class: OpClass, used: set[int]) -> int | None:
        for port in self._class_ports[op_class]:
            if port in used:
                continue
            if self._port_busy_until[port] > self.cycle:
                continue
            return port
        return None

    def _dispatch_stage(self) -> None:
        width = self.config.width
        dispatched = 0
        while self._fetch_queue and dispatched < width:
            if self._serialize_op is not None:
                self._bump("dispatch.serializing_stalls")
                break
            op = self._fetch_queue[0]
            uop = op.uop
            if len(self._rob) >= self.config.rob_size:
                self._bump("dispatch.stall_rob_full")
                break
            if len(self._iq) >= self.config.iq_size:
                self._bump("dispatch.stall_iq_full")
                break
            if op.is_mem and self._lsq_occupancy >= self.config.lsq_size:
                self._bump("dispatch.stall_lsq_full")
                break
            if op.has_dest and self.free_regs <= 0:
                self._bump("rename.stall_cycles_regs")
                break

            self._fetch_queue.popleft()
            dispatched += 1
            self._bump("dispatch.instructions")

            # Rename: link sources to in-flight producers.
            producer_opcodes: list[Opcode] = []
            for src in uop.srcs:
                producer = self._reg_producer.get(src)
                if producer is not None and not producer.completed:
                    op.pending += 1
                    producer.consumers.append(op)
                    producer_opcodes.append(producer.uop.opcode)
            if op.has_dest:
                self.free_regs -= 1
                self._reg_producer[uop.dest] = op

            context = DispatchContext(
                iq_free=self.config.iq_size - len(self._iq),
                rob_free=self.config.rob_size - len(self._rob),
                producer_opcodes=tuple(producer_opcodes),
            )
            extra = self.bug.extra_issue_delay(uop, context)
            op.min_issue_cycle = self.cycle + 1 + max(0, extra)
            if extra > 0:
                self._bump("bug.extra_delay_cycles", extra)

            if self.bug.serialize(uop):
                self._serialize_op = op
                self._bump("dispatch.serialized_instructions")

            self._rob.append(op)
            self._iq.append(op)
            if op.is_mem:
                self._lsq_occupancy += 1
                if uop.opcode is Opcode.STORE:
                    self._store_queue.append(op)
        if dispatched == 0 and self._fetch_queue:
            self._bump("dispatch.stall_cycles")

    def _fetch_stage(self, trace: list[MicroOp], next_index: int, seq: int) -> tuple[int, int]:
        width = self.config.width
        if self._fetch_blocked_by is not None or self.cycle < self._fetch_resume_cycle:
            self._bump("fetch.stall_cycles")
            return next_index, seq
        fetched = 0
        capacity = self.config.fetch_buffer
        while (
            fetched < width
            and next_index < len(trace)
            and len(self._fetch_queue) < capacity
        ):
            uop = trace[next_index]
            op = _InflightOp(uop, seq)
            next_index += 1
            seq += 1
            fetched += 1
            self._bump("fetch.instructions")
            if uop.is_branch:
                self._bump("fetch.branches")
                mispredicted = self.branch_predictor.predict_and_update(uop)
                if mispredicted:
                    op.mispredicted = True
                    op.blocks_fetch = True
                    self._fetch_blocked_by = op
                    self._bump("fetch.mispredicted_branches")
            self._fetch_queue.append(op)
            if op.blocks_fetch:
                break
        if fetched > 0:
            self._bump("fetch.cycles_active")
        return next_index, seq

    # ------------------------------------------------------------------ driver

    def warmup(self, trace: list[MicroOp]) -> None:
        """Functionally warm the caches and branch predictor with *trace*.

        The paper's probes are ~10 M instructions, long enough that cold-start
        effects are negligible; the scaled-down probes used here are not, so a
        functional warm-up pass (a standard SimPoint practice) is applied
        before timed simulation.  Statistics accumulated during warm-up are
        discarded.
        """
        for uop in trace:
            if uop.address is not None:
                self.caches.access(uop.address)
            elif uop.taken is not None:
                self.branch_predictor.predict_and_update(uop)
        for cache in self.caches.levels:
            cache.reset_stats()
        self.branch_predictor.reset_stats()

    def run(self, trace: list[MicroOp]) -> CounterTimeSeries:
        """Simulate *trace* to completion and return the sampled time series."""
        if not trace:
            raise ValueError("cannot simulate an empty trace")
        sampler = TimeSeriesSampler(self.step_cycles)
        next_index = 0
        seq = 0
        total = len(trace)
        max_cycles = total * MAX_CYCLES_PER_INSTRUCTION + 10_000
        last_sample_cycle = 0

        while self.committed < total:
            self.cycle += 1
            if self.cycle > max_cycles:
                raise PipelineError(
                    f"pipeline exceeded {max_cycles} cycles for {total} instructions "
                    f"on {self.config.name} with bug {self.bug.name!r}"
                )
            self._commit_stage()
            self._writeback_stage()
            self._issue_stage()
            self._dispatch_stage()
            next_index, seq = self._fetch_stage(trace, next_index, seq)

            self._rob_occupancy_sum += len(self._rob)
            self._iq_occupancy_sum += len(self._iq)
            self._lsq_occupancy_sum += self._lsq_occupancy

            if self.cycle - last_sample_cycle >= self.step_cycles:
                sampler.sample(self._cumulative_counters())
                last_sample_cycle = self.cycle

        sampler.finalize(self._cumulative_counters(), self.cycle - last_sample_cycle)
        return sampler.build()


def reference_simulate_trace(
    config: MicroarchConfig,
    trace: list[MicroOp],
    bug: CoreBugModel | None = None,
    step_cycles: int = 2048,
    warmup: bool = True,
):
    """Run the frozen seed pipeline; mirrors :func:`repro.coresim.simulate_trace`.

    Accepts a plain micro-op list or anything exposing ``.uops`` (e.g. a
    :class:`~repro.workloads.decoded.DecodedTrace`); the seed code predates the
    decoded representation and only understands lists.
    """
    from .simulator import SimulationResult

    uops = list(getattr(trace, "uops", trace))
    pipeline = ReferenceO3Pipeline(config, bug=bug, step_cycles=step_cycles)
    if warmup:
        pipeline.warmup(uops)
    series = pipeline.run(uops)
    return SimulationResult(
        config_name=config.name,
        bug_name=pipeline.bug.name,
        instructions=pipeline.committed,
        cycles=pipeline.cycle,
        series=series,
    )
