"""Frozen reference copy of the seed memory-hierarchy simulator.

``hooks.py``, ``cache.py``, ``prefetcher.py`` and ``simulator.py`` of
``repro.memsim`` as they were before memory bugs became records and the
memsim gained a compiled kernel: every bug acts through per-access hook
calls (``update_replacement_on_access``, ``evict_most_recently_used``,
``load_miss_extra_delay``, ``spp_corrupt_signature``,
``spp_pick_least_confident``, ``spp_drop_prefetch``).  Only the module
docstrings were dropped and the package-relative imports merged and made
absolute.

It is the one Python memsim, in two roles.  Fed a
:class:`~repro.memsim.hooks.MemoryRecordHooks`, which answers the hooks
from ``MemoryBugModel.compile()``'s record, it is the fallback that
:func:`~repro.memsim.simulator.simulate_memory_python` runs when the native
kernel cannot.  Fed a bug model directly, it is the differential oracle
of ``tests/test_memsim_differential.py``, which holds every bug type's
record equal to its hooks.  ``MemSimResult``, ``llc_mpki`` and the
step constants are ``repro.memsim``'s own.  The one edit to the code:
``MemoryHierarchySim.run`` hands its per-step counter dicts to
``CounterTimeSeries.from_rows``, which builds the series' counter matrix,
where it used to build a dict of one array per counter itself.

**Never optimise, fix or restyle this file.**  Its value is that it is the
original code; a change here moves the oracle with the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coresim.counters import CounterTimeSeries
from repro.uarch.config import CacheConfig, MemoryHierarchyConfig
from repro.workloads.decoded import DecodedTrace, as_uops
from repro.workloads.isa import MicroOp


# --- repro/memsim/hooks.py (verbatim) ---


class MemoryBugModel:
    """No-op memory bug model (bug-free hierarchy behaviour)."""

    name: str = "bug-free"

    def on_simulation_start(self, config) -> None:
        """Called once before simulation; may reset internal state."""

    # -- replacement policy -------------------------------------------------

    def update_replacement_on_access(self, level: str) -> bool:
        """False to skip the LRU age update on an access hit (bug 1)."""
        return True

    def evict_most_recently_used(self, level: str) -> bool:
        """True to evict the MRU block instead of the LRU block (bug 2)."""
        return False

    # -- miss handling -------------------------------------------------------

    def load_miss_extra_delay(self, level: str, miss_count: int) -> int:
        """Extra cycles added to a load miss at *level* (bug 3).

        *miss_count* is the cumulative number of load misses observed at that
        level, so "after N misses, delay reads by T cycles" is expressible.
        """
        return 0

    # -- SPP prefetcher ------------------------------------------------------

    def spp_corrupt_signature(self, signature: int) -> int:
        """Possibly corrupt the SPP signature (bug 4 resets it to zero)."""
        return signature

    def spp_pick_least_confident(self) -> bool:
        """True to make lookahead follow the least-confident path (bug 5)."""
        return False

    def spp_drop_prefetch(self, prefetch_index: int) -> bool:
        """True to mark this prefetch as executed without issuing it (bug 6)."""
        return False


#: Shared bug-free instance.
MEM_BUG_FREE = MemoryBugModel()


# --- repro/memsim/cache.py (verbatim) ---


class ReplacementCache:
    """One cache level with true-LRU replacement and prefetch support."""

    def __init__(self, name: str, config: CacheConfig, bug: MemoryBugModel) -> None:
        self.name = name
        self.config = config
        self.bug = bug
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.line_shift = config.line_size.bit_length() - 1
        # tag -> age timestamp; parallel dict marks prefetched-but-unused lines.
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._prefetched: list[set[int]] = [set() for _ in range(self.num_sets)]
        self._tick = 0

        self.accesses = 0
        self.misses = 0
        self.load_misses = 0
        self.evictions = 0
        self.prefetch_fills = 0
        self.useful_prefetches = 0

    # -- internals -----------------------------------------------------------

    def _locate(self, address: int) -> tuple[int, int]:
        line = address >> self.line_shift
        return line % self.num_sets, line // self.num_sets

    def _insert(self, set_index: int, tag: int, prefetch: bool) -> None:
        cache_set = self._sets[set_index]
        if tag in cache_set:
            cache_set[tag] = self._tick
            return
        if len(cache_set) >= self.associativity:
            if self.bug.evict_most_recently_used(self.name):
                victim = max(cache_set, key=cache_set.get)
            else:
                victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
            self._prefetched[set_index].discard(victim)
            self.evictions += 1
        cache_set[tag] = self._tick
        if prefetch:
            self._prefetched[set_index].add(tag)
        else:
            self._prefetched[set_index].discard(tag)

    # -- public API ------------------------------------------------------------

    def access(self, address: int, is_load: bool = True) -> bool:
        """Demand access; returns True on hit and allocates the line on miss."""
        self._tick += 1
        set_index, tag = self._locate(address)
        cache_set = self._sets[set_index]
        self.accesses += 1
        if tag in cache_set:
            if self.bug.update_replacement_on_access(self.name):
                cache_set[tag] = self._tick
            if tag in self._prefetched[set_index]:
                self.useful_prefetches += 1
                self._prefetched[set_index].discard(tag)
            return True
        self.misses += 1
        if is_load:
            self.load_misses += 1
        self._insert(set_index, tag, prefetch=False)
        return False

    def prefetch_fill(self, address: int) -> None:
        """Install a prefetched line (no demand-access statistics)."""
        self._tick += 1
        set_index, tag = self._locate(address)
        if tag in self._sets[set_index]:
            return
        self.prefetch_fills += 1
        self._insert(set_index, tag, prefetch=True)

    def contains(self, address: int) -> bool:
        """Tag-store probe with no side effects."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def reset_stats(self) -> None:
        self.accesses = 0
        self.misses = 0
        self.load_misses = 0
        self.evictions = 0
        self.prefetch_fills = 0
        self.useful_prefetches = 0

    def stats(self) -> dict[str, float]:
        prefix = f"mem.{self.name}"
        return {
            f"{prefix}.accesses": float(self.accesses),
            f"{prefix}.misses": float(self.misses),
            f"{prefix}.load_misses": float(self.load_misses),
            f"{prefix}.evictions": float(self.evictions),
            f"{prefix}.prefetch_fills": float(self.prefetch_fills),
            f"{prefix}.useful_prefetches": float(self.useful_prefetches),
        }


# --- repro/memsim/prefetcher.py (verbatim) ---


#: Page size used for signature tracking (bytes).
PAGE_SIZE = 4096
#: Number of bits in an SPP signature.
SIGNATURE_BITS = 12
_SIGNATURE_MASK = (1 << SIGNATURE_BITS) - 1


@dataclass
class PrefetchRequest:
    """One prefetch candidate produced by a prefetcher."""

    address: int
    confidence: float


class Prefetcher:
    """Interface: observe a demand access, emit prefetch candidates."""

    name = "none"

    def observe(self, address: int) -> list[PrefetchRequest]:
        """Process a demand access and return prefetch requests."""
        raise NotImplementedError

    @property
    def issued(self) -> int:
        """Number of prefetch requests produced so far."""
        raise NotImplementedError


class NoPrefetcher(Prefetcher):
    """Placeholder used when prefetching is disabled."""

    name = "none"

    def observe(self, address: int) -> list[PrefetchRequest]:
        return []

    @property
    def issued(self) -> int:
        return 0


class NextLinePrefetcher(Prefetcher):
    """Prefetch the next *degree* sequential lines after every access."""

    name = "next_line"

    def __init__(self, line_size: int = 64, degree: int = 1) -> None:
        self.line_size = line_size
        self.degree = max(1, degree)
        self._issued = 0

    def observe(self, address: int) -> list[PrefetchRequest]:
        requests = [
            PrefetchRequest(address + i * self.line_size, confidence=1.0)
            for i in range(1, self.degree + 1)
        ]
        self._issued += len(requests)
        return requests

    @property
    def issued(self) -> int:
        return self._issued


class SignaturePathPrefetcher(Prefetcher):
    """Simplified SPP with signature/pattern tables and lookahead.

    The bug hooks perturb exactly the mechanisms the paper lists: signature
    corruption (bug 4), least-confidence path selection during lookahead
    (bug 5) and prefetches incorrectly marked as executed (bug 6).
    """

    name = "spp"

    #: Minimum path confidence for issuing a prefetch.
    CONFIDENCE_THRESHOLD = 0.25
    #: Maximum lookahead depth.
    MAX_DEPTH = 4

    def __init__(
        self,
        line_size: int = 64,
        degree: int = 2,
        bug: MemoryBugModel | None = None,
    ) -> None:
        self.line_size = line_size
        self.degree = max(1, degree)
        self.bug = bug if bug is not None else MemoryBugModel()
        # page -> (signature, last block offset within page)
        self._signature_table: dict[int, tuple[int, int]] = {}
        # signature -> {delta: count}
        self._pattern_table: dict[int, dict[int, int]] = {}
        self._issued = 0
        self._marked_executed = 0

    @property
    def issued(self) -> int:
        return self._issued

    @property
    def dropped(self) -> int:
        """Prefetches marked as executed but never actually issued (bug 6)."""
        return self._marked_executed

    @staticmethod
    def _advance_signature(signature: int, delta: int) -> int:
        return ((signature << 3) ^ (delta & 0x3F)) & _SIGNATURE_MASK

    def _update_pattern(self, signature: int, delta: int) -> None:
        deltas = self._pattern_table.setdefault(signature, {})
        deltas[delta] = deltas.get(delta, 0) + 1

    def _best_delta(self, signature: int) -> tuple[int, float] | None:
        deltas = self._pattern_table.get(signature)
        if not deltas:
            return None
        total = sum(deltas.values())
        if self.bug.spp_pick_least_confident():
            delta = min(deltas, key=deltas.get)
        else:
            delta = max(deltas, key=deltas.get)
        return delta, deltas[delta] / total

    def observe(self, address: int) -> list[PrefetchRequest]:
        page = address // PAGE_SIZE
        block = (address % PAGE_SIZE) // self.line_size
        previous = self._signature_table.get(page)
        requests: list[PrefetchRequest] = []

        if previous is not None:
            signature, last_block = previous
            delta = block - last_block
            if delta != 0:
                self._update_pattern(signature, delta)
                signature = self._advance_signature(signature, delta)
        else:
            signature = 0

        signature = self.bug.spp_corrupt_signature(signature) & _SIGNATURE_MASK
        self._signature_table[page] = (signature, block)

        # Confidence-driven lookahead along the learned delta path.
        path_confidence = 1.0
        lookahead_signature = signature
        lookahead_block = block
        for _ in range(self.MAX_DEPTH):
            best = self._best_delta(lookahead_signature)
            if best is None:
                break
            delta, confidence = best
            path_confidence *= confidence
            if path_confidence < self.CONFIDENCE_THRESHOLD:
                break
            lookahead_block += delta
            if not 0 <= lookahead_block < PAGE_SIZE // self.line_size:
                break
            target = page * PAGE_SIZE + lookahead_block * self.line_size
            if self.bug.spp_drop_prefetch(self._issued + self._marked_executed):
                # The prefetcher believes it issued this request (it advances
                # its lookahead state) but nothing reaches the cache.
                self._marked_executed += 1
            else:
                requests.append(PrefetchRequest(target, confidence=path_confidence))
                self._issued += 1
            lookahead_signature = self._advance_signature(lookahead_signature, delta)
            if len(requests) >= self.degree:
                break
        return requests


def build_prefetcher(
    kind: str, line_size: int, degree: int, bug: MemoryBugModel
) -> Prefetcher:
    """Factory used by the memory simulator."""
    if kind == "none":
        return NoPrefetcher()
    if kind == "next_line":
        return NextLinePrefetcher(line_size=line_size, degree=degree)
    if kind == "spp":
        return SignaturePathPrefetcher(line_size=line_size, degree=degree, bug=bug)
    raise ValueError(f"unknown prefetcher kind {kind!r}")


# --- repro/memsim/simulator.py (verbatim) ---


#: Default sampling step, in instructions (the memory study samples by
#: retired-instruction count rather than cycles).
DEFAULT_STEP_INSTRUCTIONS = 2000

#: How much of a miss's latency the out-of-order core is assumed to overlap.
MLP_FACTOR = 3.0


@dataclass
class MemSimResult:
    """Outcome of one memory-hierarchy simulation."""

    config_name: str
    bug_name: str
    instructions: int
    cycles: float
    series: CounterTimeSeries
    amat: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def amat_series(self) -> np.ndarray:
        return self.series.counters["mem.amat"]


class MemoryHierarchySim:
    """Simulates the cache hierarchy of one :class:`MemoryHierarchyConfig`."""

    def __init__(
        self,
        config: MemoryHierarchyConfig,
        bug: MemoryBugModel | None = None,
        step_instructions: int = DEFAULT_STEP_INSTRUCTIONS,
    ) -> None:
        self.config = config
        self.bug = bug if bug is not None else MEM_BUG_FREE
        self.step_instructions = step_instructions
        self.bug.on_simulation_start(config)

        self.l1d = ReplacementCache("l1d", config.l1d, self.bug)
        self.l2 = ReplacementCache("l2", config.l2, self.bug)
        self.llc = ReplacementCache("llc", config.llc, self.bug)
        self.prefetcher = build_prefetcher(
            config.prefetcher, config.l1d.line_size, config.prefetch_degree, self.bug
        )

    # -- access path -----------------------------------------------------------

    def _access(self, address: int, is_load: bool) -> int:
        """One demand access; returns its latency in cycles."""
        cfg = self.config
        latency = cfg.l1d.latency
        if not self.l1d.access(address, is_load):
            latency += cfg.l2.latency
            extra = self.bug.load_miss_extra_delay("l1d", self.l1d.load_misses)
            latency += extra if is_load else 0
            if not self.l2.access(address, is_load):
                latency += cfg.llc.latency
                extra = self.bug.load_miss_extra_delay("l2", self.l2.load_misses)
                latency += extra if is_load else 0
                if not self.llc.access(address, is_load):
                    latency += cfg.dram_latency
        # Prefetcher observes demand accesses at L1D and fills into L2/LLC
        # (filling L1D directly would pollute the small L1 working set).
        for request in self.prefetcher.observe(address):
            self.l2.prefetch_fill(request.address)
            self.llc.prefetch_fill(request.address)
        return latency

    # -- driver ------------------------------------------------------------------

    def run(self, trace: list[MicroOp], warmup_fraction: float = 0.1) -> MemSimResult:
        """Simulate *trace*; the first *warmup_fraction* of it warms the caches."""
        if not trace:
            raise ValueError("cannot simulate an empty trace")
        warmup_count = int(len(trace) * warmup_fraction)
        for uop in trace[:warmup_count]:
            if uop.address is not None:
                self._access(uop.address, uop.is_load)
        for cache in (self.l1d, self.l2, self.llc):
            cache.reset_stats()

        measured = trace[warmup_count:]
        rows: list[dict[str, float]] = []
        ipc_values: list[float] = []
        step_latency = 0.0
        step_accesses = 0
        step_instructions = 0
        total_latency = 0.0
        total_accesses = 0
        total_cycles = 0.0
        previous_stats = self._stats()

        def flush_step() -> None:
            nonlocal step_latency, step_accesses, step_instructions, previous_stats
            current = self._stats()
            deltas = {k: current[k] - previous_stats.get(k, 0.0) for k in current}
            previous_stats = current
            amat = step_latency / step_accesses if step_accesses else float(
                self.config.l1d.latency
            )
            stall = max(0.0, step_latency - step_accesses * self.config.l1d.latency)
            cycles = step_instructions / self.config.issue_width + stall / MLP_FACTOR
            deltas["mem.amat"] = amat
            deltas["mem.accesses"] = float(step_accesses)
            deltas["mem.instructions"] = float(step_instructions)
            deltas["mem.stall_cycles"] = stall
            rows.append(deltas)
            ipc_values.append(step_instructions / cycles if cycles > 0 else 0.0)
            step_latency = 0.0
            step_accesses = 0
            step_instructions = 0

        for uop in measured:
            step_instructions += 1
            if uop.address is not None:
                latency = self._access(uop.address, uop.is_load)
                step_latency += latency
                step_accesses += 1
                total_latency += latency
                total_accesses += 1
                total_cycles += max(0.0, latency - self.config.l1d.latency) / MLP_FACTOR
            if step_instructions >= self.step_instructions:
                flush_step()
        if step_instructions >= self.step_instructions // 2:
            flush_step()
        if not rows:
            flush_step()

        total_cycles += len(measured) / self.config.issue_width
        series = CounterTimeSeries.from_rows(self.step_instructions, rows, ipc_values)
        amat = (
            total_latency / total_accesses
            if total_accesses
            else float(self.config.l1d.latency)
        )
        return MemSimResult(
            config_name=self.config.name,
            bug_name=self.bug.name,
            instructions=len(measured),
            cycles=total_cycles,
            series=series,
            amat=amat,
        )

    def _stats(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for cache in (self.l1d, self.l2, self.llc):
            merged.update(cache.stats())
        merged["mem.prefetches_issued"] = float(self.prefetcher.issued)
        return merged


def simulate_memory_trace(
    config: MemoryHierarchyConfig,
    trace: "list[MicroOp] | DecodedTrace",
    bug: MemoryBugModel | None = None,
    step_instructions: int = DEFAULT_STEP_INSTRUCTIONS,
) -> MemSimResult:
    """Convenience wrapper mirroring :func:`repro.coresim.simulate_trace`.

    Accepts a plain micro-op list or a pre-decoded
    :class:`~repro.workloads.decoded.DecodedTrace` (as shipped to job-engine
    workers); the memory simulator walks micro-op objects either way.
    """
    sim = MemoryHierarchySim(config, bug=bug, step_instructions=step_instructions)
    return sim.run(as_uops(trace))


def llc_mpki(result: MemSimResult) -> float:
    """Last-level-cache misses per kilo-instruction of a finished run."""
    counters = result.series.counters
    misses = float(counters["mem.llc.misses"].sum())
    instructions = float(counters["mem.instructions"].sum())
    return 1000.0 * misses / max(1.0, instructions)
