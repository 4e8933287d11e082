"""Bug-injection interface for the memory-hierarchy simulator.

Mirrors :mod:`repro.coresim.hooks` for the ChampSim-like cache-hierarchy model
used in the memory-system study (Section IV-D).  A memory bug speaks to the
simulators through :meth:`MemoryBugModel.compile`, which returns a
:class:`MemoryBugRecord`: a few flags and integers that the native kernel
and the Python fallback both read.
:meth:`~MemoryBugModel.on_simulation_start` still runs first, once per
simulation.

The per-access hooks (``update_replacement_on_access`` …
``spp_drop_prefetch``) are what the frozen memsim of
:mod:`repro.memsim._reference` asks.  The Python fallback runs it on a
:class:`MemoryRecordHooks`, which answers them from the record; fed a bug
model directly, the same memsim is the differential oracle that holds each
bug type's record equal to its hooks.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Cache level names, in the order of the record's per-level fields.
MEMORY_LEVELS: tuple[str, ...] = ("l1d", "l2", "llc")

#: Levels whose load misses consult a load-miss delay.
LOAD_MISS_LEVELS: tuple[str, ...] = ("l1d", "l2")


@dataclass(frozen=True)
class MemoryBugRecord:
    """What one memory bug does, in the form both memsim kernels read.

    Per-level tuples are indexed like :data:`MEMORY_LEVELS`;
    ``load_miss_delay`` like :data:`LOAD_MISS_LEVELS`.
    """

    #: Skip the LRU age update when a line hits.
    no_age_update: tuple[bool, bool, bool] = (False, False, False)
    #: Evict the most recently used line instead of the least recently used.
    evict_mru: tuple[bool, bool, bool] = (False, False, False)
    #: ``(threshold, delay)``: a load miss that takes the level's load-miss
    #: count above *threshold* costs *delay* extra cycles.
    load_miss_delay: tuple[tuple[int, int], tuple[int, int]] = ((0, 0), (0, 0))
    #: SPP: reset every signature to zero.
    spp_signature_reset: bool = False
    #: SPP: lookahead follows the least-confident delta.
    spp_least_confident: bool = False
    #: SPP: every *drop_every*-th prefetch candidate, counting from the
    #: first, is marked executed but never issued; 0 turns this off.
    spp_drop_every: int = 0


#: The record of the bug-free hierarchy.
NO_MEMORY_BUG = MemoryBugRecord()


class MemoryBugModel:
    """No-op memory bug model (bug-free hierarchy behaviour)."""

    name: str = "bug-free"

    def compile(self) -> MemoryBugRecord:
        """The :class:`MemoryBugRecord` of this bug."""
        return NO_MEMORY_BUG

    def on_simulation_start(self, config) -> None:
        """Called once before simulation; may reset internal state."""

    # -- per-access hooks (asked by the frozen memsim) -------------------------

    def update_replacement_on_access(self, level: str) -> bool:
        """False to skip the LRU age update on an access hit (bug 1)."""
        return True

    def evict_most_recently_used(self, level: str) -> bool:
        """True to evict the MRU block instead of the LRU block (bug 2)."""
        return False

    def load_miss_extra_delay(self, level: str, miss_count: int) -> int:
        """Extra cycles added to a load miss at *level* (bug 3).

        *miss_count* is the cumulative number of load misses observed at that
        level, so "after N misses, delay reads by T cycles" is expressible.
        """
        return 0

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


class MemoryRecordHooks(MemoryBugModel):
    """A memory bug's :class:`MemoryBugRecord`, served through the hooks.

    Takes the bug's name and the record it compiled; the bug's own
    ``on_simulation_start`` ran before ``compile``.
    """

    def __init__(self, name: str, record: MemoryBugRecord) -> None:
        self.name = name
        self._record = record

    def compile(self) -> MemoryBugRecord:
        return self._record

    def update_replacement_on_access(self, level: str) -> bool:
        return not self._record.no_age_update[MEMORY_LEVELS.index(level)]

    def evict_most_recently_used(self, level: str) -> bool:
        return self._record.evict_mru[MEMORY_LEVELS.index(level)]

    def load_miss_extra_delay(self, level: str, miss_count: int) -> int:
        threshold, delay = self._record.load_miss_delay[LOAD_MISS_LEVELS.index(level)]
        return delay if miss_count > threshold else 0

    def spp_corrupt_signature(self, signature: int) -> int:
        return 0 if self._record.spp_signature_reset else signature

    def spp_pick_least_confident(self) -> bool:
        return self._record.spp_least_confident

    def spp_drop_prefetch(self, prefetch_index: int) -> bool:
        every = self._record.spp_drop_every
        return every != 0 and prefetch_index % every == 0
