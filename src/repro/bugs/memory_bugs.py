"""The 6 memory-system performance-bug types of Section IV-D.

Each bug is a :class:`~repro.memsim.hooks.MemoryBugModel` subclass whose
``compile()`` gives the :class:`~repro.memsim.hooks.MemoryBugRecord` both
memsim kernels read (its hook methods feed only the frozen reference):

1. Replacement age counter not updated on access.
2. Eviction picks the most recently used block instead of the LRU block.
3. After N load misses at L1D (or L2 variant), reads are delayed T cycles.
4. SPP signatures are reset, making the prefetcher use the wrong address.
5. Lookahead prefetching follows the least-confident path.
6. Some prefetches are incorrectly marked as executed.
"""

from __future__ import annotations

from dataclasses import replace

from ..memsim.hooks import (
    LOAD_MISS_LEVELS,
    MEMORY_LEVELS,
    NO_MEMORY_BUG,
    MemoryBugModel,
    MemoryBugRecord,
)
from .base import BugInfo


def _check_level(bug_type: str, level: str, allowed: "tuple[str, ...]") -> int:
    """Index of *level* in *allowed*; a level the model never consults would
    make the bug a silent no-op, so it is rejected."""
    if level not in allowed:
        raise ValueError(
            f"{bug_type} level must be one of {', '.join(allowed)}, got {level!r}"
        )
    return allowed.index(level)


def _level_flags(index: int) -> "tuple[bool, bool, bool]":
    return tuple(k == index for k in range(len(MEMORY_LEVELS)))


class MemoryBug(MemoryBugModel):
    """Base class for injected memory-system bugs with metadata."""

    bug_type: str = "abstract"

    def __init__(self, name: str, params: dict[str, object], description: str) -> None:
        self.name = name
        self.info = BugInfo(
            name=name, bug_type=self.bug_type, params=params, description=description
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class NoAgeUpdateOnAccess(MemoryBug):
    """Bug 1: the replacement age counter is not updated when a block hits."""

    bug_type = "ReplacementNoAgeUpdate"

    def __init__(self, level: str = "l1d") -> None:
        self._index = _check_level(self.bug_type, level, MEMORY_LEVELS)
        super().__init__(
            name=f"no_age_update_{level}",
            params={"level": level},
            description=f"LRU age not updated on {level.upper()} hits",
        )
        self.level = level

    def compile(self) -> MemoryBugRecord:
        return replace(NO_MEMORY_BUG, no_age_update=_level_flags(self._index))

    def update_replacement_on_access(self, level: str) -> bool:
        return level != self.level


class EvictMRU(MemoryBug):
    """Bug 2: evictions remove the most recently used block."""

    bug_type = "EvictMRU"

    def __init__(self, level: str = "l1d") -> None:
        self._index = _check_level(self.bug_type, level, MEMORY_LEVELS)
        super().__init__(
            name=f"evict_mru_{level}",
            params={"level": level},
            description=f"{level.upper()} evicts the MRU block instead of the LRU block",
        )
        self.level = level

    def compile(self) -> MemoryBugRecord:
        return replace(NO_MEMORY_BUG, evict_mru=_level_flags(self._index))

    def evict_most_recently_used(self, level: str) -> bool:
        return level == self.level


class LoadMissDelay(MemoryBug):
    """Bug 3: after N load misses at a level, reads are delayed T cycles."""

    bug_type = "LoadMissDelay"

    def __init__(self, level: str = "l1d", threshold: int = 64, delay: int = 20) -> None:
        self._index = _check_level(self.bug_type, level, LOAD_MISS_LEVELS)
        super().__init__(
            name=f"load_miss_delay_{level}_{threshold}_{delay}",
            params={"level": level, "threshold": threshold, "delay": delay},
            description=f"After {threshold} load misses at {level.upper()}, reads "
            f"are delayed {delay} cycles",
        )
        self.level = level
        self.threshold = threshold
        self.delay = delay

    def compile(self) -> MemoryBugRecord:
        delays = [(0, 0)] * len(LOAD_MISS_LEVELS)
        delays[self._index] = (self.threshold, self.delay)
        return replace(NO_MEMORY_BUG, load_miss_delay=tuple(delays))

    def load_miss_extra_delay(self, level: str, miss_count: int) -> int:
        if level == self.level and miss_count > self.threshold:
            return self.delay
        return 0


class SPPSignatureReset(MemoryBug):
    """Bug 4: SPP signatures are reset, so learned delta paths are lost."""

    bug_type = "SPPSignatureReset"

    def __init__(self) -> None:
        super().__init__(
            name="spp_signature_reset",
            params={},
            description="SPP signatures reset to zero on every access",
        )

    def compile(self) -> MemoryBugRecord:
        return replace(NO_MEMORY_BUG, spp_signature_reset=True)

    def spp_corrupt_signature(self, signature: int) -> int:
        return 0


class SPPLeastConfidence(MemoryBug):
    """Bug 5: lookahead prefetching follows the least-confident path."""

    bug_type = "SPPLeastConfidence"

    def __init__(self) -> None:
        super().__init__(
            name="spp_least_confidence",
            params={},
            description="SPP lookahead selects the least-confident delta",
        )

    def compile(self) -> MemoryBugRecord:
        return replace(NO_MEMORY_BUG, spp_least_confident=True)

    def spp_pick_least_confident(self) -> bool:
        return True


class SPPDroppedPrefetches(MemoryBug):
    """Bug 6: a fraction of prefetches are marked executed but never issued."""

    bug_type = "SPPDroppedPrefetches"

    def __init__(self, drop_every: int = 2) -> None:
        super().__init__(
            name=f"spp_dropped_prefetches_{drop_every}",
            params={"drop_every": drop_every},
            description=f"Every {drop_every}-th prefetch is marked executed but dropped",
        )
        self.drop_every = max(1, drop_every)

    def compile(self) -> MemoryBugRecord:
        return replace(NO_MEMORY_BUG, spp_drop_every=self.drop_every)

    def spp_drop_prefetch(self, prefetch_index: int) -> bool:
        return prefetch_index % self.drop_every == 0


#: Memory bug-type identifiers in the paper's order.
MEMORY_BUG_TYPES: tuple[str, ...] = (
    "ReplacementNoAgeUpdate",
    "EvictMRU",
    "LoadMissDelay",
    "SPPSignatureReset",
    "SPPLeastConfidence",
    "SPPDroppedPrefetches",
)


def memory_bug_suite(max_variants_per_type: int | None = None) -> dict[str, list[MemoryBug]]:
    """The memory-system bug suite as ``{bug_type: [variants...]}``."""
    suite: dict[str, list[MemoryBug]] = {
        "ReplacementNoAgeUpdate": [NoAgeUpdateOnAccess("l1d"), NoAgeUpdateOnAccess("l2")],
        "EvictMRU": [EvictMRU("l1d"), EvictMRU("l2")],
        "LoadMissDelay": [
            LoadMissDelay("l1d", threshold=64, delay=20),
            LoadMissDelay("l2", threshold=32, delay=40),
        ],
        "SPPSignatureReset": [SPPSignatureReset()],
        "SPPLeastConfidence": [SPPLeastConfidence()],
        "SPPDroppedPrefetches": [SPPDroppedPrefetches(2), SPPDroppedPrefetches(4)],
    }
    if max_variants_per_type is not None:
        if max_variants_per_type <= 0:
            raise ValueError("max_variants_per_type must be positive")
        suite = {k: v[:max_variants_per_type] for k, v in suite.items()}
    return suite


def all_memory_bugs(max_variants_per_type: int | None = None) -> list[MemoryBug]:
    """Flat list of every memory bug variant."""
    return [b for variants in memory_bug_suite(max_variants_per_type).values()
            for b in variants]
