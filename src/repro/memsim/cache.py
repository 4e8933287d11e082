"""Set-associative cache with (buggable) true-LRU replacement.

Unlike the lightweight tag store in :mod:`repro.coresim.caches`, this cache
models the replacement-policy decision points the memory-system bugs target:
age updates on access and victim selection, read from a
:class:`~repro.memsim.hooks.MemoryBugRecord`.  It also tracks prefetched
lines so that prefetch usefulness can be reported.
"""

from __future__ import annotations

from ..uarch.config import CacheConfig
from .hooks import MEMORY_LEVELS, NO_MEMORY_BUG, MemoryBugRecord


class ReplacementCache:
    """One cache level (*name* is one of ``l1d``, ``l2``, ``llc``) with
    true-LRU replacement and prefetch support."""

    def __init__(
        self, name: str, config: CacheConfig, record: MemoryBugRecord = NO_MEMORY_BUG
    ) -> None:
        level = MEMORY_LEVELS.index(name)
        self.name = name
        self.config = config
        self.age_on_hit = not record.no_age_update[level]
        self.evict_mru = record.evict_mru[level]
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
        """Install *tag*, which both callers know is absent from the set."""
        cache_set = self._sets[set_index]
        if len(cache_set) >= self.associativity:
            if self.evict_mru:
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
            if self.age_on_hit:
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
