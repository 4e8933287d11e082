"""Set-associative cache hierarchy used by the core simulator.

The core model only needs access latencies and hit/miss statistics, so each
level is a tag store with true-LRU replacement; data is never modelled.  The
hierarchy is inclusive-of-nothing (each level is looked up independently and
filled on miss), which is sufficient for the latency/locality behaviour the
methodology's counters observe.
"""

from __future__ import annotations

from ..uarch.config import CacheConfig, MicroarchConfig


class Cache:
    """One cache level: tag store with true-LRU replacement."""

    __slots__ = (
        "name",
        "config",
        "num_sets",
        "associativity",
        "line_shift",
        "_sets",
        "_tick",
        "accesses",
        "misses",
    )

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


class CacheHierarchy:
    """The L1D/L2/(L3)/memory data hierarchy of one core configuration."""

    #: Main-memory access time in nanoseconds (converted to cycles per design).
    MEMORY_LATENCY_NS = 60.0

    def __init__(self, config: MicroarchConfig) -> None:
        self.config = config
        self.levels: list[Cache] = [Cache("l1d", config.l1), Cache("l2", config.l2)]
        if config.l3 is not None:
            self.levels.append(Cache("l3", config.l3))
        self.memory_latency = max(
            30, int(round(self.MEMORY_LATENCY_NS * config.clock_ghz))
        )
        #: Hit latency per level; a bug record's L2 extra latency adds to [1].
        self.latency = [cache.config.latency for cache in self.levels]
        self._outer_levels = self.levels[1:]

    def access(self, address: int) -> int:
        """Access *address* and return the total latency in core cycles."""
        hit_latency = self.latency
        # Hot path: `Cache.lookup` inlined for the L1 probe (the
        # overwhelmingly common hit case), outer levels via the method.
        l1 = self.levels[0]
        l1._tick += 1
        line = address >> l1.line_shift
        set_index = line % l1.num_sets
        tag = line // l1.num_sets
        cache_set = l1._sets[set_index]
        l1.accesses += 1
        latency = hit_latency[0]
        if tag in cache_set:
            cache_set[tag] = l1._tick
            return latency
        l1.misses += 1
        if len(cache_set) >= l1.associativity:
            victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
        cache_set[tag] = l1._tick
        for index, cache in enumerate(self._outer_levels, start=1):
            latency += hit_latency[index]
            if cache.lookup(address):
                break
        else:
            latency += self.memory_latency
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
