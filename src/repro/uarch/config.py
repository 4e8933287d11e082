"""Microarchitecture configuration knobs (Table II of the paper).

A :class:`MicroarchConfig` carries every knob the paper varies across its 20
core designs — clock period, pipeline width, ROB size, the cache hierarchy,
functional-unit latencies and the issue-port organisation — plus a handful of
derived structure sizes (instruction-queue and load/store-queue capacity,
physical register count) that gem5 derives from its own defaults.

The same dataclass also provides ``feature_vector``, the static
"microarchitecture design parameter" features that stage 1 of the methodology
optionally appends to the performance-counter time series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ports import PortOrganization


@dataclass(frozen=True)
class CacheConfig:
    """One cache level: size in bytes, associativity and hit latency (cycles)."""

    size: int
    associativity: int
    latency: int
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.size <= 0 or self.associativity <= 0 or self.latency <= 0:
            raise ValueError("cache size, associativity and latency must be positive")
        if self.line_size <= 0 or self.size % self.line_size != 0:
            raise ValueError("cache size must be a multiple of the line size")
        num_lines = self.size // self.line_size
        if num_lines % self.associativity != 0:
            raise ValueError(
                f"cache with {num_lines} lines cannot be {self.associativity}-way"
            )

    @property
    def num_sets(self) -> int:
        return self.size // (self.line_size * self.associativity)


def kb(n: int) -> int:
    """Kilobytes to bytes."""
    return n * 1024


def mb(n: int) -> int:
    """Megabytes to bytes."""
    return n * 1024 * 1024


@dataclass(frozen=True)
class MicroarchConfig:
    """Full core configuration (Table II row + Table III row + defaults)."""

    name: str
    training_set: str  # "I", "II", "III" or "IV" (Table II "Set" column)
    is_real: bool
    clock_ghz: float
    width: int
    rob_size: int
    l1: CacheConfig
    l2: CacheConfig
    l3: Optional[CacheConfig]
    fp_latency: int
    mult_latency: int
    div_latency: int
    ports: PortOrganization

    # Structures gem5 sizes from its own defaults; scaled from ROB/width here.
    iq_size: int = 0
    lsq_size: int = 0
    num_phys_regs: int = 0
    bp_table_entries: int = 4096
    btb_entries: int = 1024
    indirect_predictor_sets: int = 256
    memory_latency: int = 200
    fetch_buffer: int = 16

    def __post_init__(self) -> None:
        if self.clock_ghz <= 0:
            raise ValueError("clock frequency must be positive")
        if self.width <= 0 or self.rob_size <= 0:
            raise ValueError("width and ROB size must be positive")
        if self.btb_entries < 1:
            raise ValueError("BTB must have at least one entry")
        # Fill derived structure sizes if the preset did not specify them.
        if self.iq_size <= 0:
            object.__setattr__(self, "iq_size", max(12, self.rob_size // 3))
        if self.lsq_size <= 0:
            object.__setattr__(self, "lsq_size", max(8, self.rob_size // 3))
        if self.num_phys_regs <= 0:
            object.__setattr__(self, "num_phys_regs", self.rob_size + 48)

    @property
    def has_l3(self) -> bool:
        return self.l3 is not None

    def cache_levels(self) -> list[CacheConfig]:
        """The configured cache levels, L1 first."""
        levels = [self.l1, self.l2]
        if self.l3 is not None:
            levels.append(self.l3)
        return levels

    def feature_vector(self) -> dict[str, float]:
        """Static microarchitecture design-parameter features (Section III-C).

        These are the features stage 1 optionally appends to every time step;
        they are constant over time for a given design.
        """
        features = {
            "uarch.clock_ghz": self.clock_ghz,
            "uarch.width": float(self.width),
            "uarch.rob_size": float(self.rob_size),
            "uarch.iq_size": float(self.iq_size),
            "uarch.lsq_size": float(self.lsq_size),
            "uarch.l1_size_kb": self.l1.size / 1024.0,
            "uarch.l1_assoc": float(self.l1.associativity),
            "uarch.l1_latency": float(self.l1.latency),
            "uarch.l2_size_kb": self.l2.size / 1024.0,
            "uarch.l2_assoc": float(self.l2.associativity),
            "uarch.l2_latency": float(self.l2.latency),
            "uarch.l3_size_kb": (self.l3.size / 1024.0) if self.l3 else 0.0,
            "uarch.l3_assoc": float(self.l3.associativity) if self.l3 else 0.0,
            "uarch.l3_latency": float(self.l3.latency) if self.l3 else 0.0,
            "uarch.fp_latency": float(self.fp_latency),
            "uarch.mult_latency": float(self.mult_latency),
            "uarch.div_latency": float(self.div_latency),
            "uarch.num_ports": float(self.ports.num_ports),
        }
        return features

    def describe(self) -> str:
        """One-line human-readable summary."""
        l3 = (
            f"{self.l3.size // (1024 * 1024)}MB/{self.l3.associativity}-way"
            if self.l3
            else "none"
        )
        return (
            f"{self.name}: {self.clock_ghz}GHz width={self.width} ROB={self.rob_size} "
            f"L1={self.l1.size // 1024}kB L2={self.l2.size // 1024}kB L3={l3}"
        )


@dataclass(frozen=True)
class MemoryHierarchyConfig:
    """Configuration of the ChampSim-like memory-system simulator.

    Used for the memory-system bug study (Section IV-D): the core is abstracted
    away and only the cache hierarchy, prefetcher and DRAM latency matter.
    """

    name: str
    training_set: str
    is_real: bool
    l1d: CacheConfig
    l2: CacheConfig
    llc: CacheConfig
    dram_latency: int = 200
    prefetcher: str = "spp"
    prefetch_degree: int = 2
    issue_width: int = 4

    def __post_init__(self) -> None:
        if self.dram_latency <= 0:
            raise ValueError("DRAM latency must be positive")
        if self.prefetcher not in ("none", "next_line", "spp"):
            raise ValueError(f"unknown prefetcher {self.prefetcher!r}")
        if self.issue_width < 1:
            raise ValueError(f"issue width must be at least 1, got {self.issue_width}")
        if self.prefetch_degree < 1:
            raise ValueError(
                f"prefetch degree must be at least 1, got {self.prefetch_degree}"
            )
        l1d_lines = self.l1d.size // self.l1d.line_size
        if self.prefetch_degree > l1d_lines:
            raise ValueError(
                f"prefetch degree {self.prefetch_degree} exceeds the "
                f"{l1d_lines} lines of the L1D"
            )

    def feature_vector(self) -> dict[str, float]:
        """Static design-parameter features for the memory-system study."""
        return {
            "mem.l1d_size_kb": self.l1d.size / 1024.0,
            "mem.l1d_latency": float(self.l1d.latency),
            "mem.l2_size_kb": self.l2.size / 1024.0,
            "mem.l2_latency": float(self.l2.latency),
            "mem.llc_size_kb": self.llc.size / 1024.0,
            "mem.llc_latency": float(self.llc.latency),
            "mem.dram_latency": float(self.dram_latency),
            "mem.prefetch_degree": float(self.prefetch_degree),
        }
