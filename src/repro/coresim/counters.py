"""Performance-counter collection and time-series sampling.

The methodology consumes counter values sampled every *time step* (the paper
uses 500 k clock cycles).  :class:`TimeSeriesSampler` turns the simulator's
cumulative counters into per-step deltas plus a set of derived ratio counters
(branch percentages, miss rates, ...), and records the per-step IPC that the
stage-1 models learn to infer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def derived_counters(deltas: dict[str, float]) -> dict[str, float]:
    """Ratio/derived counters computed from one step's raw counter deltas.

    These mirror the kinds of counters the paper reports as commonly selected:
    percentage of branch instructions, percentage of correctly predicted
    indirect branches, cache miss rates, and utilisation ratios.
    """

    def ratio(num: str, den: str) -> float:
        d = deltas.get(den, 0.0)
        return deltas.get(num, 0.0) / d if d > 0 else 0.0

    committed = deltas.get("commit.instructions", 0.0)
    derived = {
        "derived.pct_branches": ratio("commit.branches", "commit.instructions"),
        "derived.pct_loads": ratio("commit.loads", "commit.instructions"),
        "derived.pct_stores": ratio("commit.stores", "commit.instructions"),
        "derived.pct_fp": ratio("commit.fp_instructions", "commit.instructions"),
        "derived.bp_mispredict_rate": ratio("bp.mispredicts", "bp.lookups"),
        "derived.pct_correct_indirect": 1.0
        - ratio("bp.indirect_mispredicts", "bp.indirect_lookups"),
        "derived.l1d_miss_rate": ratio("cache.l1d.misses", "cache.l1d.accesses"),
        "derived.l2_miss_rate": ratio("cache.l2.misses", "cache.l2.accesses"),
        "derived.l3_miss_rate": ratio("cache.l3.misses", "cache.l3.accesses"),
        "derived.mpki_l1d": 1000.0 * ratio("cache.l1d.misses", "commit.instructions"),
        "derived.mpki_l2": 1000.0 * ratio("cache.l2.misses", "commit.instructions"),
        "derived.branch_mpki": 1000.0 * ratio("bp.mispredicts", "commit.instructions"),
        "derived.fetch_utilization": ratio("fetch.instructions", "fetch.cycles_active"),
        "derived.issue_utilization": ratio("issue.instructions", "cycles"),
        "derived.commit_utilization": committed / deltas.get("cycles", 1.0)
        if deltas.get("cycles", 0.0) > 0
        else 0.0,
    }
    return derived


@dataclass
class CounterTimeSeries:
    """Per-time-step counter deltas plus the IPC series.

    Attributes
    ----------
    step_cycles:
        Size of the sampling step in clock cycles.
    counters:
        Mapping of counter name to an array with one value per time step.
    ipc:
        Committed-instructions-per-cycle of every time step.
    """

    step_cycles: int
    counters: dict[str, np.ndarray]
    ipc: np.ndarray

    @property
    def num_steps(self) -> int:
        return len(self.ipc)

    def matrix(self, names: list[str]) -> np.ndarray:
        """Feature matrix (steps x len(names)) for the requested counters.

        Counters that never fired during a run are simply absent from the
        sampled deltas; they are semantically zero, so missing names are
        filled with zero columns rather than treated as errors.
        """
        zeros = np.zeros(self.num_steps, dtype=float)
        return np.column_stack([self.counters.get(n, zeros) for n in names])

    def with_static_features(self, features: dict[str, float]) -> "CounterTimeSeries":
        """Return a copy with constant (per-design) features appended."""
        counters = dict(self.counters)
        for name, value in features.items():
            counters[name] = np.full(self.num_steps, value, dtype=float)
        return CounterTimeSeries(
            step_cycles=self.step_cycles, counters=counters, ipc=self.ipc.copy()
        )


@dataclass
class TimeSeriesSampler:
    """Accumulates per-step deltas of the simulator's cumulative counters."""

    step_cycles: int
    _previous: dict[str, float] = field(default_factory=dict)
    _rows: list[dict[str, float]] = field(default_factory=list)
    _ipc: list[float] = field(default_factory=list)

    def sample(self, cumulative: dict[str, float]) -> None:
        """Record one completed time step given cumulative counters."""
        deltas = {
            name: cumulative.get(name, 0.0) - self._previous.get(name, 0.0)
            for name in cumulative
        }
        deltas["cycles"] = float(self.step_cycles)
        deltas.update(derived_counters(deltas))
        committed = deltas.get("commit.instructions", 0.0)
        self._rows.append(deltas)
        self._ipc.append(committed / float(self.step_cycles))
        self._previous = dict(cumulative)

    def finalize(self, cumulative: dict[str, float], leftover_cycles: int) -> None:
        """Account for a trailing partial step.

        The partial step is kept when it is at least half a step long, or when
        it is the only step of the run (very short traces must still produce a
        one-step series).
        """
        if leftover_cycles > 0 and (
            leftover_cycles >= self.step_cycles // 2 or not self._rows
        ):
            deltas = {
                name: cumulative.get(name, 0.0) - self._previous.get(name, 0.0)
                for name in cumulative
            }
            deltas["cycles"] = float(leftover_cycles)
            deltas.update(derived_counters(deltas))
            committed = deltas.get("commit.instructions", 0.0)
            self._rows.append(deltas)
            self._ipc.append(committed / float(leftover_cycles))
            self._previous = dict(cumulative)

    def build(self) -> CounterTimeSeries:
        """Assemble the collected steps into a :class:`CounterTimeSeries`."""
        if not self._rows:
            raise ValueError("no time steps were sampled; trace may be too short")
        names = sorted({name for row in self._rows for name in row})
        counters = {
            name: np.array([row.get(name, 0.0) for row in self._rows], dtype=float)
            for name in names
        }
        return CounterTimeSeries(
            step_cycles=self.step_cycles,
            counters=counters,
            ipc=np.array(self._ipc, dtype=float),
        )
