"""Performance-counter collection and time-series sampling.

The methodology consumes counter values sampled every *time step* (the paper
uses 500 k clock cycles).  A :class:`CounterTimeSeries` holds one run's
counters as one matrix, a row per counter and a column per step, plus the
per-step IPC that the stage-1 models learn to infer.  It is built once, by
:meth:`CounterTimeSeries.from_deltas` from the per-step deltas of the
simulator's cumulative counters, which adds the step lengths (``cycles``)
and the derived ratio counters (branch percentages, miss rates, ...).  The
native kernel calls it on the rows its C loop emits; the Python pipeline's
:class:`TimeSeriesSampler` calls it on the counter dicts it samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

#: Derived counters as ``(name, numerator, denominator, form)``: the ratio of
#: two raw deltas (0 where the denominator is not positive), as it is, as
#: ``1 - ratio`` ("complement") or as ``1000 * ratio`` ("per_kilo").
_DERIVED = (
    ("derived.pct_branches", "commit.branches", "commit.instructions", "ratio"),
    ("derived.pct_loads", "commit.loads", "commit.instructions", "ratio"),
    ("derived.pct_stores", "commit.stores", "commit.instructions", "ratio"),
    ("derived.pct_fp", "commit.fp_instructions", "commit.instructions", "ratio"),
    ("derived.bp_mispredict_rate", "bp.mispredicts", "bp.lookups", "ratio"),
    ("derived.pct_correct_indirect", "bp.indirect_mispredicts", "bp.indirect_lookups",
     "complement"),
    ("derived.l1d_miss_rate", "cache.l1d.misses", "cache.l1d.accesses", "ratio"),
    ("derived.l2_miss_rate", "cache.l2.misses", "cache.l2.accesses", "ratio"),
    ("derived.l3_miss_rate", "cache.l3.misses", "cache.l3.accesses", "ratio"),
    ("derived.mpki_l1d", "cache.l1d.misses", "commit.instructions", "per_kilo"),
    ("derived.mpki_l2", "cache.l2.misses", "commit.instructions", "per_kilo"),
    ("derived.branch_mpki", "bp.mispredicts", "commit.instructions", "per_kilo"),
    ("derived.fetch_utilization", "fetch.instructions", "fetch.cycles_active", "ratio"),
    ("derived.issue_utilization", "issue.instructions", "cycles", "ratio"),
    ("derived.commit_utilization", "commit.instructions", "cycles", "ratio"),
)


def derived_counters(deltas: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Ratio/derived counters of every step, from the steps' raw deltas.

    *deltas* maps a raw counter name to its per-step deltas (or to one
    step's delta); a name it lacks counts as zero.  These mirror the kinds
    of counters the paper reports as commonly selected: percentage of branch
    instructions, percentage of correctly predicted indirect branches, cache
    miss rates, and utilisation ratios.
    """
    zero = np.zeros(np.shape(next(iter(deltas.values()))))
    numerators = np.array([deltas.get(num, zero) for _, num, _, _ in _DERIVED], dtype=float)
    denominators = np.array([deltas.get(den, zero) for _, _, den, _ in _DERIVED], dtype=float)
    ratios = np.zeros_like(denominators)
    np.divide(numerators, denominators, out=ratios, where=denominators > 0)
    derived = {}
    for (name, _, _, form), ratio in zip(_DERIVED, ratios):
        if form == "complement":
            ratio = 1.0 - ratio
        elif form == "per_kilo":
            ratio = 1000.0 * ratio
        derived[name] = ratio
    return derived


@dataclass
class CounterTimeSeries:
    """Per-time-step counter deltas plus the IPC series.

    Attributes
    ----------
    step_cycles:
        Size of the sampling step in clock cycles.
    names:
        The counter names, one per row of *values*, in sorted order.
    values:
        The ``(counters x steps)`` float64 matrix of per-step values.
    ipc:
        Committed-instructions-per-cycle of every time step.
    """

    step_cycles: int
    names: tuple[str, ...]
    values: np.ndarray
    ipc: np.ndarray

    @classmethod
    def from_deltas(
        cls, step_cycles: int, deltas: Mapping[str, np.ndarray], cycles: np.ndarray
    ) -> "CounterTimeSeries":
        """The series of a run's per-step raw counter *deltas* and step
        lengths: adds the ``cycles`` row and the derived counters, and the
        IPC of each step."""
        rows = dict(deltas, cycles=cycles)
        rows.update(derived_counters(rows))
        names = tuple(sorted(rows))
        committed = rows.get("commit.instructions", np.zeros(len(cycles)))
        return cls(step_cycles, names, np.array([rows[n] for n in names]), committed / cycles)

    @classmethod
    def from_rows(
        cls, step_cycles: int, rows: "list[dict[str, float]]", ipc: "list[float]"
    ) -> "CounterTimeSeries":
        """The series of per-step counter dicts; a counter a step lacks is
        zero there."""
        names = tuple(sorted({name for row in rows for name in row}))
        values = np.array([[row.get(n, 0.0) for row in rows] for n in names], dtype=float)
        return cls(step_cycles, names, values.reshape(len(names), len(rows)),
                   np.array(ipc, dtype=float))

    @property
    def num_steps(self) -> int:
        return len(self.ipc)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: row for row, name in enumerate(self.names)}

    @property
    def counters(self) -> Mapping[str, np.ndarray]:
        """Read-only ``{name: row}`` view of the matrix."""
        return MappingProxyType(dict(zip(self.names, self.values)))

    def row(self, name: str) -> np.ndarray:
        """The per-step values of counter *name* (``KeyError`` if absent)."""
        return self.values[self._index[name]]

    def rows(self, names: Sequence[str]) -> np.ndarray:
        """``(len(names) x steps)`` rows of the requested counters.

        Counters that never fired during a run are simply absent from the
        sampled deltas; they are semantically zero, so missing names get
        zero rows rather than raising.
        """
        index = self._index
        positions = [index.get(name, -1) for name in names]
        if -1 not in positions:
            return self.values[positions]
        gathered = np.zeros((len(names), self.num_steps))
        for row, position in enumerate(positions):
            if position >= 0:
                gathered[row] = self.values[position]
        return gathered

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """Feature matrix (steps x len(names)) for the requested counters,
        with a zero column for each name the run lacks."""
        return self.rows(names).T


@dataclass
class TimeSeriesSampler:
    """Accumulates per-step deltas of the simulator's cumulative counters."""

    step_cycles: int
    _previous: dict[str, float] = field(default_factory=dict)
    _rows: list[dict[str, float]] = field(default_factory=list)
    _cycles: list[float] = field(default_factory=list)

    def _record(self, cumulative: dict[str, float], cycles: int) -> None:
        self._rows.append(
            {name: cumulative[name] - self._previous.get(name, 0.0) for name in cumulative}
        )
        self._cycles.append(float(cycles))
        self._previous = dict(cumulative)

    def sample(self, cumulative: dict[str, float]) -> None:
        """Record one completed time step given cumulative counters."""
        self._record(cumulative, self.step_cycles)

    def finalize(self, cumulative: dict[str, float], leftover_cycles: int) -> None:
        """Account for a trailing partial step.

        The partial step is kept when it is at least half a step long, or when
        it is the only step of the run (very short traces must still produce a
        one-step series).
        """
        if leftover_cycles > 0 and (
            leftover_cycles >= self.step_cycles // 2 or not self._rows
        ):
            self._record(cumulative, leftover_cycles)

    def build(self) -> CounterTimeSeries:
        """Assemble the collected steps into a :class:`CounterTimeSeries`."""
        if not self._rows:
            raise ValueError("no time steps were sampled; trace may be too short")
        names = {name for row in self._rows for name in row}
        deltas = {
            name: np.array([row.get(name, 0.0) for row in self._rows], dtype=float)
            for name in names
        }
        return CounterTimeSeries.from_deltas(
            self.step_cycles, deltas, np.array(self._cycles)
        )
