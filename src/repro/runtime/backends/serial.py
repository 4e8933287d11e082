"""Inline execution backend: everything runs in the calling process.

The default backend (``backend="serial"``, also what ``jobs=1`` maps to) —
no pool, no pickling, used by tests, CI smoke runs and one-core machines.
The engine sees ``inline=True`` and executes pending jobs one at a time for
per-job progress and per-job result persistence; the chunk protocol is
implemented anyway (executing at ``submit`` time) so the serial backend can
stand in for a parallel one in conformance tests.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Set

from ..execution import run_chunk_items
from .base import ExecutionBackend


class SerialBackend(ExecutionBackend):
    """Runs chunks inline in the calling process."""

    spec = "serial"
    slots = 1
    inline = True

    def __init__(self) -> None:
        super().__init__()
        self._traces: dict[str, object] = {}
        self._outcomes: list[tuple] = []

    def start(self, traces: Mapping) -> None:
        self._traces.update(traces)

    def known_trace_ids(self) -> Set[str]:
        # Everything is local to this process: nothing ever needs shipping.
        return set(self._traces)

    def submit(self, tag: int, chunk: list, trace_delta: Mapping) -> None:
        if trace_delta:
            self._traces.update(trace_delta)
        self._outcomes.append((tag, run_chunk_items(chunk, self._traces)))

    def drain(self) -> Iterator[tuple]:
        while self._outcomes:
            yield self._outcomes.pop(0)

    def cancel_pending(self) -> None:
        self._outcomes.clear()

    def close(self) -> None:
        self._outcomes.clear()
