"""Prefetchers for the memory-hierarchy simulator.

Two prefetchers are provided: a trivial next-line prefetcher and a simplified
Signature Path Prefetcher (SPP, Kim et al., MICRO 2016) — the prefetcher the
paper's memory bugs 4-6 target.  The SPP model keeps the structure that those
bugs perturb: per-page signatures built from block-offset deltas, a pattern
table of per-signature delta confidences, and confidence-driven lookahead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hooks import NO_MEMORY_BUG, MemoryBugRecord

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

    The bug record perturbs exactly the mechanisms the paper lists: signature
    reset (bug 4), least-confidence path selection during lookahead (bug 5)
    and prefetches incorrectly marked as executed (bug 6).
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
        record: MemoryBugRecord = NO_MEMORY_BUG,
    ) -> None:
        self.line_size = line_size
        self.degree = max(1, degree)
        self.signature_reset = record.spp_signature_reset
        self.least_confident = record.spp_least_confident
        self.drop_every = record.spp_drop_every
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
        if self.least_confident:
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

        if self.signature_reset:
            signature = 0
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
            if self.drop_every and (
                (self._issued + self._marked_executed) % self.drop_every == 0
            ):
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
    kind: str, line_size: int, degree: int, record: MemoryBugRecord = NO_MEMORY_BUG
) -> Prefetcher:
    """Factory used by the memory simulator."""
    if kind == "none":
        return NoPrefetcher()
    if kind == "next_line":
        return NextLinePrefetcher(line_size=line_size, degree=degree)
    if kind == "spp":
        return SignaturePathPrefetcher(line_size=line_size, degree=degree, record=record)
    raise ValueError(f"unknown prefetcher kind {kind!r}")
