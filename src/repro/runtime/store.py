"""Persistent, content-addressed store of simulation results.

The :class:`ResultStore` maps a :meth:`SimulationJob.key` content hash to a
:class:`StoredResult` — the study-agnostic flattening of a core
:class:`~repro.coresim.simulator.SimulationResult` or memory
:class:`~repro.memsim.simulator.MemSimResult`.  Entries are one ``.npz``
file per key, written atomically (temp file + ``os.replace``) so a killed
run never leaves a half-written entry that later readers trust.

An entry holds three members: ``meta`` (JSON: the :data:`ENTRY_FORMAT`
version, the scalars and the counter names in order), ``ipc``, and
``counters``, one matrix with a row per counter.  Only :meth:`ResultStore.put`
and :meth:`ResultStore.get` know this layout.  An entry without the
current format — every entry written before the version existed, when each
counter was its own member — is a miss: it stays in place until the
recomputed result's ``put`` replaces it, so an older store upgrades entry
by entry as runs reach it.

Corrupt or truncated entries are treated as misses: the bad file is removed
and the job is recomputed, never crashing an experiment run.

Every entry lives at ``shard=<key[:2]>/<key>.npz``: the first two hex
digits of the content hash pick one of 256 shard directories.  Directory
listings stay short at cluster scale, shards rsync independently, and
concurrent writers from many processes contend on a shard directory
instead of one giant one.  Temp files live inside the shard directory so
the ``os.replace`` rename never crosses a filesystem boundary.  The store
reads and writes nothing outside its ``shard=XX/`` directories.

:meth:`ResultStore.gc` prunes entries not named by a *keep roster* (see
:mod:`repro.cluster.roster` and ``repro-store gc``): content addressing
means reachability cannot be derived from the store itself, so the roster
of every key the current experiment configuration can produce is computed
from the experiment inputs and everything else is garbage.  It is the
store's one pruning rule: beyond corrupt entries and stale temp files, the
store removes nothing on its own.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..coresim.counters import CounterTimeSeries
from ..coresim.simulator import SimulationResult
from ..memsim.simulator import MemSimResult
from .job import CORE_STUDY, MEMORY_STUDY

#: Version of the entry layout :meth:`ResultStore.put` writes, recorded in
#: each entry's ``meta``.  The per-counter layout before it carried none.
ENTRY_FORMAT = 2

#: Shape of the temp files ``put`` writes: ``<key>.tmp<pid>``.
_TMP_PATTERN = re.compile(r"\.tmp\d+$")

#: Minimum age before an orphaned temp file is considered stale.  Writes
#: take well under a second, so anything this old belongs to a crashed
#: writer; younger temp files may belong to a live writer in another
#: process sharing the store and must not be touched.
_STALE_TMP_SECONDS = 3600.0

#: Shard directory prefix (``shard=3f/``).
_SHARD_PREFIX = "shard="

#: Hex digits of the key that pick the shard (2 -> 256 shards).
SHARD_WIDTH = 2


@dataclass
class StoredResult:
    """Study-agnostic flattening of one simulation outcome: its scalars and
    its :class:`~repro.coresim.counters.CounterTimeSeries`, carried as the
    simulator built it."""

    study: str
    config_name: str
    bug_name: str
    instructions: int
    cycles: float
    amat: float
    series: CounterTimeSeries

    # -- conversions -----------------------------------------------------------

    @classmethod
    def from_core(cls, result: SimulationResult) -> "StoredResult":
        return cls(
            study=CORE_STUDY,
            config_name=result.config_name,
            bug_name=result.bug_name,
            instructions=result.instructions,
            cycles=float(result.cycles),
            amat=0.0,
            series=result.series,
        )

    @classmethod
    def from_memory(cls, result: MemSimResult) -> "StoredResult":
        return cls(
            study=MEMORY_STUDY,
            config_name=result.config_name,
            bug_name=result.bug_name,
            instructions=result.instructions,
            cycles=result.cycles,
            amat=result.amat,
            series=result.series,
        )

    def to_core(self) -> SimulationResult:
        if self.study != CORE_STUDY:
            raise ValueError(f"not a core-study result: {self.study!r}")
        return SimulationResult(
            config_name=self.config_name,
            bug_name=self.bug_name,
            instructions=self.instructions,
            cycles=int(self.cycles),
            series=self.series,
        )

    def to_memory(self) -> MemSimResult:
        if self.study != MEMORY_STUDY:
            raise ValueError(f"not a memory-study result: {self.study!r}")
        return MemSimResult(
            config_name=self.config_name,
            bug_name=self.bug_name,
            instructions=self.instructions,
            cycles=self.cycles,
            series=self.series,
            amat=self.amat,
        )


def _check_matrix(series: CounterTimeSeries) -> None:
    """Raise :class:`ValueError` unless *series* is one float64 matrix with
    a row per counter name and a column per step of its float64 IPC."""
    values, ipc = np.asarray(series.values), np.asarray(series.ipc)
    if (
        values.dtype != np.float64
        or ipc.dtype != np.float64
        or ipc.ndim != 1
        or values.shape != (len(series.names), len(ipc))
    ):
        raise ValueError(
            f"a {values.dtype} counters matrix of shape {values.shape} with "
            f"{ipc.dtype} IPC cannot hold {len(series.names)} float64 counters "
            f"of {len(ipc)} steps"
        )


@dataclass
class StoreStats:
    """Observable effectiveness counters of one :class:`ResultStore`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0
    #: Misses on an entry written in an older format (left for put).
    outdated: int = 0
    #: Entries :meth:`ResultStore.merge_from` wrote over one here that was
    #: not in the current format (older or unreadable).
    replaced: int = 0
    tmp_swept: int = 0
    gc_removed: int = 0


class ResultStore:
    """Disk-backed ``{job key: StoredResult}`` map with corruption recovery.

    *path* is the store directory, created on first use; it holds one
    ``shard=XX/<key>.npz`` file per result.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()
        #: Directory scans performed (observable for the O(N²)-put regression
        #: test: a warm store must not re-glob the directory on every write).
        self.scans = 1
        # Opening does all the upkeep a store needs, in one pass over the
        # shards: it counts the entries (the incremental counter that
        # replaces per-put globbing) and sweeps stale ``<key>.tmp<pid>``
        # files left behind by crashed writers — nothing else ever looks at
        # non-``.npz`` names, so without this sweep they would leak forever.
        # Only files older than _STALE_TMP_SECONDS are removed: a young temp
        # file may belong to a live writer in another process sharing this
        # store directory.
        stale_before = time.time() - _STALE_TMP_SECONDS
        self._count = 0
        for child in self._iter_store_files():
            if child.name.endswith(".npz"):
                self._count += 1
            elif _TMP_PATTERN.search(child.name):
                try:
                    if child.stat().st_mtime < stale_before:
                        child.unlink()
                        self.stats.tmp_swept += 1
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass

    # -- shards ----------------------------------------------------------------

    def _shard_dirs(self) -> list[Path]:
        return sorted(
            child
            for child in self.path.iterdir()
            if child.is_dir() and child.name.startswith(_SHARD_PREFIX)
        )

    def _iter_store_files(self):
        """Every file in the shard directories (entries *and* temp files)."""
        for shard in self._shard_dirs():
            yield from shard.iterdir()

    def shard_counts(self) -> dict[str, int]:
        """Entry count per occupied shard directory."""
        return {
            child.name[len(_SHARD_PREFIX):]: sum(
                1 for entry in child.iterdir() if entry.name.endswith(".npz")
            )
            for child in self._shard_dirs()
        }

    # -- helpers ---------------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.path / f"{_SHARD_PREFIX}{key[:SHARD_WIDTH]}" / f"{key}.npz"

    def _rescan(self) -> list[Path]:
        """Authoritative entry listing; resyncs the incremental count."""
        self.scans += 1
        entries = [
            child for child in self._iter_store_files() if child.name.endswith(".npz")
        ]
        self._count = len(entries)
        return entries

    def __len__(self) -> int:
        """Entry count, tracked incrementally (no directory scan).

        The count is resynced from disk whenever a corrupt entry is removed
        or the store is listed, so it self-corrects after external
        modification of the store directory.
        """
        return self._count

    def __contains__(self, key: str) -> bool:
        return self._entry_path(key).exists()

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self._rescan())

    # -- read ------------------------------------------------------------------

    def get(self, key: str) -> StoredResult | None:
        """Load the entry for *key*, or ``None`` on miss or corruption."""
        entry = self._entry_path(key)
        if not entry.exists():
            self.stats.misses += 1
            return None
        try:
            with np.load(entry, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"][()]))
                if meta.get("format") != ENTRY_FORMAT:
                    # An older layout, not damage: leave the file for the
                    # recomputed result's put to replace in place.
                    self.stats.outdated += 1
                    self.stats.misses += 1
                    return None
                series = CounterTimeSeries(
                    int(meta["step"]), tuple(meta["counters"]), data["counters"],
                    data["ipc"],
                )
                _check_matrix(series)
                result = StoredResult(
                    study=meta["study"],
                    config_name=meta["config_name"],
                    bug_name=meta["bug_name"],
                    instructions=int(meta["instructions"]),
                    cycles=float(meta["cycles"]),
                    amat=float(meta["amat"]),
                    series=series,
                )
        except Exception:
            # Truncated download, killed writer, disk hiccup: recompute
            # rather than crash, and drop the unreadable file.
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                entry.unlink()
            except OSError:
                pass
            # A corrupt entry means something outside this object touched the
            # directory (killed writer, external copy); resync the count from
            # disk rather than guessing.
            self._rescan()
            return None
        self.stats.hits += 1
        return result

    # -- write -----------------------------------------------------------------

    def put(self, key: str, result: StoredResult) -> None:
        """Persist *result* under *key* atomically.

        Raises :class:`ValueError`, writing nothing, when the series' matrix
        is not float64 with a row per counter name and a column per IPC
        step: ``get`` would read back a different series.
        """
        series = result.series
        _check_matrix(series)
        meta = json.dumps(
            {
                "format": ENTRY_FORMAT,
                "study": result.study,
                "config_name": result.config_name,
                "bug_name": result.bug_name,
                "instructions": result.instructions,
                "cycles": result.cycles,
                "amat": result.amat,
                "step": series.step_cycles,
                "counters": list(series.names),
            }
        )
        entry = self._entry_path(key)
        # Concurrent-writer safe: mkdir is idempotent, and the temp file
        # shares the shard directory so os.replace stays a same-directory
        # rename.
        entry.parent.mkdir(parents=True, exist_ok=True)
        tmp = entry.with_suffix(f".tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                np.savez(
                    handle, meta=np.array(meta), ipc=series.ipc, counters=series.values
                )
            existed = entry.exists()
            os.replace(tmp, entry)
        finally:
            if tmp.exists():  # pragma: no cover - only on write failure
                try:
                    tmp.unlink()
                except OSError:
                    pass
        if not existed:
            self._count += 1
        self.stats.puts += 1

    # -- merge -----------------------------------------------------------------

    def merge_from(self, other: "ResultStore") -> int:
        """Copy every entry of *other* that is absent here or here only in
        an older format; returns the count copied.

        Entries are content-addressed by job key, so merging stores produced
        by different runs (or machines) is always safe: equal keys hold
        equal payloads.  A current entry already here is kept as it is; one
        that :meth:`get` would miss on (an older format, or unreadable) is
        replaced and counted in ``stats.replaced``.  Corrupt source entries
        are skipped (and dropped from *other*, per the standard read path),
        and so are source entries in an older format.  Each copy goes
        through the normal :meth:`put`, so every merged entry is
        re-validated on the way in.
        """
        if other.path.resolve() == self.path.resolve():
            raise ValueError("cannot merge a store into itself")
        merged = 0
        for key in other.keys():
            present = key in self
            if present and self._is_current(key):
                continue
            result = other.get(key)
            if result is None:  # corrupt or concurrently removed: skip
                continue
            self.put(key, result)
            merged += 1
            if present:
                self.stats.replaced += 1
        return merged

    def _is_current(self, key: str) -> bool:
        """Whether *key*'s entry is in :data:`ENTRY_FORMAT`, read from its
        ``meta`` member alone; an unreadable entry is not."""
        try:
            with np.load(self._entry_path(key), allow_pickle=False) as data:
                return json.loads(str(data["meta"][()])).get("format") == ENTRY_FORMAT
        except Exception:
            return False

    # -- maintenance -----------------------------------------------------------

    def gc(self, keep: "set[str]", dry_run: bool = False) -> list[str]:
        """Remove every entry whose key is not in the *keep* roster.

        Returns the sorted keys that were removed (or would be, under
        *dry_run*).  The roster is the set of keys the current experiment
        configuration can produce (:mod:`repro.cluster.roster`); anything
        else is unreachable garbage — results of retired configs, old
        scales or dropped traces.  GC never invalidates a surviving entry:
        content addressing means the keep-set's payloads are untouched, so
        replaying the surviving roster still yields ``executed=0``.
        Empty shard directories left behind are pruned.
        """
        removed: list[str] = []
        for entry in self._rescan():
            if entry.stem in keep:
                continue
            if not dry_run:
                try:
                    entry.unlink()
                    self._count -= 1
                except OSError:  # pragma: no cover - concurrent removal
                    continue
                self.stats.gc_removed += 1
            removed.append(entry.stem)
        if not dry_run:
            for shard in self._shard_dirs():
                try:
                    shard.rmdir()  # only succeeds once empty
                except OSError:
                    pass
        return sorted(removed)
