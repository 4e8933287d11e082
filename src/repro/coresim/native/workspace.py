"""Pooled native workspaces: the simulators' tables, kept across calls.

``repro_simulate`` (``_core.c``) and ``repro_memsim`` (``_memsim.c``) each
take an opaque, caller-owned workspace that holds their cache tables (and
the memsim's SPP tables) from one call to the next, so a page a run touches
faults in once per workspace instead of once per call.  A workspace may
serve one call at a time, so :func:`checkout` lends one out for the length
of a C call and takes it back in a ``finally``:

* two threads never share a workspace, and a process holds only as many
  as its peak number of concurrent calls (one in the serial runner, one in
  the serve daemon, which simulates under its session lock);
* workspaces belong to the library that made them, because tests reload
  it: :func:`reset` (called when the build layer drops its library) frees
  the idle ones, and one lent out meanwhile is freed on return;
* a forked child (a ``local:N`` pool worker) starts with an empty pool: it
  frees the idle workspaces it inherited and forgets the lent ones, which
  belonged to threads that did not survive the fork.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Iterator

#: The kinds of workspace and the C units that make them.
KINDS = ("core", "memsim")

_lock = threading.Lock()
#: Idle workspace handles per library and kind.
_idle: "dict[ctypes.CDLL, dict[str, list[int]]]" = {}
#: Handles lent out now, with their library and kind.
_lent: "dict[int, tuple[ctypes.CDLL, str]]" = {}


def _functions(lib: ctypes.CDLL, kind: str):
    """``(new, free)`` for *kind*'s workspaces in *lib*, typed on first use
    (a handle is a pointer: the default ``int`` would truncate it)."""
    new = getattr(lib, f"repro_{kind}_workspace_new")
    free = getattr(lib, f"repro_{kind}_workspace_free")
    if new.restype is not ctypes.c_void_p:
        new.argtypes = []
        new.restype = ctypes.c_void_p
        free.argtypes = [ctypes.c_void_p]
        free.restype = None
    return new, free


@contextlib.contextmanager
def checkout(lib: ctypes.CDLL, kind: str) -> Iterator[int]:
    """A *kind* workspace of *lib* (its address), lent for one C call."""
    new, free = _functions(lib, kind)
    with _lock:
        idle = _idle.setdefault(lib, {name: [] for name in KINDS})[kind]
        handle = idle.pop() if idle else None
    if handle is None:
        handle = new()
        if not handle:
            raise MemoryError(f"cannot allocate a native {kind} workspace")
    with _lock:
        _lent[handle] = (lib, kind)
    try:
        yield handle
    finally:
        with _lock:
            del _lent[handle]
            pool = _idle.get(lib)
            if pool is not None:
                pool[kind].append(handle)
        if pool is None:  # the library was reset while the call ran
            free(handle)


def reset() -> None:
    """Free every idle workspace; one lent out now is freed on return."""
    with _lock:
        pools = list(_idle.items())
        _idle.clear()
    for lib, pool in pools:
        for kind, handles in pool.items():
            _, free = _functions(lib, kind)
            for handle in handles:
                free(handle)


def counts() -> "dict[str, tuple[int, int]]":
    """``{kind: (idle, lent)}`` over every library: what the process holds."""
    with _lock:
        return {
            kind: (
                sum(len(pool[kind]) for pool in _idle.values()),
                sum(1 for _, lent_kind in _lent.values() if lent_kind == kind),
            )
            for kind in KINDS
        }


def _after_fork_in_child() -> None:
    global _lock, _lent
    _lock = threading.Lock()
    _lent = {}
    reset()


os.register_at_fork(after_in_child=_after_fork_in_child)
