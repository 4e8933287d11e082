"""Pre-decoded trace representation shared by the simulators.

A :class:`DecodedTrace` is a dynamic trace in the two forms the simulators
need: the micro-op objects the Python models walk, and flat ``numpy``
columns (one array per field plus validity masks) that bug models compile
their records from and the native kernels read.  Each form is built once
per trace, on demand, and the content :attr:`~DecodedTrace.digest` (the
:class:`~repro.runtime.job.SimulationJob` trace id) is computed once too.

The columns are also the worker-shipping format: pickling a list of
``MicroOp`` dataclass instances is slow and fat, so a ``DecodedTrace``
pickles as its columns, several times smaller and far cheaper to
serialise; micro-op objects are rebuilt lazily on first use in the
receiving process.

``decode_trace`` memoises by object identity, mirroring
:class:`~repro.runtime.job.TraceRegistry`: repeated simulations of the same
trace list (the common case — every design and every bug re-runs the same
probes) decode once.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .isa import MicroOp, Opcode


class DecodedTrace:
    """A dynamic trace as micro-ops, columns and a content digest.

    Construct via :meth:`from_uops` (or the :func:`decode_trace` memo).  The
    instance behaves like a read-only sequence of :class:`MicroOp`; the
    simulators additionally read :attr:`columns` and :attr:`digest` (the
    content hash used as the :class:`~repro.runtime.job.SimulationJob`
    trace id).
    """

    __slots__ = ("_uops", "_columns", "_digest", "__weakref__")

    def __init__(self) -> None:
        self._uops: list[MicroOp] | None = None
        self._columns: dict[str, np.ndarray] | None = None
        self._digest: str | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_uops(cls, uops: Iterable[MicroOp]) -> "DecodedTrace":
        """Decode *uops* (any iterable of micro-ops) into a trace."""
        decoded = cls()
        decoded._uops = list(uops)
        return decoded

    # -- sequence protocol -----------------------------------------------------

    @property
    def uops(self) -> list[MicroOp]:
        """The micro-op objects, rebuilt from columns after unpickling."""
        if self._uops is None:
            self._uops = _columns_to_uops(self._columns)
        return self._uops

    def __len__(self) -> int:
        if self._uops is not None:
            return len(self._uops)
        return int(self._columns["opcode"].shape[0])

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self.uops)

    def __getitem__(self, index):
        return self.uops[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DecodedTrace {len(self)} instrs>"

    @property
    def digest(self) -> str:
        """Content hash; identical to ``trace_digest`` of the micro-op list."""
        if self._digest is None:
            from ..runtime.job import trace_digest

            self._digest = trace_digest(self.uops)
        return self._digest

    # -- compact pickling ------------------------------------------------------

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """Column-array encoding (built on demand; used for pickling)."""
        if self._columns is None:
            self._columns = _uops_to_columns(self.uops)
        return self._columns

    @property
    def built_columns(self) -> "dict[str, np.ndarray] | None":
        """The column encoding if it exists already (as after unpickling),
        else ``None``; unlike :attr:`columns` this never builds it."""
        return self._columns

    def nbytes(self) -> int:
        """Approximate serialised size of the column encoding."""
        return sum(int(a.nbytes) for a in self.columns.values())

    def __getstate__(self) -> dict:
        return {"columns": self.columns, "digest": self._digest}

    def __setstate__(self, state: dict) -> None:
        self._uops = None
        self._columns = state["columns"]
        self._digest = state["digest"]


def _uops_to_columns(uops: Sequence[MicroOp]) -> dict[str, np.ndarray]:
    """Flatten micro-ops into int64 columns with validity masks.

    Optional fields (dest/address/taken/target) carry a parallel mask so any
    integer value — including 0 and negatives — round-trips exactly.
    """
    n = len(uops)
    opcode = np.zeros(n, dtype=np.int64)
    dest = np.zeros(n, dtype=np.int64)
    has_dest = np.zeros(n, dtype=np.uint8)
    pc = np.zeros(n, dtype=np.int64)
    address = np.zeros(n, dtype=np.int64)
    has_address = np.zeros(n, dtype=np.uint8)
    taken = np.zeros(n, dtype=np.int8)  # -1 none, 0 not-taken, 1 taken
    target = np.zeros(n, dtype=np.int64)
    has_target = np.zeros(n, dtype=np.uint8)
    indirect = np.zeros(n, dtype=np.uint8)
    size = np.zeros(n, dtype=np.int64)
    block_id = np.zeros(n, dtype=np.int64)
    srcs_flat: list[int] = []
    srcs_offset = np.zeros(n + 1, dtype=np.int64)

    for i, u in enumerate(uops):
        opcode[i] = int(u.opcode)
        if u.dest is not None:
            dest[i] = u.dest
            has_dest[i] = 1
        pc[i] = u.pc
        if u.address is not None:
            address[i] = u.address
            has_address[i] = 1
        taken[i] = -1 if u.taken is None else int(bool(u.taken))
        if u.target is not None:
            target[i] = u.target
            has_target[i] = 1
        indirect[i] = 1 if u.indirect else 0
        size[i] = u.size
        block_id[i] = u.block_id
        srcs_flat.extend(u.srcs)
        srcs_offset[i + 1] = len(srcs_flat)

    return {
        "opcode": _shrink(opcode),
        "dest": _shrink(dest),
        "has_dest": has_dest,
        "pc": _shrink(pc),
        "address": _shrink(address),
        "has_address": has_address,
        "taken": taken,
        "target": _shrink(target),
        "has_target": has_target,
        "indirect": indirect,
        "size": _shrink(size),
        "block_id": _shrink(block_id),
        "srcs_flat": _shrink(np.array(srcs_flat, dtype=np.int64)),
        "srcs_offset": _shrink(srcs_offset),
    }


def _shrink(array: np.ndarray) -> np.ndarray:
    """Losslessly downcast an int64 column to the narrowest dtype that fits."""
    for dtype in (np.int8, np.int16, np.int32):
        if array.size == 0 or (
            array.min() >= np.iinfo(dtype).min and array.max() <= np.iinfo(dtype).max
        ):
            return array.astype(dtype)
    return array


def _columns_to_uops(columns: dict[str, np.ndarray]) -> list[MicroOp]:
    """Rebuild the micro-op objects from a column encoding."""
    opcode = columns["opcode"].tolist()
    dest = columns["dest"].tolist()
    has_dest = columns["has_dest"].tolist()
    pc = columns["pc"].tolist()
    address = columns["address"].tolist()
    has_address = columns["has_address"].tolist()
    taken = columns["taken"].tolist()
    target = columns["target"].tolist()
    has_target = columns["has_target"].tolist()
    indirect = columns["indirect"].tolist()
    size = columns["size"].tolist()
    block_id = columns["block_id"].tolist()
    srcs_flat = columns["srcs_flat"].tolist()
    srcs_offset = columns["srcs_offset"].tolist()
    return [
        MicroOp(
            opcode=Opcode(opcode[i]),
            srcs=tuple(srcs_flat[srcs_offset[i]:srcs_offset[i + 1]]),
            dest=dest[i] if has_dest[i] else None,
            pc=pc[i],
            address=address[i] if has_address[i] else None,
            taken=None if taken[i] < 0 else bool(taken[i]),
            target=target[i] if has_target[i] else None,
            indirect=bool(indirect[i]),
            size=size[i],
            block_id=block_id[i],
        )
        for i in range(len(opcode))
    ]


# -- identity-memoised decoding -----------------------------------------------

#: Strong-reference identity memo (id -> (trace, decoded)); the strong
#: reference pins each memoised list's object id so a garbage-collected trace
#: can never alias a stale entry onto a recycled id.  Bounded FIFO so
#: pathological callers cannot leak unboundedly.
_DECODE_MEMO: dict[int, tuple[object, DecodedTrace]] = {}
_DECODE_MEMO_MAX = 512


def decode_trace(trace: "Sequence[MicroOp] | DecodedTrace") -> DecodedTrace:
    """Return *trace* as a :class:`DecodedTrace`, decoding at most once.

    ``DecodedTrace`` inputs pass straight through; lists are decoded and
    memoised by object identity, so every simulator call on the same probe
    trace shares one decode.
    """
    if isinstance(trace, DecodedTrace):
        return trace
    key = id(trace)
    hit = _DECODE_MEMO.get(key)
    if hit is not None and hit[0] is trace:
        return hit[1]
    decoded = DecodedTrace.from_uops(trace)
    if len(_DECODE_MEMO) >= _DECODE_MEMO_MAX:
        _DECODE_MEMO.pop(next(iter(_DECODE_MEMO)))
    _DECODE_MEMO[key] = (trace, decoded)
    return decoded


def as_uops(trace: "Sequence[MicroOp] | DecodedTrace") -> list[MicroOp]:
    """A plain micro-op list view of *trace* (no copy for lists)."""
    if isinstance(trace, DecodedTrace):
        return trace.uops
    if isinstance(trace, list):
        return trace
    return list(trace)
