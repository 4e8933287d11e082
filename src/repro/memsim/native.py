"""ctypes marshalling for the native (C) memory-hierarchy kernel.

:func:`simulate_memory_native` runs one trace through ``repro_memsim``, the
C port of :class:`~repro.memsim.simulator.MemoryHierarchySim` that
``repro/coresim/native/_memsim.c`` adds to the native kernel library (one
shared object, built and cached by :mod:`repro.coresim.native.build`).  The
trace goes in as three columns, memoised per trace digest: an access flag,
the address and a load flag.  The bug goes in as its
:class:`~repro.memsim.hooks.MemoryBugRecord`, flattened into
``MemParams``.  One row of counter deltas per sampled step comes back out,
and the result is bit-identical to the Python memsim's.

Requests the kernel cannot run exactly raise
:class:`~repro.coresim.native.NativeKernelUnavailable`, and
:func:`~repro.memsim.simulator.simulate_memory_trace` runs the Python memsim
instead: no library, an address outside ``[0, 2**62)`` (Python's ``//`` and
``%`` floor and its ints are unbounded), a latency, delay, issue width,
cache size in lines or trace length past ``2**31``, a non-integer step, an
issue width below 1, or a next-line prefetch reach past ``2**62`` bytes.
"""

from __future__ import annotations

import ctypes
import operator

import numpy as np

from ..coresim.counters import CounterTimeSeries
from ..coresim.native import NativeKernelUnavailable, load_library
from ..uarch.config import MemoryHierarchyConfig
from ..workloads.decoded import DecodedTrace, decode_trace
from ..workloads.isa import MicroOp, Opcode
from .hooks import MEM_BUG_FREE, MEMORY_LEVELS, MemoryBugModel
from .simulator import DEFAULT_STEP_INSTRUCTIONS, WARMUP_FRACTION, MemSimResult

__all__ = ["NativeKernelUnavailable", "simulate_memory_native"]

#: Addresses the kernel holds exactly: non-negative, and with room to add a
#: page offset or a prefetch distance without overflowing int64.
ADDRESS_LIMIT = 1 << 62

#: Bound on latencies, delays and trace lengths: every latency sum and
#: ``accesses * latency`` product then stays exact in int64.
VALUE_LIMIT = 1 << 31

_PREFETCHERS = {"none": 0, "next_line": 1, "spp": 2}

#: Counter names of the kernel's output columns, in ``_memsim.c``'s column
#: order (per level the six stats, prefetches issued, then the step metrics).
_COLUMN_NAMES = tuple(
    f"mem.{level}.{stat}"
    for level in MEMORY_LEVELS
    for stat in (
        "accesses",
        "misses",
        "load_misses",
        "evictions",
        "prefetch_fills",
        "useful_prefetches",
    )
) + (
    "mem.prefetches_issued",
    "mem.amat",
    "mem.accesses",
    "mem.instructions",
    "mem.stall_cycles",
)

#: Column indices in counter-name order, the order the Python memsim's
#: counters dict has.
_SORTED_COLUMNS = tuple(
    (name, _COLUMN_NAMES.index(name)) for name in sorted(_COLUMN_NAMES)
)


class _MemParams(ctypes.Structure):
    """Mirror of ``MemParams`` in ``_memsim.c`` (field order must match)."""

    _fields_ = [
        ("total", ctypes.c_int64),
        ("warmup", ctypes.c_int64),
        ("step", ctypes.c_int64),
        ("issue_width", ctypes.c_int64),
        ("dram_latency", ctypes.c_int64),
        ("prefetcher", ctypes.c_int64),
        ("degree", ctypes.c_int64),
        ("line_size", ctypes.c_int64),
        ("spp_signature_reset", ctypes.c_int64),
        ("spp_least_confident", ctypes.c_int64),
        ("spp_drop_every", ctypes.c_int64),
        ("cache_sets", ctypes.c_int64 * 3),
        ("cache_assoc", ctypes.c_int64 * 3),
        ("cache_line_shift", ctypes.c_int64 * 3),
        ("cache_latency", ctypes.c_int64 * 3),
        ("no_age_update", ctypes.c_int64 * 3),
        ("evict_mru", ctypes.c_int64 * 3),
        ("load_miss_threshold", ctypes.c_int64 * 2),
        ("load_miss_delay", ctypes.c_int64 * 2),
    ]


_u8 = ctypes.POINTER(ctypes.c_uint8)
_i64 = ctypes.POINTER(ctypes.c_int64)
_f64 = ctypes.POINTER(ctypes.c_double)

_configured_libs: "set[int]" = set()


def _configure(lib: ctypes.CDLL) -> None:
    if id(lib) in _configured_libs:
        return
    lib.repro_memsim.restype = ctypes.c_int
    lib.repro_memsim.argtypes = [
        ctypes.POINTER(_MemParams),
        _u8, _i64, _u8,   # has_address, address, is_load
        _f64, _f64,       # out_rows, out_ipc
        ctypes.c_int64,   # max_rows
        _f64, _i64,       # out_totals, out_counts
    ]
    _configured_libs.add(id(lib))


def _check_addresses(low: int, high: int) -> None:
    if low < 0 or high >= ADDRESS_LIMIT:
        raise NativeKernelUnavailable(
            "a memory address outside the native memsim's range [0, 2**62)"
        )


def _access_columns(
    decoded: DecodedTrace,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(has_address, address, is_load)`` of *decoded*, from its columns
    when it arrived pickled, else from its micro-ops (the other columns of
    the pickling encoding are not built)."""
    columns = decoded.built_columns
    if columns is not None:
        has_address = columns["has_address"].astype(np.uint8)
        accessing = has_address.astype(bool)
        address = np.where(accessing, columns["address"], 0).astype(np.int64)
        if accessing.any():
            values = address[accessing]
            _check_addresses(int(values.min()), int(values.max()))
        is_load = (columns["opcode"] == int(Opcode.LOAD)).astype(np.uint8)
        return has_address, address, is_load
    uops = decoded.uops
    n = len(uops)
    has_address = np.zeros(n, dtype=np.uint8)
    address = np.zeros(n, dtype=np.int64)
    is_load = np.zeros(n, dtype=np.uint8)
    index = [i for i, uop in enumerate(uops) if uop.address is not None]
    values = [uops[i].address for i in index]
    if values:
        _check_addresses(min(values), max(values))
    has_address[index] = 1
    address[index] = values
    is_load[[i for i in index if uops[i].opcode is Opcode.LOAD]] = 1
    return has_address, address, is_load


#: Bounded digest-keyed memo of marshalled traces.
_TRACE_MEMO: "dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]" = {}
_TRACE_MEMO_MAX = 256


def _columns_for(decoded: DecodedTrace) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    key = decoded.digest
    hit = _TRACE_MEMO.get(key)
    if hit is not None:
        return hit
    columns = _access_columns(decoded)
    if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
        _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
    _TRACE_MEMO[key] = columns
    return columns


def _bounded(value: int, what: str) -> int:
    """*value*, checked to lie in (-2**31, 2**31) before it meets ctypes
    (which would truncate it silently)."""
    if not -VALUE_LIMIT < value < VALUE_LIMIT:
        raise NativeKernelUnavailable(
            f"{what} {value} is past the native memsim's 2**31"
        )
    return value


def _fill_params(
    config: MemoryHierarchyConfig, n: int, warmup: int, step: int
) -> _MemParams:
    """The configuration part of ``MemParams``; the record part is filled
    by :func:`_fill_record`."""
    if config.issue_width < 1:
        raise NativeKernelUnavailable(f"issue width {config.issue_width} is below 1")
    degree = max(1, config.prefetch_degree)
    line_size = config.l1d.line_size
    if degree * line_size >= ADDRESS_LIMIT:
        raise NativeKernelUnavailable(
            f"a prefetch degree of {degree} reaches past 2**62 bytes"
        )
    params = _MemParams()
    params.total = _bounded(n, "trace length")
    params.warmup = warmup
    # Every step <= 0 flushes like 0 and every step > 2n + 1 like 2n + 2
    # (no in-loop flush, no half-full tail), so clamping is exact.
    params.step = min(max(step, 0), 2 * n + 2)
    params.issue_width = _bounded(config.issue_width, "issue width")
    params.dram_latency = _bounded(config.dram_latency, "DRAM latency")
    params.prefetcher = _PREFETCHERS[config.prefetcher]
    params.degree = degree
    params.line_size = line_size
    for index, level in enumerate((config.l1d, config.l2, config.llc)):
        _bounded(level.num_sets * level.associativity, "cache lines")
        params.cache_sets[index] = level.num_sets
        params.cache_assoc[index] = level.associativity
        params.cache_line_shift[index] = level.line_size.bit_length() - 1
        params.cache_latency[index] = _bounded(level.latency, "cache latency")
    return params


def _fill_record(params: _MemParams, bug: MemoryBugModel) -> None:
    record = bug.compile()
    for index in range(len(MEMORY_LEVELS)):
        params.no_age_update[index] = int(record.no_age_update[index])
        params.evict_mru[index] = int(record.evict_mru[index])
    for index, (threshold, delay) in enumerate(record.load_miss_delay):
        # Load-miss counts lie in [0, 2**31), so clamping keeps "count >
        # threshold" exact for any integer threshold.
        params.load_miss_threshold[index] = min(max(threshold, -1), VALUE_LIMIT)
        params.load_miss_delay[index] = _bounded(delay, "load-miss delay")
    params.spp_signature_reset = int(record.spp_signature_reset)
    params.spp_least_confident = int(record.spp_least_confident)
    # A candidate index stays below 2**62, so a larger period drops only
    # the first candidate, as it does in Python.
    params.spp_drop_every = min(record.spp_drop_every, ADDRESS_LIMIT)


def simulate_memory_native(
    config: MemoryHierarchyConfig,
    trace: "list[MicroOp] | DecodedTrace",
    bug: "MemoryBugModel | None" = None,
    step_instructions: int = DEFAULT_STEP_INSTRUCTIONS,
) -> MemSimResult:
    """Simulate *trace* on *config* through the compiled memsim.

    Bit-identical to ``MemoryHierarchySim(config, bug,
    step_instructions).run(trace)``.  Raises
    :class:`NativeKernelUnavailable` when the library is missing or the
    request is past a kernel limit (see the module docstring).
    """
    lib = load_library()
    if lib is None:
        raise NativeKernelUnavailable("native kernel library unavailable")
    _configure(lib)
    try:
        step = operator.index(step_instructions)
    except TypeError:
        raise NativeKernelUnavailable("a non-integer step") from None
    decoded = decode_trace(trace)
    n = len(decoded)
    if n == 0:
        raise ValueError("cannot simulate an empty trace")
    has_address, address, is_load = _columns_for(decoded)
    warmup = int(n * WARMUP_FRACTION)
    params = _fill_params(config, n, warmup, step)
    bug = bug if bug is not None else MEM_BUG_FREE
    bug.on_simulation_start(config)
    _fill_record(params, bug)

    measured = n - warmup
    max_rows = (measured // params.step if params.step > 1 else measured) + 2
    out_rows = np.zeros((len(_COLUMN_NAMES), max_rows), dtype=np.float64)
    out_ipc = np.zeros(max_rows, dtype=np.float64)
    out_totals = np.zeros(2, dtype=np.float64)
    out_counts = np.zeros(2, dtype=np.int64)
    rc = lib.repro_memsim(
        ctypes.byref(params),
        has_address.ctypes.data_as(_u8),
        address.ctypes.data_as(_i64),
        is_load.ctypes.data_as(_u8),
        out_rows.ctypes.data_as(_f64),
        out_ipc.ctypes.data_as(_f64),
        ctypes.c_int64(max_rows),
        out_totals.ctypes.data_as(_f64),
        out_counts.ctypes.data_as(_i64),
    )
    if rc == 2:
        raise MemoryError("native memsim could not map its tables")
    if rc != 0:
        raise RuntimeError(f"native memsim kernel failed (rc={rc})")

    rows, total_accesses = (int(v) for v in out_counts)
    total_latency, total_cycles = (float(v) for v in out_totals)
    series = CounterTimeSeries(
        step_cycles=step_instructions,
        counters={
            name: out_rows[column, :rows].copy() for name, column in _SORTED_COLUMNS
        },
        ipc=out_ipc[:rows].copy(),
    )
    total_cycles += measured / config.issue_width
    amat = (
        total_latency / total_accesses
        if total_accesses
        else float(config.l1d.latency)
    )
    return MemSimResult(
        config_name=config.name,
        bug_name=bug.name,
        instructions=measured,
        cycles=total_cycles,
        series=series,
        amat=amat,
    )
